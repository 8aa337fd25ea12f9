#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ulpdp {

RunningStats
RunningStats::fromGrid(const GridSums &g, int64_t origin, double step,
                       double shift)
{
    RunningStats r;
    if (g.n == 0)
        return r;
    const double n = static_cast<double>(g.n);
    const __int128 total = static_cast<__int128>(origin) * g.n +
                           static_cast<__int128>(g.sum);
    r.count_ = g.n;
    r.mean_ = static_cast<double>(total) / n * step - shift;
    // n * (sum of squared deviations) in grid units, exact.
    r.m2_ = static_cast<double>(g.sum_sq * g.n - g.sum * g.sum) / n *
            step * step;
    r.min_ = static_cast<double>(origin + static_cast<int64_t>(g.min)) *
                 step - shift;
    r.max_ = static_cast<double>(origin + static_cast<int64_t>(g.max)) *
                 step - shift;
    return r;
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    uint64_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    mean_ += delta * nb / static_cast<double>(n);
    m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
    count_ = n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
RunningStats::variance() const
{
    if (count_ < 1)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStats::sampleVariance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

namespace batch {

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

double
variance(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double mu = mean(v);
    double sum = 0.0;
    for (double x : v)
        sum += (x - mu) * (x - mu);
    return sum / static_cast<double>(v.size());
}

double
stddev(const std::vector<double> &v)
{
    return std::sqrt(variance(v));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    size_t n = v.size();
    size_t mid = n / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (n % 2 == 1)
        return hi;
    std::nth_element(v.begin(), v.begin() + mid - 1, v.end());
    return 0.5 * (v[mid - 1] + hi);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    ULPDP_ASSERT(p >= 0.0 && p <= 100.0);
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return v[0];
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
meanAbsError(const std::vector<double> &a, const std::vector<double> &b)
{
    ULPDP_ASSERT(a.size() == b.size());
    if (a.empty())
        return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += std::abs(a[i] - b[i]);
    return sum / static_cast<double>(a.size());
}

} // namespace batch

} // namespace ulpdp
