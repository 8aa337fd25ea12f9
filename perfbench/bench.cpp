#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

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

LatencyLog::LatencyLog() : bins_(kBins, 0) {}

void
LatencyLog::add(Clock::duration d)
{
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                     .count();
    ++count_;
    open_ns_.push_back(ns);
    if (ns >= 0 && static_cast<uint64_t>(ns) < kBins)
        ++bins_[static_cast<size_t>(ns)];
    else
        slow_ns_.push_back(ns);
}

void
LatencyLog::endRepetition()
{
    if (open_ns_.empty())
        return;
    // Nearest rank: the ceil(n / 2)-th smallest call.
    auto mid = open_ns_.begin() + (open_ns_.size() + 1) / 2 - 1;
    std::nth_element(open_ns_.begin(), mid, open_ns_.end());
    median_sum_us_ += static_cast<double>(*mid) * 1e-3;
    ++repetitions_;
    open_ns_.clear();
}

double
LatencyLog::meanMedianUs() const
{
    return repetitions_ == 0
        ? 0.0
        : median_sum_us_ / static_cast<double>(repetitions_);
}

double
LatencyLog::pooledUs(double q) const
{
    if (count_ == 0)
        return 0.0;
    // Nearest rank: the smallest latency with at least ceil(q n) calls
    // at or below it.
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (size_t ns = 0; ns < kBins; ++ns) {
        seen += bins_[ns];
        if (seen >= rank)
            return static_cast<double>(ns) * 1e-3;
    }
    std::vector<int64_t> slow = slow_ns_;
    std::sort(slow.begin(), slow.end());
    return static_cast<double>(slow[rank - seen - 1]) * 1e-3;
}

void
Results::metric(const std::string &name, double value,
                const std::string &unit)
{
    metrics_.emplace(name, std::make_pair(value, unit));
}

void
Results::observe(const std::string &key, const std::string &value)
{
    observations_.emplace(key, value);
}

void
Results::repetitions(const std::string &tag, const std::string &name,
                     const std::vector<double> &values)
{
    std::string joined;
    char buf[32];
    for (double v : values) {
        std::snprintf(buf, sizeof buf, "%s%.6g", joined.empty() ? "" : ",",
                      v);
        joined += buf;
    }
    observe(tag + ".reps." + name, joined);
}

void
Results::fail(const std::string &what)
{
    failures_.push_back(what);
}

void
Results::attempt(uint64_t n, uint64_t failed)
{
    attempted_ += n;
    failed_ops_ += failed;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
