#include "data/timeseries.h"

#include <cmath>
#include <random>

#include "common/logging.h"

namespace ulpdp {

namespace timeseries {

std::vector<double>
meanRevertingWalk(size_t n, const SensorRange &range, double mu,
                  double rate, double sigma, uint64_t seed)
{
    if (!(rate >= 0.0 && rate <= 1.0))
        fatal("meanRevertingWalk: rate must be in [0, 1], got %g",
              rate);
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::vector<double> out(n);
    double x = range.clamp(mu);
    for (size_t t = 0; t < n; ++t) {
        x += rate * (mu - x) + sigma * gauss(rng);
        x = range.clamp(x);
        out[t] = x;
    }
    return out;
}

std::vector<double>
diurnal(size_t n, const SensorRange &range, double base,
        double amplitude, size_t period, double jitter, uint64_t seed)
{
    if (period == 0)
        fatal("diurnal: period must be positive");
    if (!(jitter >= 0.0))
        fatal("diurnal: jitter must be non-negative, got %g", jitter);
    // normal_distribution requires a positive stddev, so a noise-free
    // series skips the draw (it would only have added +0.0).
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0,
                                           jitter > 0.0 ? jitter : 1.0);
    std::vector<double> out(n);
    for (size_t t = 0; t < n; ++t) {
        double phase = 2.0 * M_PI * static_cast<double>(t) /
                       static_cast<double>(period);
        double v = base + amplitude * std::sin(phase);
        if (jitter > 0.0)
            v += gauss(rng);
        out[t] = range.clamp(v);
    }
    return out;
}

std::vector<double>
piecewiseLevels(size_t n, const SensorRange &range, int num_levels,
                double switch_prob, uint64_t seed)
{
    if (num_levels < 2)
        fatal("piecewiseLevels: need at least 2 levels, got %d",
              num_levels);
    if (!(switch_prob >= 0.0 && switch_prob <= 1.0))
        fatal("piecewiseLevels: switch_prob must be in [0, 1]");

    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> pick(0, num_levels - 1);
    std::bernoulli_distribution flip(switch_prob);
    std::vector<double> out(n);
    int level = pick(rng);
    double step = range.length() / static_cast<double>(num_levels - 1);
    for (size_t t = 0; t < n; ++t) {
        if (flip(rng))
            level = pick(rng);
        out[t] = range.lo + static_cast<double>(level) * step;
    }
    return out;
}

} // namespace timeseries

} // namespace ulpdp
