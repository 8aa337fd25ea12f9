/**
 * @file
 * Tests for the synthetic sensor time-series generators.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "data/timeseries.h"

namespace ulpdp {
namespace {

const SensorRange kRange(0.0, 10.0);

TEST(Timeseries, WalkStaysInRange)
{
    auto w = timeseries::meanRevertingWalk(5000, kRange, 5.0, 0.05,
                                           0.5, 1);
    EXPECT_EQ(w.size(), 5000u);
    for (double v : w) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 10.0);
    }
}

TEST(Timeseries, WalkRevertsToMean)
{
    auto w = timeseries::meanRevertingWalk(50000, kRange, 7.0, 0.1,
                                           0.3, 2);
    RunningStats s;
    for (double v : w)
        s.add(v);
    EXPECT_NEAR(s.mean(), 7.0, 0.3);
}

TEST(Timeseries, WalkIsAutocorrelated)
{
    auto w = timeseries::meanRevertingWalk(20000, kRange, 5.0, 0.02,
                                           0.2, 3);
    double num = 0.0;
    double den = 0.0;
    RunningStats s;
    for (double v : w)
        s.add(v);
    double mu = s.mean();
    for (size_t t = 1; t < w.size(); ++t) {
        num += (w[t] - mu) * (w[t - 1] - mu);
        den += (w[t] - mu) * (w[t] - mu);
    }
    EXPECT_GT(num / den, 0.8); // strongly persistent
}

TEST(Timeseries, WalkRejectsBadRate)
{
    EXPECT_THROW(timeseries::meanRevertingWalk(10, kRange, 5.0, 1.5,
                                               0.1, 1),
                 FatalError);
}

TEST(Timeseries, DiurnalHasThePeriod)
{
    size_t period = 96;
    auto d = timeseries::diurnal(period * 20, kRange, 5.0, 3.0,
                                 period, 0.0, 4);
    // Noise-free: the signal repeats exactly every period.
    for (size_t t = 0; t + period < d.size(); t += 7)
        EXPECT_NEAR(d[t], d[t + period], 1e-9);
    // And spans roughly base +- amplitude.
    RunningStats s;
    for (double v : d)
        s.add(v);
    EXPECT_NEAR(s.max(), 8.0, 0.01);
    EXPECT_NEAR(s.min(), 2.0, 0.01);
}

TEST(Timeseries, DiurnalClipsJitter)
{
    auto d = timeseries::diurnal(5000, kRange, 9.0, 3.0, 48, 1.0, 5);
    for (double v : d) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 10.0);
    }
}

TEST(Timeseries, DiurnalWithoutJitterIsTheClampedSine)
{
    size_t period = 48;
    double base = 9.0, amplitude = 3.0;
    auto d = timeseries::diurnal(500, kRange, base, amplitude, period,
                                 0.0, 11);
    for (size_t t = 0; t < d.size(); ++t) {
        double phase = 2.0 * M_PI * static_cast<double>(t) /
                       static_cast<double>(period);
        EXPECT_EQ(d[t], kRange.clamp(base + amplitude * std::sin(phase)))
            << "t = " << t;
    }
}

TEST(Timeseries, DiurnalRejectsNegativeJitter)
{
    EXPECT_THROW(timeseries::diurnal(10, kRange, 5.0, 1.0, 8, -0.1, 1),
                 FatalError);
}

TEST(Timeseries, DiurnalRejectsZeroPeriod)
{
    EXPECT_THROW(timeseries::diurnal(10, kRange, 5.0, 1.0, 0, 0.1, 1),
                 FatalError);
}

TEST(Timeseries, LevelsAreDiscrete)
{
    auto l = timeseries::piecewiseLevels(5000, kRange, 5, 0.02, 6);
    for (double v : l) {
        double idx = v / 2.5; // 5 levels over [0, 10]: step 2.5
        EXPECT_NEAR(idx, std::round(idx), 1e-9);
    }
}

TEST(Timeseries, LevelsHold)
{
    auto l = timeseries::piecewiseLevels(10000, kRange, 4, 0.01, 7);
    size_t switches = 0;
    for (size_t t = 1; t < l.size(); ++t) {
        if (l[t] != l[t - 1])
            ++switches;
    }
    // Switch probability 1%, but a switch can re-pick the same
    // level; expect clearly fewer than 2% observed changes.
    EXPECT_LT(switches, l.size() / 50);
    EXPECT_GT(switches, 0u);
}

TEST(Timeseries, LevelsRejectBadParams)
{
    EXPECT_THROW(timeseries::piecewiseLevels(10, kRange, 1, 0.1, 1),
                 FatalError);
    EXPECT_THROW(timeseries::piecewiseLevels(10, kRange, 3, 1.5, 1),
                 FatalError);
}

TEST(Timeseries, Deterministic)
{
    auto a = timeseries::meanRevertingWalk(100, kRange, 5, 0.1, 0.2,
                                           9);
    auto b = timeseries::meanRevertingWalk(100, kRange, 5, 0.1, 0.2,
                                           9);
    EXPECT_EQ(a, b);
}

} // anonymous namespace
} // namespace ulpdp
