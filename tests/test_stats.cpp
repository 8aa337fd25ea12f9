/**
 * @file
 * Unit tests for streaming and batch statistics.
 */

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace ulpdp {
namespace {

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample)
{
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownSequence)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // classic textbook example
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.variance(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 1.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    std::mt19937_64 rng(7);
    std::normal_distribution<double> dist(5.0, 2.0);

    RunningStats all;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 1000; ++i) {
        double v = dist(rng);
        all.add(v);
        (i < 300 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsNoop)
{
    RunningStats a;
    a.add(1.0);
    a.add(2.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 1.5);

    RunningStats c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

TEST(RunningStats, ResetClears)
{
    RunningStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(BatchStats, MeanOfKnownVector)
{
    EXPECT_DOUBLE_EQ(batch::mean({1.0, 2.0, 3.0, 4.0}), 2.5);
    EXPECT_DOUBLE_EQ(batch::mean({}), 0.0);
}

TEST(BatchStats, VarianceOfKnownVector)
{
    EXPECT_DOUBLE_EQ(batch::variance({2, 4, 4, 4, 5, 5, 7, 9}), 4.0);
    EXPECT_DOUBLE_EQ(batch::stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0);
}

TEST(BatchStats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(batch::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(batch::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(batch::median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(batch::median({}), 0.0);
}

TEST(BatchStats, MedianDoesNotMutateCaller)
{
    std::vector<double> v{3.0, 1.0, 2.0};
    batch::median(v);
    EXPECT_EQ(v[0], 3.0);
    EXPECT_EQ(v[1], 1.0);
}

TEST(BatchStats, PercentileEndpointsAndMiddle)
{
    std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(batch::percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 50.0), 30.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 25.0), 20.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 12.5), 15.0); // interpolated
}

TEST(BatchStats, MeanAbsError)
{
    EXPECT_DOUBLE_EQ(
        batch::meanAbsError({1.0, 2.0, 3.0}, {2.0, 2.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(batch::meanAbsError({}, {}), 0.0);
}

TEST(RunningStats, FromGridMatchesLoop)
{
    // 1000 samples at 3.25 and one at -1.5, on the 0.25 grid from -1.5.
    RunningStats looped;
    for (int i = 0; i < 1000; ++i)
        looped.add(3.25);
    looped.add(-1.5);
    GridSums g;
    g.add(19, 1000);
    g.add(0);
    RunningStats counted = RunningStats::fromGrid(g, -6, 0.25);
    EXPECT_EQ(counted.count(), looped.count());
    EXPECT_DOUBLE_EQ(counted.mean(), looped.mean());
    EXPECT_NEAR(counted.variance(), looped.variance(), 1e-9);
    EXPECT_EQ(counted.min(), looped.min());
    EXPECT_EQ(counted.max(), looped.max());

    // A shift moves the samples, not their spread.
    RunningStats shifted = RunningStats::fromGrid(g, -6, 0.25, 1.0);
    EXPECT_DOUBLE_EQ(shifted.mean(), looped.mean() - 1.0);
    EXPECT_EQ(shifted.variance(), counted.variance());
    EXPECT_EQ(shifted.min(), -2.5);
}

TEST(RunningStats, CountSurvivesPastFourBillion)
{
    // A 1e7-node fleet at hundreds of reports per node exceeds
    // uint32; the accumulator must count in 64 bits. Grid counts make
    // the boundary reachable in O(1).
    GridSums g;
    g.add(0, (uint64_t{1} << 32) + 5);
    g.add(2, (uint64_t{1} << 32) + 5);
    RunningStats s = RunningStats::fromGrid(g, 1, 1.0);
    EXPECT_EQ(s.count(), (uint64_t{1} << 33) + 10);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_NEAR(s.variance(), 1.0, 1e-9);

    // Merging two half-populations crosses the boundary the same way.
    GridSums half;
    half.add(0, uint64_t{3} << 31);
    RunningStats a = RunningStats::fromGrid(half, 5, 1.0);
    a.merge(RunningStats::fromGrid(half, 5, 1.0));
    EXPECT_EQ(a.count(), uint64_t{3} << 32);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

} // anonymous namespace
} // namespace ulpdp
