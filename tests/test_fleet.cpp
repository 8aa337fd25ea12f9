/**
 * @file
 * Tests for the parallel fleet engine: the bit-exact determinism
 * contract across thread counts and runs, the degenerate-seed guard
 * in the shard seeder, stream independence of adjacent nodes, and the
 * engine's statistical and accounting behaviour.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "fleet/fleet.h"
#include "fleet/seeder.h"
#include "rng/tausworthe.h"

namespace ulpdp {
namespace {

uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Bitwise equality of two double vectors. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (bits(a[i]) != bits(b[i]))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Seeder
// ---------------------------------------------------------------------

TEST(FleetSeeder, NodeSeedsNeverDegenerate)
{
    // Degenerate Tausworthe seeds get silently bumped by the
    // constructor, aliasing two streams; the seeder must never emit
    // one, whatever the master seed.
    for (uint64_t master : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                            ~uint64_t{0}}) {
        FleetSeeder seeder(master);
        for (uint32_t cohort = 0; cohort < 3; ++cohort) {
            for (uint64_t node = 0; node < 2000; ++node) {
                uint64_t s = seeder.nodeSeed(cohort, node);
                EXPECT_NE(s, 0u);
                EXPECT_FALSE(Tausworthe::seedDegenerate(s));
            }
        }
    }
}

TEST(FleetSeeder, SeedsDistinctAcrossNodesAndCohorts)
{
    FleetSeeder seeder(7);
    std::set<uint64_t> seen;
    for (uint32_t cohort = 0; cohort < 4; ++cohort)
        for (uint64_t node = 0; node < 5000; ++node)
            seen.insert(seeder.nodeSeed(cohort, node));
    EXPECT_EQ(seen.size(), 4u * 5000u);
}

TEST(FleetSeeder, SubSeedDecorrelatedFromNodeSeed)
{
    FleetSeeder seeder(7);
    for (uint64_t node = 0; node < 100; ++node) {
        uint64_t base = seeder.nodeSeed(0, node);
        uint64_t sub0 = seeder.nodeSubSeed(0, node, 0);
        uint64_t sub1 = seeder.nodeSubSeed(0, node, 1);
        EXPECT_NE(base, sub0);
        EXPECT_NE(sub0, sub1);
    }
    // Deterministic.
    EXPECT_EQ(seeder.nodeSubSeed(2, 17, 3),
              FleetSeeder(7).nodeSubSeed(2, 17, 3));
}

// The SplitMix64 finalizer is a bijection (two xorshift-multiply
// steps), so it can be inverted to *construct* seeds whose expanded
// component words are degenerate -- random search would need ~2^27
// tries per hit.

uint64_t
mulInverse(uint64_t a)
{
    // Newton iteration doubles the valid low bits each round.
    uint64_t x = a;
    for (int i = 0; i < 6; ++i)
        x *= 2 - a * x;
    return x;
}

uint64_t
invXorShift(uint64_t z, int shift)
{
    uint64_t x = z;
    for (int i = 0; i < 7; ++i)
        x = z ^ (x >> shift);
    return x;
}

/** The SplitMix64 finalizer used by Tausworthe::expandSeed. */
uint64_t
smFinalize(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
smFinalizeInverse(uint64_t z)
{
    z = invXorShift(z, 31);
    z *= mulInverse(0x94d049bb133111ebULL);
    z = invXorShift(z, 27);
    z *= mulInverse(0xbf58476d1ce4e5b9ULL);
    z = invXorShift(z, 30);
    return z;
}

constexpr uint64_t kSmGamma = 0x9e3779b97f4a7c15ULL;

TEST(FleetSeeder, FinalizerInverseRoundTrips)
{
    for (uint64_t z : {uint64_t{1}, uint64_t{0xdeadbeef},
                       uint64_t{0x123456789abcdef0ULL}, ~uint64_t{0}}) {
        EXPECT_EQ(smFinalize(smFinalizeInverse(z)), z);
        EXPECT_EQ(smFinalizeInverse(smFinalize(z)), z);
    }
}

TEST(FleetSeeder, DetectsCraftedDegenerateSeeds)
{
    // Seed whose FIRST expanded word is 0 (< 2): the first SplitMix64
    // output is finalize(seed + gamma), so invert the target.
    uint64_t s1_zero =
        smFinalizeInverse(0xdeadbeef00000000ULL) - kSmGamma;
    uint32_t s1, s2, s3;
    Tausworthe::expandSeed(s1_zero, s1, s2, s3);
    ASSERT_EQ(s1, 0u);
    EXPECT_TRUE(Tausworthe::seedDegenerate(s1_zero));

    // Seed whose SECOND expanded word is 5 (< 8).
    uint64_t s2_five =
        smFinalizeInverse(0x1234567800000005ULL) - 2 * kSmGamma;
    Tausworthe::expandSeed(s2_five, s1, s2, s3);
    ASSERT_EQ(s2, 5u);
    EXPECT_TRUE(Tausworthe::seedDegenerate(s2_five));

    // Seed whose THIRD expanded word is 15 (< 16).
    uint64_t s3_low =
        smFinalizeInverse(0xcafef00d0000000fULL) - 3 * kSmGamma;
    Tausworthe::expandSeed(s3_low, s1, s2, s3);
    ASSERT_EQ(s3, 15u);
    EXPECT_TRUE(Tausworthe::seedDegenerate(s3_low));

    // The constructor bumps exactly these words (the aliasing the
    // seeder exists to avoid): seed zero is also degenerate.
    EXPECT_TRUE(Tausworthe::seedDegenerate(0));

    // An ordinary seed is not degenerate.
    EXPECT_FALSE(Tausworthe::seedDegenerate(1));
    EXPECT_FALSE(Tausworthe::seedDegenerate(42));
}

TEST(FleetSeeder, AdjacentNodeStreamsNoOverlapOverMillionDraws)
{
    // Two adjacent nodes' Tausworthe streams must not collide: a
    // collision means the trajectories merge and stay merged forever
    // (the generators are deterministic), halving the fleet's
    // entropy. Compare full (s1, s2, s3) state triples -- comparing
    // 32-bit outputs would drown in birthday-paradox false positives
    // over 2 x 10^6 draws.
    FleetSeeder seeder(1);
    Tausworthe a(seeder.nodeSeed(0, 0));
    Tausworthe b(seeder.nodeSeed(0, 1));

    const size_t kDraws = 1000000;
    std::vector<std::pair<uint64_t, uint64_t>> states_a;
    states_a.reserve(kDraws);
    for (size_t i = 0; i < kDraws; ++i) {
        states_a.emplace_back(
            (static_cast<uint64_t>(a.s1()) << 32) | a.s2(), a.s3());
        a.next32();
    }
    std::sort(states_a.begin(), states_a.end());

    size_t collisions = 0;
    for (size_t i = 0; i < kDraws; ++i) {
        std::pair<uint64_t, uint64_t> s{
            (static_cast<uint64_t>(b.s1()) << 32) | b.s2(), b.s3()};
        if (std::binary_search(states_a.begin(), states_a.end(), s))
            ++collisions;
        b.next32();
    }
    EXPECT_EQ(collisions, 0u);
}

// ---------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------

FleetConfig
smallFleet()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 99;
    fc.block_nodes = 256; // several blocks per cohort
    CohortConfig thr;
    thr.name = "thr";
    thr.mechanism = CohortMechanism::Thresholding;
    thr.params = p;
    thr.nodes = 2500;
    thr.reports_per_node = 4;
    thr.budget_per_node = 2.5; // 2 fresh reports at 2*eps
    thr.materialize = true;
    thr.analyze_loss = false;
    CohortConfig res;
    res.name = "res";
    res.mechanism = CohortMechanism::Resampling;
    res.params = p;
    res.nodes = 2500;
    res.reports_per_node = 4;
    res.analyze_loss = false;
    fc.cohorts = {thr, res};
    return fc;
}

void
expectIdentical(const FleetReport &x, const FleetReport &y)
{
    EXPECT_EQ(x.fingerprint(), y.fingerprint());
    ASSERT_EQ(x.cohorts.size(), y.cohorts.size());
    for (size_t c = 0; c < x.cohorts.size(); ++c) {
        const CohortResult &a = x.cohorts[c];
        const CohortResult &b = y.cohorts[c];
        EXPECT_EQ(a.checksum, b.checksum);

        // Floating-point aggregates must match to the BIT, not to a
        // tolerance: that is the whole determinism contract.
        EXPECT_EQ(bits(a.released_stats.mean()),
                  bits(b.released_stats.mean()));
        EXPECT_EQ(bits(a.released_stats.variance()),
                  bits(b.released_stats.variance()));
        EXPECT_EQ(bits(a.error_stats.mean()),
                  bits(b.error_stats.mean()));
        EXPECT_EQ(bits(a.mean_mae), bits(b.mean_mae));
        EXPECT_TRUE(sameBits(a.trial_estimate, b.trial_estimate));
        EXPECT_TRUE(sameBits(a.matrix, b.matrix));

        ASSERT_EQ(a.released_hist.numBins(),
                  b.released_hist.numBins());
        for (size_t i = 0; i < a.released_hist.numBins(); ++i)
            EXPECT_EQ(a.released_hist.count(i),
                      b.released_hist.count(i));
        EXPECT_EQ(a.released_hist.underflow(),
                  b.released_hist.underflow());
        EXPECT_EQ(a.released_hist.overflow(),
                  b.released_hist.overflow());

        EXPECT_EQ(a.samples_drawn, b.samples_drawn);
        EXPECT_EQ(a.resample_overflows, b.resample_overflows);
        EXPECT_EQ(a.fresh_reports, b.fresh_reports);
        EXPECT_EQ(a.cache_replays, b.cache_replays);
        EXPECT_EQ(a.nodes_exhausted, b.nodes_exhausted);
        EXPECT_EQ(a.rng_integrity_detections,
                  b.rng_integrity_detections);
    }
}

TEST(FleetDeterminism, BitIdenticalAcrossThreadCounts)
{
    FleetRunner runner(smallFleet());
    FleetReport one = runner.run(1);
    FleetReport three = runner.run(3);
    FleetReport eight = runner.run(8);
    expectIdentical(one, three);
    expectIdentical(one, eight);
}

TEST(FleetDeterminism, BitIdenticalAcrossSameSeedRuns)
{
    FleetRunner first(smallFleet());
    FleetRunner second(smallFleet());
    expectIdentical(first.run(3), second.run(8));
}

TEST(FleetDeterminism, DifferentMasterSeedDiffers)
{
    FleetConfig fc = smallFleet();
    FleetRunner a(fc);
    fc.master_seed = 100;
    FleetRunner b(fc);
    EXPECT_NE(a.run(2).fingerprint(), b.run(2).fingerprint());
}

// ---------------------------------------------------------------------
// Engine behaviour
// ---------------------------------------------------------------------

TEST(FleetEngine, EstimateTracksTruthAndWindowHolds)
{
    FleetConfig fc = smallFleet();
    fc.cohorts[0].nodes = 20000;
    fc.cohorts[0].budget_per_node = 0.0; // no metering
    fc.cohorts[0].materialize = false;
    fc.cohorts.resize(1);
    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &c = rep.cohorts[0];

    EXPECT_EQ(c.nodes, 20000u);
    EXPECT_EQ(c.reports, 20000u * 4u);
    EXPECT_EQ(c.true_stats.count(), 20000u);
    EXPECT_EQ(c.fresh_reports, c.reports);
    EXPECT_EQ(c.cache_replays, 0u);
    EXPECT_EQ(c.nodes_exhausted, 0u);
    EXPECT_EQ(c.samples_drawn, c.reports);

    // Synthetic data defaults to the range center; the mean estimate
    // over 80k thresholded reports should sit close to the truth.
    EXPECT_NEAR(c.trueMean(), 5.0, 0.1);
    EXPECT_NEAR(c.estimatedMean(), c.trueMean(), 0.5);

    // Thresholding confines every release to the clamp window, which
    // is exactly the histogram's binned range.
    EXPECT_EQ(c.released_hist.underflow(), 0u);
    EXPECT_EQ(c.released_hist.overflow(), 0u);
    EXPECT_EQ(c.released_hist.total(), c.reports);

    // Ordered merge: every trial estimate is a real number near the
    // truth, and mean_mae summarises them.
    ASSERT_EQ(c.trial_estimate.size(), 4u);
    for (double e : c.trial_estimate)
        EXPECT_NEAR(e, c.trueMean(), 0.5);
    EXPECT_GE(c.mean_mae, 0.0);
}

TEST(FleetEngine, BudgetMeteringCountsFreshAndReplayed)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.nodes = 1000;
    c.reports_per_node = 5;
    // Worst-case charge is loss_multiple * eps = 1.0 per fresh
    // report; a budget of 2.1 affords exactly 2 of the 5.
    c.budget_per_node = 2.1;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    EXPECT_EQ(r.fresh_reports, 1000u * 2u);
    EXPECT_EQ(r.cache_replays, 1000u * 3u);
    EXPECT_EQ(r.nodes_exhausted, 1000u);
    EXPECT_EQ(r.reports, 1000u * 5u);
    // Replays draw no randomness.
    EXPECT_EQ(r.samples_drawn, r.fresh_reports);
}

TEST(FleetEngine, DatasetReplayUsesProvidedValues)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.budget_per_node = 0.0;
    c.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
    c.nodes = 3; // ignored when values are given
    c.reports_per_node = 10;
    c.materialize = true;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    EXPECT_EQ(r.nodes, 8u);
    EXPECT_EQ(r.true_stats.count(), 8u);
    EXPECT_DOUBLE_EQ(r.trueMean(), 4.5);
    EXPECT_DOUBLE_EQ(r.true_stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(r.true_stats.max(), 8.0);
}

/** Grid sums of the matrix cells [lo, hi) through llround(v / delta),
 *  as offsets from @p origin. */
GridSums
matrixSums(const std::vector<double> &m, size_t lo, size_t hi,
           int64_t origin, double delta)
{
    GridSums g;
    for (size_t i = lo; i < hi; ++i)
        g.add(static_cast<uint64_t>(std::llround(m[i] / delta) - origin));
    return g;
}

/** @p h plus every value of @p xs, added one at a time. */
Histogram
plusEach(Histogram h, const std::vector<double> &xs)
{
    h.addAll(xs);
    return h;
}

/** Bins of @p twice are exactly double those of @p once: the values
 *  added on top bin exactly as the ones @p once already holds. */
void
expectDoubledBins(const Histogram &twice, const Histogram &once)
{
    for (size_t i = 0; i < once.numBins(); ++i)
        EXPECT_EQ(twice.count(i), 2 * once.count(i)) << "bin " << i;
    EXPECT_EQ(twice.underflow(), 2 * once.underflow());
    EXPECT_EQ(twice.overflow(), 2 * once.overflow());
}

TEST(FleetEngine, MaterializedMatrixMatchesStreamingAggregates)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    const size_t nodes = 1500;
    c.values.resize(nodes);
    for (size_t i = 0; i < nodes; ++i)
        c.values[i] = 10.0 * static_cast<double>((i * 37) % nodes) / nodes;
    c.reports_per_node = 3;
    c.budget_per_node = 0.0;
    c.materialize = true;
    const double delta = c.params.delta;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    ASSERT_EQ(r.matrix.size(), nodes * 3u);

    // Every cell was written, on its grid point (all values are in
    // the clamp window, far from the 0.0 fill).
    int64_t origin = INT64_MAX;
    for (double v : r.matrix) {
        const int64_t i = std::llround(v / delta);
        ASSERT_EQ(bits(v), bits(static_cast<double>(i) * delta));
        origin = std::min(origin, i);
    }

    // The derived aggregates equal the same exact integer formula over
    // the matrix bit for bit, and the histogram equals per-report
    // binning of the matrix.
    for (uint32_t t = 0; t < 3; ++t) {
        RunningStats row = RunningStats::fromGrid(
            matrixSums(r.matrix, t * nodes, (t + 1) * nodes, origin,
                       delta),
            origin, delta);
        EXPECT_EQ(bits(r.trial_estimate[t]), bits(row.mean()));
    }
    RunningStats all = RunningStats::fromGrid(
        matrixSums(r.matrix, 0, r.matrix.size(), origin, delta), origin,
        delta);
    EXPECT_EQ(bits(r.released_stats.mean()), bits(all.mean()));
    EXPECT_EQ(bits(r.released_stats.variance()), bits(all.variance()));
    expectDoubledBins(plusEach(r.released_hist, r.matrix),
                      r.released_hist);

    // A per-report Welford oracle, in (node, trial) order.
    RunningStats released, error;
    for (size_t n = 0; n < nodes; ++n) {
        for (uint32_t t = 0; t < 3; ++t) {
            const double v = r.matrix[t * nodes + n];
            released.add(v);
            error.add(v - c.values[n]);
        }
    }
    EXPECT_EQ(r.released_stats.count(), released.count());
    EXPECT_EQ(bits(r.released_stats.min()), bits(released.min()));
    EXPECT_EQ(bits(r.released_stats.max()), bits(released.max()));
    EXPECT_EQ(r.error_stats.count(), error.count());
    EXPECT_EQ(bits(r.error_stats.min()), bits(error.min()));
    EXPECT_EQ(bits(r.error_stats.max()), bits(error.max()));
    // Means to 1e-12 of the range length (an error mean sits near 0),
    // variances to 1e-12 relative.
    const double kRel = 1e-12;
    EXPECT_NEAR(r.released_stats.mean(), released.mean(), kRel * 10.0);
    EXPECT_NEAR(r.error_stats.mean(), error.mean(), kRel * 10.0);
    EXPECT_NEAR(r.released_stats.variance(), released.variance(),
                kRel * released.variance());
    EXPECT_NEAR(r.error_stats.variance(), error.variance(),
                kRel * error.variance());
}

TEST(FleetEngine, GridMomentsExactAtPopulationScale)
{
    // 1e7 nodes x 256 trials, half the reports on each edge of the
    // reference window: the largest offset at the largest count. The
    // 128-bit sums stay exact, so the moments are the closed forms.
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    fc.cohorts[0].agg.enabled = true;
    FleetReport rep = FleetRunner(fc).run(1);
    const agg::CohortSketch &sk = rep.cohorts[0].agg->sketch;
    const double delta = fc.cohorts[0].params.delta;
    const int64_t origin = std::llround(sk.slotValue(0) / delta);
    const uint64_t top = sk.span() - 1;
    const uint64_t n = uint64_t{10000000} * 256;

    GridSums edges;
    edges.add(0, n / 2);
    edges.add(top, n / 2);
    RunningStats r = RunningStats::fromGrid(edges, origin, delta);
    const double a = static_cast<double>(origin) * delta;
    const double b =
        static_cast<double>(origin + static_cast<int64_t>(top)) * delta;
    EXPECT_EQ(r.count(), n);
    EXPECT_EQ(bits(r.min()), bits(a));
    EXPECT_EQ(bits(r.max()), bits(b));
    EXPECT_DOUBLE_EQ(r.mean(), 0.5 * (a + b));
    EXPECT_DOUBLE_EQ(r.variance(), 0.25 * (b - a) * (b - a));

    GridSums at_top;
    at_top.add(top, n);
    RunningStats t = RunningStats::fromGrid(at_top, origin, delta);
    EXPECT_EQ(bits(t.mean()), bits(b));
    EXPECT_EQ(t.variance(), 0.0);
}

TEST(FleetEngine, OffGridMidpointReplaysOnTheGrid)
{
    // Range [0, 33 Delta]: the midpoint 16.5 Delta is off the grid.
    // Before its first fresh report a node replays the grid midpoint
    // (the DP-Box's (lo + hi) / 2 index), so every release is on the
    // grid and the agg slots are exactly the released histogram.
    FleetConfig fc = smallFleet();
    const double delta = fc.cohorts[0].params.delta;
    for (CohortConfig &c : fc.cohorts) {
        c.params.range = SensorRange(0.0, 33 * delta);
        c.nodes = 600;
        c.reports_per_node = 3;
        c.materialize = true;
        c.agg.enabled = true;
    }
    fc.cohorts[0].budget_per_node = 0.1; // below one charge: no fresh
    FleetReport rep = FleetRunner(fc).run(2);
    EXPECT_EQ(rep.cohorts[0].fresh_reports, 0u);
    for (double v : rep.cohorts[0].matrix)
        ASSERT_EQ(bits(v), bits(16 * delta));

    for (const CohortResult &r : rep.cohorts) {
        SCOPED_TRACE(r.name);
        ASSERT_TRUE(r.agg != nullptr);
        const agg::CohortSketch &sk = r.agg->sketch;
        const int64_t origin = std::llround(sk.slotValue(0) / delta);
        std::vector<uint64_t> from_matrix(sk.span(), 0);
        for (double v : r.matrix) {
            const int64_t i = std::llround(v / delta);
            ASSERT_EQ(bits(v), bits(static_cast<double>(i) * delta));
            ++from_matrix.at(static_cast<size_t>(i - origin));
        }
        EXPECT_EQ(sk.slotTotals(), from_matrix);
        std::vector<double> slot_values;
        for (size_t s = 0; s < sk.span(); ++s)
            slot_values.insert(slot_values.end(), sk.slotTotals()[s],
                               sk.slotValue(s));
        expectDoubledBins(plusEach(r.released_hist, slot_values),
                          r.released_hist);
    }
}

TEST(FleetEngine, IdealCohortIsLdpAtEpsilon)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.mechanism = CohortMechanism::Ideal;
    c.nodes = 500;
    c.budget_per_node = 0.0;
    c.analyze_loss = true;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    EXPECT_TRUE(r.ldp);
    EXPECT_DOUBLE_EQ(r.worst_loss, 0.5);
    EXPECT_EQ(r.mechanism, CohortMechanism::Ideal);
}

TEST(FleetEngine, LossAnalysisMatchesMechanismClass)
{
    // With the exact analysis on, the naive cohort is flagged non-LDP
    // (unbounded loss) while both range-controlled cohorts satisfy
    // the 2*eps bound -- the paper's core claim, now at fleet scale.
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 5;
    auto makeCohort = [&](CohortMechanism m) {
        CohortConfig c;
        c.mechanism = m;
        c.params = p;
        c.nodes = 64;
        c.reports_per_node = 1;
        c.analyze_loss = true;
        return c;
    };
    fc.cohorts = {makeCohort(CohortMechanism::Naive),
                  makeCohort(CohortMechanism::Resampling),
                  makeCohort(CohortMechanism::Thresholding)};
    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    EXPECT_FALSE(rep.cohorts[0].ldp);
    EXPECT_TRUE(std::isinf(rep.cohorts[0].worst_loss));
    EXPECT_TRUE(rep.cohorts[1].ldp);
    EXPECT_LE(rep.cohorts[1].worst_loss, 1.0 + 1e-9);
    EXPECT_TRUE(rep.cohorts[2].ldp);
    EXPECT_LE(rep.cohorts[2].worst_loss, 1.0 + 1e-9);
}

TEST(FleetEngine, ThreadZeroSelectsHardware)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    fc.cohorts[0].nodes = 300;
    FleetRunner runner(fc);
    FleetReport rep = runner.run(0);
    EXPECT_GE(rep.threads, 1u);
    EXPECT_GT(rep.total_reports, 0u);
    EXPECT_GT(rep.reportsPerSecond(), 0.0);
}

// ---------------------------------------------------------------------
// Persistent-pool / work-stealing stress (TSan-clean by construction:
// the fleet-smoke CI job runs this file under ULPDP_SANITIZE=thread)
// ---------------------------------------------------------------------

/** Restores the process-wide scalar-block switch on scope exit so a
 *  failing assertion cannot leak forced-scalar mode into later
 *  tests. */
struct ScopedForceScalar
{
    explicit ScopedForceScalar(bool on)
    {
        FleetRunner::forceScalarBlocks(on);
    }
    ~ScopedForceScalar() { FleetRunner::forceScalarBlocks(false); }
};

/**
 * Ragged fleet: node counts that are multiples of neither the
 * scheduling block size nor the 16-lane batch width, a block size
 * that is itself not a lane multiple, and cohorts of very different
 * sizes so the static per-worker queue split is lopsided and the
 * stealing path must run.
 */
FleetConfig
raggedFleet()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 1234;
    fc.block_nodes = 83; // prime: never a multiple of 16 lanes
    auto makeCohort = [&](const char *name, CohortMechanism m,
                          uint64_t nodes, uint32_t reports) {
        CohortConfig c;
        c.name = name;
        c.mechanism = m;
        c.params = p;
        c.nodes = nodes;
        c.reports_per_node = reports;
        c.analyze_loss = false;
        return c;
    };
    fc.cohorts = {
        makeCohort("thr", CohortMechanism::Thresholding, 997, 3),
        makeCohort("res", CohortMechanism::Resampling, 2503, 2),
        makeCohort("tiny", CohortMechanism::Thresholding, 7, 5),
        makeCohort("ideal", CohortMechanism::Ideal, 61, 1),
        makeCohort("blap", CohortMechanism::Thresholding, 389, 3),
        makeCohort("dlap", CohortMechanism::Thresholding, 211, 2),
        makeCohort("naive", CohortMechanism::Naive, 131, 2),
        makeCohort("broke", CohortMechanism::Thresholding, 53, 4),
    };
    // Registry-lowered truncated cohorts, selected by name: forced
    // scalar mode sends them down the per-draw confined path.
    fc.cohorts[4].mechanism_name = "bounded-laplace";
    fc.cohorts[5].mechanism_name = "discrete-laplace";
    // A budget below one report's charge: no fresh report at all, so
    // every report replays the range midpoint.
    fc.cohorts[7].budget_per_node = 0.1;
    fc.cohorts[7].materialize = true;
    return fc;
}

TEST(FleetStress, RaggedCohortsBitExactAcrossThreadCounts)
{
    FleetRunner runner(raggedFleet());
    FleetReport base = runner.run(1);
    for (unsigned threads : {2u, 3u, 8u, 16u}) {
        FleetReport rep = runner.run(threads);
        SCOPED_TRACE(threads);
        expectIdentical(base, rep);
    }
}

TEST(FleetStress, RepeatedEpochsOnOneRunnerReuseParkedPool)
{
    // Many epochs on ONE runner instance, alternating thread counts
    // up and down: the pool must wake exactly the requested worker
    // set each epoch, leave the surplus parked, and never leave a
    // stale job visible to a parked thread (a UAF here is what TSan
    // and ASan watch for -- the job lambda dies with each run()).
    FleetRunner runner(raggedFleet());
    FleetReport base = runner.run(8);
    for (unsigned threads : {1u, 16u, 2u, 8u, 3u, 1u, 16u}) {
        FleetReport rep = runner.run(threads);
        SCOPED_TRACE(threads);
        EXPECT_EQ(rep.fingerprint(), base.fingerprint());
    }
    expectIdentical(base, runner.run(8));
}

TEST(FleetStress, ForcedScalarMatchesBatchedUnderStealing)
{
    // The work-stealing path must be bit-exact in both execution
    // modes, and the two modes must agree with each other -- the
    // batch layer's core contract, now exercised through ragged
    // steal-heavy schedules instead of the uniform smallFleet().
    FleetRunner runner(raggedFleet());
    FleetReport batched = runner.run(8);
    {
        ScopedForceScalar forced(true);
        FleetReport scalar8 = runner.run(8);
        FleetReport scalar3 = runner.run(3);
        expectIdentical(batched, scalar8);
        expectIdentical(batched, scalar3);
    }
    // And back: leaving forced-scalar mode restores the batch path
    // with the same merged bits.
    expectIdentical(batched, runner.run(16));
}

TEST(FleetStress, RunnersAreIndependentAfterTeardown)
{
    // Runners own no threads: the shared pool's parked threads
    // outlive a destroyed runner and must never touch its freed
    // queues or job, and a fresh runner dispatching on the same
    // threads must reproduce the same report from scratch.
    uint64_t fp_first = 0;
    {
        FleetRunner runner(raggedFleet());
        fp_first = runner.run(8).fingerprint();
    } // the pool's threads park on, holding no reference to runner
    FleetRunner again(raggedFleet());
    EXPECT_EQ(again.run(16).fingerprint(), fp_first);
    EXPECT_EQ(again.run(1).fingerprint(), fp_first);
}

TEST(FleetStress, BudgetedRaggedCohortsReplayDeterministically)
{
    // Replay bookkeeping (exhausted nodes, cache replays) must also
    // be schedule-independent on the stealing path.
    FleetConfig fc = raggedFleet();
    fc.cohorts[0].budget_per_node = 2.1; // 2 of 3 reports fresh
    fc.cohorts[1].budget_per_node = 1.0; // 1 of 2 reports fresh
    FleetRunner runner(fc);
    FleetReport one = runner.run(1);
    FleetReport many = runner.run(16);
    expectIdentical(one, many);
    EXPECT_EQ(one.cohorts[0].nodes_exhausted, 997u);
    EXPECT_EQ(one.cohorts[0].cache_replays, 997u);
    EXPECT_EQ(one.cohorts[1].nodes_exhausted, 2503u);
    EXPECT_EQ(one.cohorts[1].cache_replays, 2503u);

    const CohortResult &broke = one.cohorts[7];
    EXPECT_EQ(broke.fresh_reports, 0u);
    EXPECT_EQ(broke.cache_replays, 53u * 4u);
    EXPECT_EQ(broke.samples_drawn, 0u);
    ASSERT_EQ(broke.matrix.size(), 53u * 4u);
    for (double v : broke.matrix)
        EXPECT_EQ(v, 5.0);
}

// ---------------------------------------------------------------------
// Mechanism registry integration
// ---------------------------------------------------------------------

TEST(FleetRegistry, NamedSelectionIsFingerprintImmune)
{
    // Selecting the legacy pair by registry name must route through
    // the registered lowering and still produce the bit-identical
    // report of the hard-wired enum path: the registry is a
    // dispatcher, not a behaviour change.
    FleetConfig by_enum = smallFleet();
    FleetConfig by_name = smallFleet();
    by_name.cohorts[0].mechanism_name = "thresholding";
    by_name.cohorts[1].mechanism_name = "resampling";

    FleetRunner a(by_enum);
    FleetRunner b(by_name);
    expectIdentical(a.run(4), b.run(4));
}

TEST(FleetRegistry, NamedSelectionNormalizesResultEnum)
{
    FleetConfig fc = smallFleet();
    fc.cohorts[0].mechanism_name = "resampling"; // overrides the enum
    FleetRunner runner(fc);
    FleetReport rep = runner.run(2);
    EXPECT_EQ(rep.cohorts[0].mechanism, CohortMechanism::Resampling);
    EXPECT_EQ(rep.cohorts[0].mechanism_label, "Resampling");
    EXPECT_EQ(rep.cohorts[1].mechanism_label, "Resampling");
}

TEST(FleetRegistry, BoundedCohortConfinesOutputsAndIsLdp)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.name = "bounded";
    c.mechanism_name = "bounded-laplace";
    c.nodes = 2000;
    c.budget_per_node = 0.0;
    c.analyze_loss = true;
    c.materialize = true;

    FleetRunner runner(fc);
    FleetReport rep = runner.run(4);
    const CohortResult &res = rep.cohorts[0];
    EXPECT_EQ(res.mechanism, CohortMechanism::BoundedLaplace);
    EXPECT_TRUE(res.ldp);
    EXPECT_LE(res.worst_loss, 2.0 * c.params.epsilon + 1e-9);
    // T = 0: every materialized report stays inside the sensor range.
    for (double y : res.matrix) {
        EXPECT_GE(y, c.params.range.lo);
        EXPECT_LE(y, c.params.range.hi);
    }
    // Determinism holds for registry-selected mechanisms too.
    FleetRunner again(fc);
    expectIdentical(rep, again.run(1));
}

TEST(FleetRegistry, DiscreteCohortTracksResamplingUtility)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(2);
    fc.cohorts[0].name = "res";
    fc.cohorts[0].mechanism = CohortMechanism::Resampling;
    fc.cohorts[0].budget_per_node = 0.0;
    fc.cohorts[0].nodes = 20000;
    fc.cohorts[0].analyze_loss = true;
    fc.cohorts[1] = fc.cohorts[0];
    fc.cohorts[1].name = "disc";
    fc.cohorts[1].mechanism = CohortMechanism::DiscreteLaplace;

    FleetRunner runner(fc);
    FleetReport rep = runner.run(4);
    const CohortResult &res = rep.cohorts[0];
    const CohortResult &disc = rep.cohorts[1];
    EXPECT_TRUE(disc.ldp);
    EXPECT_EQ(disc.mechanism_label, "Discrete Laplace");
    // The Floor pipeline's doubled zero atom costs ln 2 of loss,
    // paid for by scale inflation: utility is worse than resampling
    // but by a bounded factor, not a different regime.
    EXPECT_GT(disc.mean_mae, 0.5 * res.mean_mae);
    EXPECT_LT(disc.mean_mae, 6.0 * res.mean_mae + 0.05);
}

} // anonymous namespace
} // namespace ulpdp
