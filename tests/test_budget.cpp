/**
 * @file
 * Tests for the Fig. 8 loss segmentation and the Algorithm 1 budget
 * controller (caching, exhaustion, replenishment, adaptive charging).
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/budget.h"
#include "dpbox/driver.h"
#include "fleet/fleet.h"

namespace ulpdp {
namespace {

FxpMechanismParams
testParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    return p;
}

std::vector<BudgetSegment>
testSegments(const FxpMechanismParams &p, RangeControl kind)
{
    ThresholdCalculator calc(p);
    return LossSegments::compute(calc, kind, {1.5, 2.0, 3.0});
}

TEST(LossSegments, StructureIsSane)
{
    FxpMechanismParams p = testParams();
    auto segs = testSegments(p, RangeControl::Thresholding);
    ASSERT_GE(segs.size(), 2u);
    EXPECT_EQ(segs.front().threshold_index, 0);
    for (size_t i = 1; i < segs.size(); ++i) {
        EXPECT_GT(segs[i].threshold_index, segs[i - 1].threshold_index);
        EXPECT_GE(segs[i].loss, segs[i - 1].loss);
    }
}

TEST(LossSegments, LossesRespectTheLevels)
{
    FxpMechanismParams p = testParams();
    ThresholdCalculator calc(p);
    auto segs = LossSegments::compute(calc, RangeControl::Resampling,
                                      {1.5, 2.0, 3.0});
    std::vector<double> levels{1.5, 2.0, 3.0};
    // Outer segments (beyond the central one) obey their levels.
    for (size_t i = 1; i < segs.size(); ++i)
        EXPECT_LE(segs[i].loss, levels[i - 1] * p.epsilon + 1e-9);
}

TEST(LossSegments, CentralLossNearEpsilon)
{
    FxpMechanismParams p = testParams();
    ThresholdCalculator calc(p);
    double central = LossSegments::centralLoss(
        calc, RangeControl::Resampling);
    EXPECT_GT(central, 0.0);
    EXPECT_LT(central, 1.5 * p.epsilon);
}

TEST(LossSegments, RejectsBadLevels)
{
    FxpMechanismParams p = testParams();
    ThresholdCalculator calc(p);
    EXPECT_THROW(LossSegments::compute(calc,
                                       RangeControl::Thresholding, {}),
                 FatalError);
    EXPECT_THROW(LossSegments::compute(
                     calc, RangeControl::Thresholding, {0.9}),
                 FatalError);
    EXPECT_THROW(LossSegments::compute(
                     calc, RangeControl::Thresholding, {2.0, 1.5}),
                 FatalError);
}

BudgetControllerConfig
makeConfig(const FxpMechanismParams &p, double budget,
           RangeControl kind, uint64_t replenish = 0)
{
    BudgetControllerConfig cfg;
    cfg.initial_budget = budget;
    cfg.replenish_period = replenish;
    cfg.kind = kind;
    cfg.segments = testSegments(p, kind);
    return cfg;
}

TEST(BudgetController, RejectsBadConfig)
{
    FxpMechanismParams p = testParams();
    BudgetControllerConfig cfg =
        makeConfig(p, 5.0, RangeControl::Thresholding);
    cfg.initial_budget = 0.0;
    EXPECT_THROW(BudgetController(p, cfg), FatalError);

    cfg = makeConfig(p, 5.0, RangeControl::Thresholding);
    cfg.segments.clear();
    EXPECT_THROW(BudgetController(p, cfg), FatalError);

    cfg = makeConfig(p, 5.0, RangeControl::Thresholding);
    std::swap(cfg.segments.front(), cfg.segments.back());
    EXPECT_THROW(BudgetController(p, cfg), FatalError);
}

TEST(BudgetController, ChargesPerRequest)
{
    FxpMechanismParams p = testParams();
    BudgetController ctrl(p,
                          makeConfig(p, 5.0,
                                     RangeControl::Thresholding));
    double before = ctrl.remainingBudget();
    BudgetResponse r = ctrl.request(5.0);
    EXPECT_FALSE(r.from_cache);
    EXPECT_GT(r.charged, 0.0);
    EXPECT_EQ(ctrl.remainingBudget(), before - r.charged);
    EXPECT_EQ(ctrl.freshReports(), 1u);
}

TEST(BudgetController, OutputsConfinedToOuterWindow)
{
    FxpMechanismParams p = testParams();
    auto cfg = makeConfig(p, 1e9, RangeControl::Thresholding);
    BudgetController ctrl(p, cfg);
    double ext = static_cast<double>(
                     cfg.segments.back().threshold_index) *
                 p.resolvedDelta();
    for (int i = 0; i < 5000; ++i) {
        double y = ctrl.request(5.0).value;
        EXPECT_GE(y, 0.0 - ext - 1e-9);
        EXPECT_LE(y, 10.0 + ext + 1e-9);
    }
}

TEST(BudgetController, AdaptiveChargingUsesSegments)
{
    // With enough requests both central (cheap) and boundary
    // (expensive) charges must occur.
    FxpMechanismParams p = testParams();
    auto cfg = makeConfig(p, 1e9, RangeControl::Thresholding);
    BudgetController ctrl(p, cfg);
    std::set<int64_t> charges_seen;
    for (int i = 0; i < 20000; ++i) {
        BudgetResponse r = ctrl.request(5.0);
        charges_seen.insert(
            static_cast<int64_t>(std::llround(r.charged * 1e9)));
    }
    EXPECT_GE(charges_seen.size(), 2u);
}

TEST(BudgetController, ExhaustionServesCache)
{
    FxpMechanismParams p = testParams();
    BudgetController ctrl(p,
                          makeConfig(p, 2.0,
                                     RangeControl::Thresholding));
    double last_fresh = 0.0;
    bool exhausted = false;
    double cached_value = 0.0;
    for (int i = 0; i < 100; ++i) {
        BudgetResponse r = ctrl.request(5.0);
        if (!r.from_cache) {
            last_fresh = r.value;
        } else {
            if (!exhausted) {
                exhausted = true;
                cached_value = r.value;
                EXPECT_DOUBLE_EQ(r.value, last_fresh);
                EXPECT_DOUBLE_EQ(r.charged, 0.0);
            } else {
                // The cache must replay the same value forever.
                EXPECT_DOUBLE_EQ(r.value, cached_value);
            }
        }
    }
    EXPECT_TRUE(exhausted);
    EXPECT_GT(ctrl.cacheHits(), 0u);
}

TEST(BudgetController, TotalChargedNeverExceedsBudget)
{
    FxpMechanismParams p = testParams();
    BudgetController ctrl(p,
                          makeConfig(p, 3.0, RangeControl::Resampling));
    double total = 0.0;
    for (int i = 0; i < 200; ++i)
        total += ctrl.request(7.0).charged;
    EXPECT_LE(total, 3.0);
    EXPECT_GE(ctrl.remainingBudget(), 0.0);
}

TEST(BudgetController, ResamplingModeDrawsExtraSamples)
{
    FxpMechanismParams p = testParams();
    // The naive reference pipeline redraws on rejection; pin it so
    // the accept-reject loop itself stays covered.
    p.sample_path = FxpLaplaceConfig::SamplePath::Naive;
    // Tight outer window to force resampling. Build custom segments:
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = 1e9;
    cfg.kind = RangeControl::Resampling;
    cfg.segments = LossSegments::compute(calc, cfg.kind, {1.2, 1.5});
    BudgetController ctrl(p, cfg);

    uint64_t total_samples = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        total_samples += ctrl.request(0.0).samples_drawn;
    EXPECT_GT(total_samples, static_cast<uint64_t>(n));
}

TEST(BudgetController, FastPathResamplesInOneDraw)
{
    // The table fast path serves the accept-reject conditional by
    // truncated direct inversion: exactly one sample per report, and
    // every output stays inside the window.
    FxpMechanismParams p = testParams();
    ASSERT_EQ(p.sample_path, FxpLaplaceConfig::SamplePath::Auto);
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = 1e9;
    cfg.kind = RangeControl::Resampling;
    cfg.segments = LossSegments::compute(calc, cfg.kind, {1.2, 1.5});
    BudgetController ctrl(p, cfg);

    double ext = static_cast<double>(
                     cfg.segments.back().threshold_index) *
                 p.resolvedDelta();
    for (int i = 0; i < 3000; ++i) {
        BudgetResponse r = ctrl.request(0.0);
        EXPECT_EQ(r.samples_drawn, 1u);
        EXPECT_GE(r.value, 0.0 - ext - 1e-9);
        EXPECT_LE(r.value, 10.0 + ext + 1e-9);
    }
    EXPECT_EQ(ctrl.resampleOverflows(), 0u);
}

TEST(BudgetController, ReplenishmentRestoresBudget)
{
    FxpMechanismParams p = testParams();
    BudgetController ctrl(
        p, makeConfig(p, 1.5, RangeControl::Thresholding, 1000));
    // Exhaust.
    for (int i = 0; i < 50; ++i)
        ctrl.request(5.0);
    EXPECT_GT(ctrl.cacheHits(), 0u);
    double drained = ctrl.remainingBudget();

    ctrl.advanceTime(1000);
    EXPECT_GT(ctrl.remainingBudget(), drained);
    BudgetResponse r = ctrl.request(5.0);
    EXPECT_FALSE(r.from_cache);
}

TEST(BudgetController, NoReplenishWhenDisabled)
{
    FxpMechanismParams p = testParams();
    BudgetController ctrl(
        p, makeConfig(p, 1.0, RangeControl::Thresholding, 0));
    for (int i = 0; i < 30; ++i)
        ctrl.request(5.0);
    double drained = ctrl.remainingBudget();
    ctrl.advanceTime(1u << 20);
    EXPECT_DOUBLE_EQ(ctrl.remainingBudget(), drained);
}

TEST(BudgetController, HaltedRequestConsumesNoRandomness)
{
    // Algorithm 1 halts *before* sampling: a request the budget
    // cannot cover must leave the URNG state and the sample counter
    // untouched (the seed bug drew noise first and burned both).
    FxpMechanismParams p = testParams();
    BudgetController ctrl(p,
                          makeConfig(p, 1e-3,
                                     RangeControl::Thresholding));
    const Tausworthe &u = ctrl.rng().urng();
    uint32_t s1 = u.s1(), s2 = u.s2(), s3 = u.s3();

    BudgetResponse r = ctrl.request(7.0);
    EXPECT_TRUE(r.from_cache);
    EXPECT_EQ(r.samples_drawn, 0u);
    EXPECT_DOUBLE_EQ(r.value, 5.0); // midpoint: no fresh report yet
    EXPECT_EQ(ctrl.rng().samplesDrawn(), 0u);
    EXPECT_EQ(u.s1(), s1);
    EXPECT_EQ(u.s2(), s2);
    EXPECT_EQ(u.s3(), s3);
}

TEST(BudgetController, CacheHitsAfterExhaustionConsumeNoRandomness)
{
    FxpMechanismParams p = testParams();
    BudgetController ctrl(p,
                          makeConfig(p, 2.0,
                                     RangeControl::Thresholding));
    for (int i = 0; i < 100; ++i)
        ctrl.request(5.0);
    ASSERT_GT(ctrl.cacheHits(), 0u);

    const Tausworthe &u = ctrl.rng().urng();
    uint32_t s1 = u.s1(), s2 = u.s2(), s3 = u.s3();
    uint64_t drawn = ctrl.rng().samplesDrawn();
    for (int i = 0; i < 20; ++i) {
        BudgetResponse r = ctrl.request(5.0);
        EXPECT_TRUE(r.from_cache);
        EXPECT_EQ(r.samples_drawn, 0u);
    }
    EXPECT_EQ(ctrl.rng().samplesDrawn(), drawn);
    EXPECT_EQ(u.s1(), s1);
    EXPECT_EQ(u.s2(), s2);
    EXPECT_EQ(u.s3(), s3);
}

TEST(BudgetController, PartialBudgetNarrowsTheWindow)
{
    // With the feasibility check ahead of sampling, a budget that
    // covers only the central segment confines outputs to the sensor
    // range and charges exactly the central loss -- it does not
    // gamble on where the sample lands.
    FxpMechanismParams p = testParams();
    auto cfg = makeConfig(p, 1.0, RangeControl::Thresholding);
    ASSERT_GE(cfg.segments.size(), 2u);
    double central = cfg.segments.front().loss;
    double next = cfg.segments[1].loss;
    cfg.initial_budget = 0.5 * (central + next);
    ASSERT_LT(cfg.initial_budget, next);
    ASSERT_GT(cfg.initial_budget, central);

    BudgetController ctrl(p, cfg);
    bool fresh_seen = false;
    for (int i = 0; i < 10; ++i) {
        BudgetResponse r = ctrl.request(9.5);
        if (r.from_cache)
            continue;
        fresh_seen = true;
        EXPECT_EQ(r.charged, nats(quantaUp(central)));
        EXPECT_GE(r.value, 0.0 - 1e-9);
        EXPECT_LE(r.value, 10.0 + 1e-9);
    }
    EXPECT_TRUE(fresh_seen);
}

TEST(BudgetController, ResampleOverflowDegradesToClamp)
{
    // A redraw cap of 1 makes rejection certain to occur; the
    // controller must warn and clamp at the window edge instead of
    // panicking, and count the degradation.
    FxpMechanismParams p = testParams();
    p.sample_path = FxpLaplaceConfig::SamplePath::Naive;
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = 1e9;
    cfg.kind = RangeControl::Resampling;
    cfg.segments = LossSegments::compute(calc, cfg.kind, {1.2, 1.5});
    cfg.resample_attempt_limit = 1;
    BudgetController ctrl(p, cfg);

    setLoggingEnabled(false);
    double ext = static_cast<double>(
                     cfg.segments.back().threshold_index) *
                 p.resolvedDelta();
    for (int i = 0; i < 200; ++i) {
        BudgetResponse r = ctrl.request(0.0);
        EXPECT_FALSE(r.from_cache);
        EXPECT_GE(r.value, 0.0 - ext - 1e-9);
        EXPECT_LE(r.value, 10.0 + ext + 1e-9);
    }
    setLoggingEnabled(true);
    EXPECT_GT(ctrl.resampleOverflows(), 0u);
}

TEST(BudgetController, SpentSinceReplenish)
{
    FxpMechanismParams p = testParams();
    BudgetController ctrl(p,
                          makeConfig(p, 10.0,
                                     RangeControl::Thresholding));
    BudgetResponse r = ctrl.request(5.0);
    EXPECT_GT(ctrl.spentSinceReplenish(), 0.0);
    EXPECT_EQ(ctrl.spentSinceReplenish(), r.charged);
    EXPECT_EQ(ctrl.spentSinceReplenish() + ctrl.remainingBudget(), 10.0);
}

TEST(BudgetPool, QuantaRoundChargesUpAndBudgetsDown)
{
    const LossQuanta one = LossQuanta{1} << kLossFracBits;
    EXPECT_EQ(quantaUp(1.0), one);
    EXPECT_EQ(quantaDown(1.0), one);
    // 0.1 nats is 104857.6 quanta.
    EXPECT_EQ(quantaUp(0.1), 104858u);
    EXPECT_EQ(quantaDown(0.1), 104857u);
    EXPECT_EQ(quantaUp(0.0), 0u);
    // Every budget the repo uses round-trips exactly, up to the limit.
    EXPECT_EQ(nats(quantaDown(1e9)), 1e9);
    EXPECT_EQ(nats(quantaDown(kMaxExactNats)), kMaxExactNats);
    EXPECT_EQ(quantaDown(kMaxExactNats), LossQuanta{1} << 53);
    EXPECT_THROW(quantaDown(2.0 * kMaxExactNats), FatalError);
    EXPECT_THROW(quantaUp(-1e-9), FatalError);
    EXPECT_THROW(quantaUp(std::nan("")), FatalError);
    EXPECT_THROW(quantaDown(HUGE_VAL), FatalError);
    EXPECT_THROW(BudgetPool(1e12), FatalError);
    // Below one quantum a budget rounds to nothing.
    EXPECT_THROW(BudgetPool(1e-7), FatalError);
}

TEST(BudgetPool, AdmitsExactlyNineChargesOfATenthPlusEpsilon)
{
    // Ten charges of 0.1 + 5e-14 total 1.0000000000005 nats: the
    // tenth overdraws a budget of 1.0, so it must be refused and
    // remaining must never go negative.
    BudgetPool pool(1.0);
    const LossQuanta q = quantaUp(0.1 + 5e-14);
    int admitted = 0;
    while (pool.tryCharge(q))
        ++admitted;
    EXPECT_EQ(admitted, 9);
    EXPECT_EQ(pool.remaining(), quantaDown(1.0) - 9 * q);
    EXPECT_EQ(pool.totalCharged(), 9 * q);
}

TEST(BudgetPool, RestoreIsMonotone)
{
    BudgetPool pool(2.0, 100);
    ASSERT_TRUE(pool.tryCharge(quantaUp(0.5)));
    EXPECT_FALSE(pool.advanceTime(40));
    // A restore above the live state changes nothing.
    pool.restoreAtMost(quantaDown(2.0), 90);
    EXPECT_EQ(pool.remaining(), quantaDown(1.5));
    EXPECT_EQ(pool.ticksSinceReplenish(), 40u);
    // One below it lowers both.
    pool.restoreAtMost(quantaDown(1.0), 10);
    EXPECT_EQ(pool.remaining(), quantaDown(1.0));
    EXPECT_EQ(pool.ticksSinceReplenish(), 10u);
    EXPECT_TRUE(pool.advanceTime(90));
    EXPECT_EQ(pool.remaining(), quantaDown(2.0));
    pool.restoreAtMost(0, 0);
    EXPECT_EQ(pool.remaining(), 0u);
    pool.refill();
    EXPECT_EQ(pool.remaining(), pool.initial());
}

std::vector<BudgetSegment>
threeSegments()
{
    return {{0, 0.5}, {10, 0.75}, {20, 1.0}};
}

TEST(SegmentTable, ClassifiesIntoTheInnermostCoveringSegment)
{
    SegmentTable t(threeSegments());
    EXPECT_EQ(t.classify(0).charge, quantaUp(0.5));
    EXPECT_EQ(t.classify(1).charge, quantaUp(0.75));
    EXPECT_EQ(t.classify(10).charge, quantaUp(0.75));
    EXPECT_EQ(t.classify(11).charge, quantaUp(1.0));
    EXPECT_EQ(t.classify(20).threshold_index, 20);
    EXPECT_EQ(&t.outermost(), &t.classify(20));
    EXPECT_THROW(t.classify(21), PanicError);
}

TEST(SegmentTable, RejectsBadSegments)
{
    EXPECT_THROW(SegmentTable({}), FatalError);
    EXPECT_THROW(SegmentTable({{0, 0.5}, {0, 0.75}}), FatalError);
    EXPECT_THROW(SegmentTable({{0, 0.75}, {10, 0.5}}), FatalError);
    EXPECT_THROW(SegmentTable({{0, -0.5}}), FatalError);
    EXPECT_THROW(SegmentTable({{0, 0.5}, {10, std::nan("")}}),
                 FatalError);
}

TEST(SegmentTable, WidestAffordableFollowsThePool)
{
    SegmentTable t(threeSegments());
    BudgetPool pool(1.0);
    ASSERT_NE(t.widestAffordable(pool), nullptr);
    EXPECT_EQ(t.widestAffordable(pool)->threshold_index, 20);
    ASSERT_TRUE(pool.tryCharge(quantaUp(0.3)));
    ASSERT_NE(t.widestAffordable(pool), nullptr);
    EXPECT_EQ(t.widestAffordable(pool)->threshold_index, 0);
    ASSERT_TRUE(pool.tryCharge(quantaUp(0.3)));
    EXPECT_EQ(t.widestAffordable(pool), nullptr);
}

/** One budget and one flat segment charge for all four consumers. */
struct ParityCase
{
    double budget;
    /** Per-report charge is 2 * epsilon (the fleet's loss_multiple). */
    double epsilon;
    uint64_t expect_fresh;
};

class BudgetPoolParity : public ::testing::TestWithParam<ParityCase>
{};

TEST_P(BudgetPoolParity, EveryConsumerAdmitsTheSameFreshReports)
{
    const ParityCase c = GetParam();
    const double charge = 2.0 * c.epsilon;
    const int64_t window = 8;
    const int kRequests = 20;

    FxpMechanismParams p = testParams();
    p.epsilon = c.epsilon;
    const std::vector<BudgetSegment> segs = {{window, charge}};

    // 1. A controller that owns its pool.
    BudgetControllerConfig cfg;
    cfg.initial_budget = c.budget;
    cfg.segments = segs;
    BudgetController own(p, cfg);
    // 2. A controller on a shared pool.
    BudgetPool pool(c.budget);
    BudgetController shared(p, RangeControl::Thresholding, segs, pool);
    for (int i = 0; i < kRequests; ++i) {
        own.request(5.0);
        shared.request(5.0);
        EXPECT_GE(own.remainingBudget(), 0.0);
        EXPECT_GE(nats(pool.remaining()), 0.0);
    }
    EXPECT_EQ(own.freshReports(), c.expect_fresh);
    EXPECT_EQ(shared.freshReports(), c.expect_fresh);

    // 3. The DP-Box model.
    DpBoxConfig box;
    box.threshold_index = window;
    box.budget_enabled = true;
    box.segments = segs;
    DpBoxDriver drv(box);
    drv.initialize(c.budget, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));
    for (int i = 0; i < kRequests; ++i) {
        drv.noise(5.0);
        EXPECT_GE(drv.device().remainingBudget(), 0.0);
    }
    const DpBoxStats &st = drv.device().stats();
    EXPECT_EQ(st.noising_requests - st.cache_hits, c.expect_fresh);

    // 4. A fleet plan: one node, the same budget, charge 2 * eps.
    FleetConfig fc;
    CohortConfig cohort;
    cohort.name = "parity";
    cohort.mechanism = CohortMechanism::Thresholding;
    cohort.params = p;
    cohort.loss_multiple = 2.0;
    cohort.nodes = 1;
    cohort.reports_per_node = kRequests;
    cohort.budget_per_node = c.budget;
    cohort.analyze_loss = false;
    fc.cohorts = {cohort};
    FleetReport rep = FleetRunner(fc).run(1);
    EXPECT_EQ(rep.cohorts[0].fresh_reports, c.expect_fresh);
    EXPECT_LE(static_cast<double>(c.expect_fresh) *
                  nats(quantaUp(charge)),
              c.budget);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, BudgetPoolParity,
    ::testing::Values(
        // Dyadic: 6 nats at 1 nat per report admits exactly 6.
        ParityCase{6.0, 0.5, 6},
        // 10 x (0.1 + 5e-14) overdraws 1.0: exactly 9.
        ParityCase{1.0, 0.5 * (0.1 + 5e-14), 9},
        ParityCase{2.5, 0.5, 2}));

} // anonymous namespace
} // namespace ulpdp
