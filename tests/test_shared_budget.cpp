/**
 * @file
 * Tests for the multi-sensor shared budget pool (Section IV): one
 * BudgetPool charged by several sensors' BudgetControllers.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/budget.h"

namespace ulpdp {
namespace {

FxpMechanismParams
sensorParams(double lo, double hi, uint64_t seed)
{
    FxpMechanismParams p;
    p.range = SensorRange(lo, hi);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = (hi - lo) / 32.0;
    p.seed = seed;
    return p;
}

std::vector<BudgetSegment>
segmentsFor(const FxpMechanismParams &p)
{
    ThresholdCalculator calc(p);
    return LossSegments::compute(calc, RangeControl::Thresholding,
                                 {1.5, 2.0});
}

TEST(SharedPool, RejectsBadBudget)
{
    EXPECT_THROW(BudgetPool(0.0), FatalError);
}

TEST(SharedPool, ChargesUntilEmpty)
{
    BudgetPool pool(1.0);
    EXPECT_TRUE(pool.tryCharge(quantaUp(0.6)));
    EXPECT_FALSE(pool.tryCharge(quantaUp(0.5)));
    EXPECT_EQ(pool.remaining(), quantaDown(1.0) - quantaUp(0.6));
    // Both charges round up, so 0.6 + 0.4 overdraws 1.0 by one
    // quantum; the exact remainder is still spendable.
    EXPECT_FALSE(pool.tryCharge(quantaUp(0.4)));
    EXPECT_TRUE(pool.tryCharge(pool.remaining()));
    EXPECT_EQ(pool.totalCharged(), quantaDown(1.0));
}

TEST(SharedPool, FailedChargeLeavesPoolIntact)
{
    BudgetPool pool(1.0);
    EXPECT_FALSE(pool.tryCharge(quantaUp(2.0)));
    EXPECT_EQ(pool.remaining(), quantaDown(1.0));
    EXPECT_EQ(pool.totalCharged(), 0u);
}

TEST(SharedPool, Replenishes)
{
    BudgetPool pool(1.0, 100);
    EXPECT_TRUE(pool.tryCharge(quantaUp(1.0)));
    EXPECT_FALSE(pool.tryCharge(quantaUp(0.1)));
    EXPECT_FALSE(pool.advanceTime(99));
    EXPECT_FALSE(pool.tryCharge(quantaUp(0.1)));
    EXPECT_TRUE(pool.advanceTime(1));
    EXPECT_TRUE(pool.tryCharge(quantaUp(0.1)));
    // totalCharged accumulates across epochs.
    EXPECT_EQ(pool.totalCharged(), quantaUp(1.0) + quantaUp(0.1));
}

TEST(PoolSensor, RejectsBadSegments)
{
    BudgetPool pool(10.0);
    FxpMechanismParams p = sensorParams(0.0, 10.0, 1);
    EXPECT_THROW(BudgetController(p, RangeControl::Thresholding, {},
                                  pool),
                 FatalError);
}

TEST(BudgetPool, SharingControllerCannotDriveTimeOrDurability)
{
    // A sensor on a borrowed pool must not refill or journal it:
    // those belong to whoever owns the pool.
    BudgetPool pool(10.0, 100);
    FxpMechanismParams p = sensorParams(0.0, 10.0, 1);
    BudgetController s(p, RangeControl::Thresholding, segmentsFor(p),
                       pool);
    EXPECT_THROW(s.advanceTime(100), FatalError);
    EXPECT_THROW(s.attachLedger(nullptr), FatalError);
    EXPECT_EQ(pool.remaining(), quantaDown(10.0));
}

TEST(PoolSensor, TwoSensorsDrainOnePool)
{
    BudgetPool pool(5.0);
    FxpMechanismParams pa = sensorParams(0.0, 10.0, 1);
    FxpMechanismParams pb = sensorParams(-1.0, 1.0, 2);
    BudgetController accel(pa, RangeControl::Thresholding,
                           segmentsFor(pa), pool);
    BudgetController gyro(pb, RangeControl::Thresholding,
                          segmentsFor(pb), pool);

    // Alternate requests; the combined charges must never exceed the
    // shared pool.
    double charged = 0.0;
    for (int i = 0; i < 60; ++i) {
        charged += accel.request(5.0).charged;
        charged += gyro.request(0.3).charged;
    }
    // Every charge is a whole number of quanta, so the sums are exact.
    EXPECT_LE(charged, 5.0);
    EXPECT_EQ(charged, nats(pool.totalCharged()));
    // Both sensors eventually hit the cache.
    EXPECT_GT(accel.cacheHits() + gyro.cacheHits(), 0u);
}

TEST(PoolSensor, OneGreedySensorStarvesTheOther)
{
    // The point of sharing: sensor A's requests consume budget that
    // sensor B then cannot spend -- combining streams cannot exceed
    // the pool.
    BudgetPool pool(3.0);
    FxpMechanismParams pa = sensorParams(0.0, 10.0, 3);
    FxpMechanismParams pb = sensorParams(0.0, 10.0, 4);
    BudgetController greedy(pa, RangeControl::Thresholding,
                            segmentsFor(pa), pool);
    BudgetController victim(pb, RangeControl::Thresholding,
                            segmentsFor(pb), pool);

    for (int i = 0; i < 50; ++i)
        greedy.request(5.0);
    const double left = nats(pool.remaining());
    EXPECT_LT(left, 0.8);

    BudgetResponse r = victim.request(5.0);
    // With the pool nearly dry the victim's first real report likely
    // cannot be afforded; either way its total spend is bounded by
    // what the greedy sensor left.
    double victim_spend = r.charged;
    for (int i = 0; i < 20; ++i)
        victim_spend += victim.request(5.0).charged;
    EXPECT_LE(victim_spend, left);
}

TEST(PoolSensor, CacheReplaysOwnValueNotOthers)
{
    BudgetPool pool(2.0);
    FxpMechanismParams pa = sensorParams(0.0, 10.0, 5);
    FxpMechanismParams pb = sensorParams(100.0, 200.0, 6);
    BudgetController a(pa, RangeControl::Thresholding,
                       segmentsFor(pa), pool);
    BudgetController b(pb, RangeControl::Thresholding,
                       segmentsFor(pb), pool);

    double a_fresh = a.request(5.0).value;
    double b_fresh = b.request(150.0).value;
    // Drain the pool.
    for (int i = 0; i < 40; ++i) {
        a.request(5.0);
        b.request(150.0);
    }
    BudgetResponse ra = a.request(5.0);
    BudgetResponse rb = b.request(150.0);
    ASSERT_TRUE(ra.from_cache);
    ASSERT_TRUE(rb.from_cache);
    // Each sensor's cache lives in its own range.
    EXPECT_GE(rb.value, 0.0);
    EXPECT_NE(ra.value, rb.value);
    (void)a_fresh;
    (void)b_fresh;
}

TEST(PoolSensor, ResamplingModeWorks)
{
    BudgetPool pool(1e9);
    FxpMechanismParams p = sensorParams(0.0, 10.0, 7);
    ThresholdCalculator calc(p);
    auto segs = LossSegments::compute(calc, RangeControl::Resampling,
                                      {1.5, 2.0});
    BudgetController s(p, RangeControl::Resampling, segs, pool);
    uint64_t samples = 0;
    for (int i = 0; i < 2000; ++i)
        samples += s.request(0.0).samples_drawn;
    EXPECT_GE(samples, 2000u);
    EXPECT_EQ(s.freshReports(), 2000u);
}

TEST(PoolSensor, MidpointBeforeAnyFreshReport)
{
    BudgetPool pool(1e-6); // too small for any report
    FxpMechanismParams p = sensorParams(0.0, 10.0, 8);
    BudgetController s(p, RangeControl::Thresholding,
                       segmentsFor(p), pool);
    BudgetResponse r = s.request(9.0);
    EXPECT_TRUE(r.from_cache);
    EXPECT_DOUBLE_EQ(r.value, 5.0); // range midpoint: data-free
}

TEST(PoolSensor, HaltedRequestConsumesNoRandomness)
{
    // Halt-then-serve: a sensor the pool cannot afford must not
    // advance its URNG or draw samples -- the halted stream stays
    // energy-free and its RNG state stays in lockstep with an
    // untouched twin.
    BudgetPool pool(1e-6);
    FxpMechanismParams p = sensorParams(0.0, 10.0, 9);
    BudgetController s(p, RangeControl::Thresholding,
                       segmentsFor(p), pool);
    const Tausworthe &u = s.rng().urng();
    uint32_t s1 = u.s1(), s2 = u.s2(), s3 = u.s3();

    for (int i = 0; i < 10; ++i) {
        BudgetResponse r = s.request(9.0);
        EXPECT_TRUE(r.from_cache);
        EXPECT_EQ(r.samples_drawn, 0u);
    }
    EXPECT_EQ(s.rng().samplesDrawn(), 0u);
    EXPECT_EQ(u.s1(), s1);
    EXPECT_EQ(u.s2(), s2);
    EXPECT_EQ(u.s3(), s3);
}

} // anonymous namespace
} // namespace ulpdp
