/**
 * @file
 * Tests for the host-side DP-Box driver.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "dpbox/driver.h"

namespace ulpdp {
namespace {

DpBoxConfig
driverConfig()
{
    DpBoxConfig cfg;
    cfg.frac_bits = 6;
    cfg.word_bits = 20;
    cfg.uniform_bits = 17;
    cfg.threshold_index = 600;
    cfg.thresholding = true;
    return cfg;
}

TEST(DpBoxDriver, FullFlowProducesNoisedValues)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));

    RunningStats stats;
    for (int i = 0; i < 20000; ++i) {
        DpBoxResult r = drv.noise(5.0);
        stats.add(r.value);
        EXPECT_GE(r.latency_cycles, 2u);
    }
    EXPECT_NEAR(stats.mean(), 5.0, 0.8);
    EXPECT_GT(stats.stddev(), 5.0); // lambda = 20 noise is wide
}

TEST(DpBoxDriver, RequiresInitializeFirst)
{
    DpBoxDriver drv(driverConfig());
    EXPECT_THROW(drv.configure(0.5, SensorRange(0.0, 1.0)),
                 FatalError);
    DpBoxDriver drv2(driverConfig());
    EXPECT_THROW(drv2.noise(0.5), FatalError);
}

TEST(DpBoxDriver, InitializeOnlyOnce)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    EXPECT_THROW(drv.initialize(5.0, 0), FatalError);
}

TEST(DpBoxDriver, NoiseRequiresConfigure)
{
    // Initialized but never configured: the range registers are
    // still zero, so noising must be refused, not produce garbage.
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    EXPECT_THROW(drv.noise(0.5), FatalError);
}

TEST(DpBoxDriver, RejectsNonPositiveBudget)
{
    setLoggingEnabled(false);
    EXPECT_THROW(DpBoxDriver(driverConfig()).initialize(0.0, 0),
                 FatalError);
    EXPECT_THROW(DpBoxDriver(driverConfig()).initialize(-1.0, 0),
                 FatalError);
    EXPECT_THROW(
        DpBoxDriver(driverConfig())
            .initialize(std::nan(""), 0),
        FatalError);
    setLoggingEnabled(true);
}

TEST(DpBoxDriver, BudgetRoundsDownToTheRegister)
{
    // 1.003 nats is 256.768 register LSBs: the device must seal
    // 256/256 = 1 nat, never the 257/256 that rounding to nearest
    // would grant.
    DpBoxDriver drv(driverConfig());
    drv.initialize(1.003, 0);
    EXPECT_EQ(drv.device().remainingBudget(), 1.0);
}

TEST(DpBoxDriver, RejectsBudgetsTheRegisterCannotHold)
{
    setLoggingEnabled(false);
    // Floors to zero LSBs.
    EXPECT_THROW(DpBoxDriver(driverConfig()).initialize(0.003, 0),
                 FatalError);
    // Overflows the register's exact range.
    EXPECT_THROW(
        DpBoxDriver(driverConfig()).initialize(2.0 * kMaxExactNats, 0),
        FatalError);
    setLoggingEnabled(true);
    DpBoxDriver edge(driverConfig());
    edge.initialize(kMaxExactNats, 0);
    EXPECT_EQ(edge.device().remainingBudget(), kMaxExactNats);
}

TEST(DpBoxDriver, RejectsNonPositiveEpsilon)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    setLoggingEnabled(false);
    EXPECT_THROW(drv.configure(0.0, SensorRange(0.0, 1.0)),
                 FatalError);
    EXPECT_THROW(drv.configure(-0.5, SensorRange(0.0, 1.0)),
                 FatalError);
    setLoggingEnabled(true);
}

TEST(DpBoxDriver, CountsEpsilonRoundingWarnings)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    setLoggingEnabled(false);
    uint64_t warned_before = warningCount();
    drv.configure(0.25, SensorRange(0.0, 10.0)); // exact, no warning
    EXPECT_EQ(drv.epsilonRoundingWarnings(), 0u);
    drv.configure(0.4, SensorRange(0.0, 10.0)); // rounds to 0.5
    drv.configure(0.3, SensorRange(0.0, 10.0)); // rounds to 0.25
    setLoggingEnabled(true);
    EXPECT_EQ(drv.epsilonRoundingWarnings(), 2u);
    // Each counted rounding also went through common/logging, even
    // with output disabled.
    EXPECT_GE(warningCount() - warned_before, 2u);
    EXPECT_EQ(drv.faultStats().epsilon_rounding_warnings, 2u);
}

TEST(DpBoxDriver, EpsilonRoundsToPowerOfTwo)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    setLoggingEnabled(false);
    drv.configure(0.4, SensorRange(0.0, 10.0)); // -> 2^-1 = 0.5
    setLoggingEnabled(true);
    EXPECT_DOUBLE_EQ(drv.effectiveEpsilon(), 0.5);
}

TEST(DpBoxDriver, ExactPowerOfTwoKept)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    drv.configure(0.25, SensorRange(0.0, 10.0));
    EXPECT_DOUBLE_EQ(drv.effectiveEpsilon(), 0.25);
}

TEST(DpBoxDriver, ThresholdingLatencyIsConstantTwo)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));
    drv.setThresholding(true);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(drv.noise(3.0).latency_cycles, 2u);
}

TEST(DpBoxDriver, ResamplingLatencyVaries)
{
    DpBoxConfig cfg = driverConfig();
    cfg.thresholding = false;
    cfg.threshold_index = 60; // tight
    DpBoxDriver drv(cfg);
    drv.initialize(5.0, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));

    uint64_t max_latency = 0;
    for (int i = 0; i < 3000; ++i)
        max_latency = std::max(max_latency,
                               drv.noise(5.0).latency_cycles);
    EXPECT_GT(max_latency, 2u);
}

TEST(DpBoxDriver, SetThresholdingSwitchesMode)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));
    drv.setThresholding(false);
    EXPECT_FALSE(drv.device().thresholdingMode());
    drv.setThresholding(false); // idempotent
    EXPECT_FALSE(drv.device().thresholdingMode());
    drv.setThresholding(true);
    EXPECT_TRUE(drv.device().thresholdingMode());
}

TEST(DpBoxDriver, OutputsWithinClampWindow)
{
    DpBoxDriver drv(driverConfig());
    drv.initialize(5.0, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));
    double ext = 600.0 * drv.device().lsb();
    for (int i = 0; i < 5000; ++i) {
        double y = drv.noise(0.0).value;
        EXPECT_GE(y, -ext - 1e-9);
        EXPECT_LE(y, 10.0 + ext + 1e-9);
    }
}

} // anonymous namespace
} // namespace ulpdp
