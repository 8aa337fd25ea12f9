/**
 * @file
 * Tests for the MSP430 cost model, the energy model and the averaging
 * adversary.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/budget.h"
#include "sim/adversary.h"
#include "sim/energy_model.h"
#include "sim/msp430_cost.h"

namespace ulpdp {
namespace {

TEST(Msp430Cost, FixedPointInPaperBallpark)
{
    // Paper: 4043 cycles for 20-bit fixed-point software noising.
    Msp430CostModel model;
    uint64_t cycles = model.fixedPointCycles();
    EXPECT_GT(cycles, 3000u);
    EXPECT_LT(cycles, 5000u);
}

TEST(Msp430Cost, HalfFloatInPaperBallpark)
{
    // Paper: 1436 cycles using half-precision floats.
    Msp430CostModel model;
    uint64_t cycles = model.halfFloatCycles();
    EXPECT_GT(cycles, 1000u);
    EXPECT_LT(cycles, 2000u);
}

TEST(Msp430Cost, OrderingMatchesPaper)
{
    // fixed point > half float >> DP-Box host cost.
    Msp430CostModel model;
    EXPECT_GT(model.fixedPointCycles(), model.halfFloatCycles());
    EXPECT_GT(model.halfFloatCycles(), model.dpBoxHostCycles());
    EXPECT_EQ(model.dpBoxHostCycles(), 4u);
}

TEST(Msp430Cost, HardwareMultiplierShrinksFixedPointMost)
{
    Msp430CostModel soft;
    Msp430CostModel hard(Msp430OpCosts(), true);
    EXPECT_LT(hard.fixedPointCycles(), soft.fixedPointCycles());
    double fx_speedup =
        static_cast<double>(soft.fixedPointCycles()) /
        static_cast<double>(hard.fixedPointCycles());
    double hf_speedup =
        static_cast<double>(soft.halfFloatCycles()) /
        static_cast<double>(hard.halfFloatCycles());
    // Fixed point is multiply-bound, so the MPY helps it more.
    EXPECT_GT(fx_speedup, hf_speedup);
}

TEST(Msp430Cost, CustomCostsRespected)
{
    Msp430OpCosts costs;
    costs.mul16_soft = 1;
    costs.alu = 1;
    costs.load = 1;
    costs.store = 1;
    costs.branch = 1;
    Msp430CostModel model(costs);
    NoisingOpCounts c = Msp430CostModel::fixedPointRoutine();
    EXPECT_EQ(model.fixedPointCycles(),
              c.alu + c.load + c.store + c.branch + c.mul16);
}

TEST(EnergyModel, RejectsBadParams)
{
    EnergyParams p;
    p.dpbox_power = 0.0;
    EXPECT_THROW(EnergyModel model(p), FatalError);
}

TEST(EnergyModel, DpBoxEnergyPerCycleFromSynthesis)
{
    EnergyModel model;
    // 158.3 uW / 16 MHz = 9.89 pJ per cycle.
    EXPECT_NEAR(model.dpboxEnergyPerCycle(), 9.89e-12, 0.1e-12);
}

TEST(EnergyModel, RatiosInPaperBallpark)
{
    // Paper: 894x vs fixed-point software, 318x vs half-float. The
    // exact constants depend on the MCU; the model must land in the
    // same order of magnitude with the documented defaults.
    Msp430CostModel cost;
    EnergyModel energy;
    double fx_ratio = energy.ratio(cost.fixedPointCycles(), 2,
                                   cost.dpBoxHostCycles());
    double hf_ratio = energy.ratio(cost.halfFloatCycles(), 2,
                                   cost.dpBoxHostCycles());
    EXPECT_GT(fx_ratio, 300.0);
    EXPECT_LT(fx_ratio, 3000.0);
    EXPECT_GT(hf_ratio, 100.0);
    EXPECT_LT(hf_ratio, 1000.0);
    EXPECT_GT(fx_ratio, hf_ratio);
}

TEST(EnergyModel, EnergyScalesLinearly)
{
    EnergyModel model;
    EXPECT_DOUBLE_EQ(model.softwareEnergy(2000),
                     2.0 * model.softwareEnergy(1000));
    EXPECT_GT(model.dpboxEnergy(4, 4), model.dpboxEnergy(2, 4));
}

FxpMechanismParams
advParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    return p;
}

BudgetController
makeController(double budget)
{
    FxpMechanismParams p = advParams();
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = budget;
    cfg.kind = RangeControl::Thresholding;
    cfg.segments = LossSegments::compute(
        calc, RangeControl::Thresholding, {1.5, 2.0});
    return BudgetController(p, cfg);
}

TEST(Adversary, ErrorShrinksWithoutBudget)
{
    BudgetController ctrl = makeController(1e9); // effectively none
    auto curve = AveragingAdversary::attack(
        ctrl, 7.0, {10, 100, 1000, 10000});
    ASSERT_EQ(curve.size(), 4u);
    // 1/sqrt(n) decay: the last point must beat the first clearly.
    EXPECT_LT(curve[3].relative_error, curve[0].relative_error);
    EXPECT_LT(curve[3].relative_error, 0.05);
    EXPECT_EQ(curve[3].cache_hits, 0u);
}

TEST(Adversary, BudgetCapsAccuracy)
{
    BudgetController limited = makeController(3.0);
    auto curve = AveragingAdversary::attack(
        limited, 7.0, {10, 100, 1000, 10000});
    EXPECT_GT(curve[3].cache_hits, 0u);

    BudgetController unlimited = makeController(1e9);
    auto free_curve = AveragingAdversary::attack(
        unlimited, 7.0, {10, 100, 1000, 10000});

    // With the budget, the estimate converges to the cached noised
    // value, not the truth: the error saturates above the free case.
    EXPECT_GT(curve[3].relative_error,
              free_curve[3].relative_error);
}

TEST(Adversary, LargerBudgetMoreAccurate)
{
    BudgetController small = makeController(2.0);
    BudgetController large = makeController(20.0);
    auto s = AveragingAdversary::attack(small, 7.0, {20000});
    auto l = AveragingAdversary::attack(large, 7.0, {20000});
    // More fresh samples average out better (cached value may be
    // lucky, so compare with slack via cache hits).
    EXPECT_GT(s[0].cache_hits, l[0].cache_hits);
}

TEST(Adversary, RejectsBadCheckpoints)
{
    BudgetController ctrl = makeController(5.0);
    EXPECT_THROW(AveragingAdversary::attack(ctrl, 5.0, {}),
                 FatalError);
    EXPECT_THROW(AveragingAdversary::attack(ctrl, 5.0, {10, 10}),
                 FatalError);
}

} // anonymous namespace
} // namespace ulpdp
