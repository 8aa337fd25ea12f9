/**
 * @file
 * Randomised robustness ("fuzz") tests: the invariants that must
 * survive arbitrary usage -- random command streams on the DP-Box,
 * random request patterns against the budget controller, random
 * configurations through the threshold calculator -- because a
 * privacy device that crashes or leaks under odd-but-legal inputs is
 * broken no matter how good the math is.
 */

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/budget.h"
#include "core/resampling_mechanism.h"
#include "core/threshold_calc.h"
#include "core/thresholding_mechanism.h"
#include "dpbox/dpbox.h"

namespace ulpdp {
namespace {

TEST(Fuzz, DpBoxSurvivesRandomCommandStreams)
{
    // Random (but type-valid) commands and inputs must never crash
    // the device, and with thresholding enabled every ready output
    // must lie inside the configured window.
    std::mt19937_64 rng(1234);
    std::uniform_int_distribution<int> cmd_pick(0, 6);

    for (int trial = 0; trial < 20; ++trial) {
        DpBoxConfig cfg;
        cfg.frac_bits = 5;
        cfg.word_bits = 20;
        cfg.uniform_bits = 14;
        cfg.threshold_index = 300;
        cfg.thresholding = true;
        cfg.seed = 100 + trial;
        DpBox box(cfg);

        // Seal initialization with a sane budget setup first.
        box.step(DpBoxCommand::SetEpsilon, 256 * 5);
        box.step(DpBoxCommand::StartNoising);
        // Make the range valid before fuzzing so StartNoising is
        // legal whenever it fires.
        box.step(DpBoxCommand::SetEpsilon, 1);
        box.step(DpBoxCommand::SetRangeLower, box.toRaw(0.0));
        box.step(DpBoxCommand::SetRangeUpper, box.toRaw(10.0));

        std::uniform_int_distribution<int64_t> input_pick(
            box.toRaw(0.0), box.toRaw(10.0));
        int64_t win_lo = box.toRaw(0.0) - cfg.threshold_index;
        int64_t win_hi = box.toRaw(10.0) + cfg.threshold_index;

        for (int i = 0; i < 3000; ++i) {
            auto cmd = static_cast<DpBoxCommand>(cmd_pick(rng));
            // Keep the fuzz inside the legal envelope: never shrink
            // the range to empty, never toggle mode (the window
            // bound below assumes clamping).
            if (cmd == DpBoxCommand::SetRangeLower ||
                cmd == DpBoxCommand::SetRangeUpper ||
                cmd == DpBoxCommand::SetThreshold ||
                cmd == DpBoxCommand::SetEpsilon) {
                cmd = DpBoxCommand::DoNothing;
            }
            box.step(cmd, input_pick(rng));
            if (box.ready()) {
                EXPECT_GE(box.output(), win_lo);
                EXPECT_LE(box.output(), win_hi);
            }
        }
    }
}

TEST(Fuzz, BudgetControllerNeverOverspends)
{
    std::mt19937_64 rng(77);
    std::uniform_real_distribution<double> value_pick(0.0, 10.0);

    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    ThresholdCalculator calc(p);

    for (int trial = 0; trial < 10; ++trial) {
        BudgetControllerConfig cfg;
        cfg.initial_budget = 1.0 + trial;
        cfg.kind = trial % 2 == 0 ? RangeControl::Thresholding
                                  : RangeControl::Resampling;
        cfg.segments = LossSegments::compute(calc, cfg.kind,
                                             {1.5, 2.0});
        FxpMechanismParams seeded = p;
        seeded.seed = 1000 + trial;
        BudgetController ctrl(seeded, cfg);

        double charged = 0.0;
        for (int i = 0; i < 500; ++i) {
            BudgetResponse r = ctrl.request(value_pick(rng));
            charged += r.charged;
            if (r.from_cache) {
                EXPECT_DOUBLE_EQ(r.charged, 0.0);
            }
        }
        EXPECT_LE(charged, cfg.initial_budget);
        EXPECT_GE(ctrl.remainingBudget(), 0.0);
    }
}

TEST(Fuzz, RandomConfigsEitherProvisionOrRefuse)
{
    // Across random (range, eps, Bu, bound) combinations the exact
    // threshold search must either return a threshold whose loss
    // meets the bound, or -1 -- never a bogus window.
    std::mt19937_64 rng(31);
    std::uniform_real_distribution<double> len_pick(0.5, 500.0);
    std::uniform_int_distribution<int> bu_pick(8, 17);
    std::uniform_real_distribution<double> n_pick(1.1, 3.0);

    for (int trial = 0; trial < 25; ++trial) {
        FxpMechanismParams p;
        double len = len_pick(rng);
        p.range = SensorRange(0.0, len);
        p.epsilon = std::ldexp(1.0, -(trial % 3)); // 1, 0.5, 0.25
        p.uniform_bits = bu_pick(rng);
        p.output_bits = 14;
        p.delta = len / 32.0;
        ThresholdCalculator calc(p);
        double n = n_pick(rng);

        for (RangeControl kind : {RangeControl::Resampling,
                                  RangeControl::Thresholding}) {
            int64_t t = calc.exactIndex(kind, n);
            if (t < 0)
                continue;
            double loss = calc.exactLossAt(kind, t);
            EXPECT_LE(loss, n * p.epsilon * (1.0 + 1e-9) + 1e-12)
                << "trial=" << trial << " kind="
                << static_cast<int>(kind) << " n=" << n
                << " bu=" << p.uniform_bits;
        }
    }
}

TEST(Fuzz, MechanismsHandleBoundaryReadings)
{
    // Readings exactly at (and epsilon-near) the range limits must
    // never trip internal assertions.
    FxpMechanismParams p;
    p.range = SensorRange(-1.0, 1.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 2.0 / 32.0;
    ThresholdingMechanism thresh(p, 100);
    ResamplingMechanism resamp(p, 100);
    for (double x : {-1.0, -0.999999, 0.0, 0.999999, 1.0}) {
        for (int i = 0; i < 100; ++i) {
            EXPECT_NO_THROW(thresh.noise(x));
            EXPECT_NO_THROW(resamp.noise(x));
        }
    }
}

} // anonymous namespace
} // namespace ulpdp
