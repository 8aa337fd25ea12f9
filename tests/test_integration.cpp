/**
 * @file
 * Integration tests spanning modules: end-to-end sensor pipelines,
 * device-versus-analysis consistency, and the paper's headline
 * comparisons exercised through the public API.
 */

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/ideal_laplace_mechanism.h"
#include "core/privacy_loss.h"
#include "core/resampling_mechanism.h"
#include "core/threshold_calc.h"
#include "core/thresholding_mechanism.h"
#include "data/generators.h"
#include "dpbox/driver.h"
#include "query/utility.h"

namespace ulpdp {
namespace {

TEST(Integration, HeartRateMeanSurvivesNoising)
{
    // The motivating use case: aggregate blood pressure statistics
    // from noised per-patient reports.
    Dataset heart = makeStatlogHeart();
    FxpMechanismParams p;
    p.range = heart.range;
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = heart.range.length() / 32.0;

    ThresholdCalculator calc(p);
    int64_t t = calc.exactIndex(RangeControl::Resampling, 2.0);
    ASSERT_GE(t, 0);
    ResamplingMechanism mech(p, t);

    UtilityEvaluator eval(100);
    UtilityResult r = eval.evaluate(heart.values, mech, MeanQuery());
    // MAE of the mean should be a small fraction of the range.
    EXPECT_LT(r.mae, 0.15 * heart.range.length());
    EXPECT_GT(r.mae, 0.0);
}

TEST(Integration, DeviceMatchesMechanismDistribution)
{
    // The DP-Box device model and the ThresholdingMechanism analysis
    // class implement the same datapath; their outputs must agree in
    // distribution (moments within Monte Carlo tolerance).
    SensorRange range(0.0, 10.0);
    double eps = 0.5;

    DpBoxConfig cfg;
    cfg.frac_bits = 5; // LSB 1/32: Delta = 0.3125 on this range
    cfg.word_bits = 20;
    cfg.uniform_bits = 17;
    cfg.threshold_index = 418;
    cfg.thresholding = true;
    DpBoxDriver drv(cfg);
    drv.initialize(1e9, 0);
    drv.configure(eps, range);

    FxpMechanismParams p;
    p.range = range;
    p.epsilon = eps;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 1.0 / 32.0;
    // Device threshold is in LSBs of 2^-5; the mechanism's Delta is
    // also 1/32, so the same index means the same window.
    ThresholdingMechanism mech(p, 418);

    const int n = 60000;
    double dev_sum = 0.0;
    double mech_sum = 0.0;
    double dev_sq = 0.0;
    double mech_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        double a = drv.noise(5.0).value;
        double b = mech.noise(5.0).value;
        dev_sum += a;
        mech_sum += b;
        dev_sq += a * a;
        mech_sq += b * b;
    }
    double dev_mean = dev_sum / n;
    double mech_mean = mech_sum / n;
    double dev_var = dev_sq / n - dev_mean * dev_mean;
    double mech_var = mech_sq / n - mech_mean * mech_mean;
    EXPECT_NEAR(dev_mean, mech_mean, 0.5);
    EXPECT_NEAR(std::sqrt(dev_var), std::sqrt(mech_var),
                0.06 * std::sqrt(mech_var));
}

TEST(Integration, PaperHeadline_NaiveFailsFixesWork)
{
    // The paper's core claim chain on one configuration:
    //  1. naive fixed-point noising: infinite loss;
    //  2. resampling at the exact threshold: bounded by 2 eps;
    //  3. thresholding at the exact threshold: bounded by 2 eps;
    //  4. all three deliver comparable utility for the mean query.
    Dataset heart = makeStatlogHeart();
    FxpMechanismParams p;
    p.range = heart.range;
    p.epsilon = 0.5;
    p.uniform_bits = 16;
    p.output_bits = 14;
    p.delta = heart.range.length() / 32.0;

    ThresholdCalculator calc(p);
    auto pmf = calc.pmf();

    NaiveOutputModel naive(pmf, calc.span());
    EXPECT_FALSE(PrivacyLossAnalyzer::analyze(naive).bounded);

    int64_t tr = calc.exactIndex(RangeControl::Resampling, 2.0);
    int64_t tt = calc.exactIndex(RangeControl::Thresholding, 2.0);
    ASSERT_GE(tr, 0);
    ASSERT_GE(tt, 0);
    ResamplingOutputModel resamp(pmf, calc.span(), tr);
    ThresholdingOutputModel thresh(pmf, calc.span(), tt);
    LossReport resamp_rep = PrivacyLossAnalyzer::analyze(resamp);
    LossReport thresh_rep = PrivacyLossAnalyzer::analyze(thresh);
    EXPECT_TRUE(resamp_rep.bounded);
    EXPECT_TRUE(thresh_rep.bounded);
    EXPECT_LE(resamp_rep.worst_case_loss, 1.0);
    EXPECT_LE(thresh_rep.worst_case_loss, 1.0);

    UtilityEvaluator eval(60);
    IdealLaplaceMechanism ideal(p.range, p.epsilon, 3);
    NaiveFxpMechanism naive_mech(p);
    ResamplingMechanism resamp_mech(p, tr);
    ThresholdingMechanism thresh_mech(p, tt);

    double mae_ideal =
        eval.evaluate(heart.values, ideal, MeanQuery()).mae;
    double mae_naive =
        eval.evaluate(heart.values, naive_mech, MeanQuery()).mae;
    double mae_resamp =
        eval.evaluate(heart.values, resamp_mech, MeanQuery()).mae;
    double mae_thresh =
        eval.evaluate(heart.values, thresh_mech, MeanQuery()).mae;

    // Tables II-V: all four settings within a small factor.
    for (double mae : {mae_naive, mae_resamp, mae_thresh}) {
        EXPECT_LT(mae, 3.0 * mae_ideal + 1e-9);
        EXPECT_GT(mae, mae_ideal / 3.0);
    }
}

TEST(Integration, BudgetedDeviceStopsLeaking)
{
    // Full-stack Fig. 13: a budgeted DP-Box serves an adversary;
    // after exhaustion the outputs freeze.
    DpBoxConfig cfg;
    cfg.frac_bits = 5;
    cfg.word_bits = 20;
    cfg.uniform_bits = 17;
    cfg.threshold_index = 300;
    cfg.thresholding = true;
    cfg.budget_enabled = true;
    cfg.segments = {BudgetSegment{0, 0.55},
                    BudgetSegment{150, 0.8},
                    BudgetSegment{300, 1.0}};
    DpBoxDriver drv(cfg);
    drv.initialize(5.0, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));

    std::vector<double> outputs;
    for (int i = 0; i < 50; ++i)
        outputs.push_back(drv.noise(7.0).value);

    EXPECT_GT(drv.device().stats().cache_hits, 0u);
    // Tail outputs identical (cache replay).
    EXPECT_DOUBLE_EQ(outputs[48], outputs[49]);
}

TEST(Integration, EpsilonTradesUtilityForPrivacy)
{
    // The fundamental DP tradeoff through the whole stack: smaller
    // eps -> higher MAE, and the exact loss bound scales with eps.
    Dataset activity = makeHumanActivity();
    Dataset small = activity.subsample(2000);

    auto mae_at = [&](double eps) {
        FxpMechanismParams p;
        p.range = small.range;
        p.epsilon = eps;
        p.uniform_bits = 16;
        p.output_bits = 14;
        p.delta = small.range.length() / 32.0;
        ThresholdCalculator calc(p);
        int64_t t = calc.exactIndex(RangeControl::Thresholding, 2.0);
        ThresholdingMechanism mech(p, t);
        UtilityEvaluator eval(40);
        return eval.evaluate(small.values, mech, MeanQuery()).mae;
    };
    EXPECT_GT(mae_at(0.25), mae_at(1.0));
}

} // anonymous namespace
} // namespace ulpdp
