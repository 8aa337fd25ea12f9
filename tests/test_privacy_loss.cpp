/**
 * @file
 * Tests for the exact privacy-loss analyzer: the paper's central
 * claims. The naive fixed-point baseline has infinite worst-case
 * loss (Section III-A3); resampling and thresholding with properly
 * chosen thresholds keep it bounded (Section III-B); the ideal
 * continuous mechanism would have loss exactly eps.
 */

#include <cmath>
#include <limits>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "core/output_model.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"

namespace ulpdp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

FxpMechanismParams
paperParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    return p;
}

std::shared_ptr<const FxpLaplacePmf>
pmfOf(const FxpMechanismParams &p)
{
    return std::make_shared<FxpLaplacePmf>(p.rngConfig());
}

TEST(PrivacyLoss, NaiveBaselineIsInfinite)
{
    FxpMechanismParams p = paperParams();
    NaiveOutputModel model(pmfOf(p), p.rangeIndexSpan());
    LossReport report = PrivacyLossAnalyzer::analyze(model);
    EXPECT_FALSE(report.bounded);
    EXPECT_EQ(report.worst_case_loss, kInf);
    EXPECT_GT(report.infinite_outputs, 0u);
}

TEST(PrivacyLoss, NaiveInfinityComesFromSupportEdges)
{
    // The output M + L is producible only by inputs near M: loss at
    // that output must be infinite.
    FxpMechanismParams p = paperParams();
    auto pmf = pmfOf(p);
    NaiveOutputModel model(pmf, p.rangeIndexSpan());
    double edge_loss = PrivacyLossAnalyzer::lossAtOutput(
        model, p.rangeIndexSpan() + pmf->maxIndex());
    EXPECT_EQ(edge_loss, kInf);
}

TEST(PrivacyLoss, NaiveCentralOutputsBounded)
{
    // Outputs inside [m, M] are producible by every input; the loss
    // there is finite and close to eps.
    FxpMechanismParams p = paperParams();
    NaiveOutputModel model(pmfOf(p), p.rangeIndexSpan());
    for (int64_t j = 0; j <= p.rangeIndexSpan(); ++j) {
        double loss = PrivacyLossAnalyzer::lossAtOutput(model, j);
        EXPECT_TRUE(std::isfinite(loss)) << "j=" << j;
        EXPECT_LT(loss, 2.0 * p.epsilon) << "j=" << j;
    }
}

TEST(PrivacyLoss, UnreachableOutputsConventionallyMinusInf)
{
    FxpMechanismParams p = paperParams();
    auto pmf = pmfOf(p);
    NaiveOutputModel model(pmf, p.rangeIndexSpan());
    // An interior PMF gap beyond every input's reach from one side:
    // far beyond the top of the support nothing is producible.
    double loss = PrivacyLossAnalyzer::lossAtOutput(
        model, p.rangeIndexSpan() + pmf->maxIndex() + 10);
    EXPECT_EQ(loss, -kInf);
}

TEST(PrivacyLoss, ResamplingWithExactThresholdBounded)
{
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    for (double n : {1.5, 2.0, 3.0}) {
        int64_t t = calc.exactIndex(RangeControl::Resampling, n);
        ASSERT_GE(t, 0);
        ResamplingOutputModel model(calc.pmf(), calc.span(), t);
        LossReport report = PrivacyLossAnalyzer::analyze(model);
        EXPECT_TRUE(report.bounded) << "n=" << n;
        EXPECT_LE(report.worst_case_loss, n * p.epsilon + 1e-9)
            << "n=" << n;
    }
}

TEST(PrivacyLoss, ThresholdingWithExactThresholdBounded)
{
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    for (double n : {1.5, 2.0, 3.0}) {
        int64_t t = calc.exactIndex(RangeControl::Thresholding, n);
        ASSERT_GE(t, 0);
        ThresholdingOutputModel model(calc.pmf(), calc.span(), t);
        LossReport report = PrivacyLossAnalyzer::analyze(model);
        EXPECT_TRUE(report.bounded) << "n=" << n;
        EXPECT_LE(report.worst_case_loss, n * p.epsilon + 1e-9)
            << "n=" << n;
    }
}

TEST(PrivacyLoss, TooWideWindowBreaksResampling)
{
    // A window wider than the exact threshold must eventually exceed
    // the bound (that is what "exact" means).
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    int64_t t = calc.exactIndex(RangeControl::Resampling, 2.0);
    ResamplingOutputModel model(calc.pmf(), calc.span(), t + 1);
    LossReport report = PrivacyLossAnalyzer::analyze(model);
    EXPECT_GT(report.worst_case_loss, 2.0 * p.epsilon);
}

TEST(PrivacyLoss, LossGrowsTowardWindowEdge)
{
    // Fig. 8's shape: the per-output loss is (weakly) larger for
    // outputs farther outside the sensor range.
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    int64_t t = calc.exactIndex(RangeControl::Thresholding, 3.0);
    ThresholdingOutputModel model(calc.pmf(), calc.span(), t);

    double central = 0.0;
    for (int64_t j = 0; j <= calc.span(); ++j)
        central = std::max(central,
                           PrivacyLossAnalyzer::lossAtOutput(model, j));
    double edge = PrivacyLossAnalyzer::lossAtOutput(
        model, calc.span() + t - 5);
    EXPECT_GE(edge, central);
}

TEST(PrivacyLoss, LossCurveSkipsUnreachable)
{
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    int64_t t = 100;
    ResamplingOutputModel model(calc.pmf(), calc.span(), t);
    auto curve = PrivacyLossAnalyzer::lossCurve(model);
    EXPECT_FALSE(curve.empty());
    for (const auto &pt : curve) {
        EXPECT_GE(pt.output_index, model.outputLo());
        EXPECT_LE(pt.output_index, model.outputHi());
        EXPECT_TRUE(pt.loss == kInf || std::isfinite(pt.loss));
    }
}

TEST(PrivacyLoss, SatisfiesLdpHelper)
{
    // The LDP verdict is analyze()'s bounded flag and worst case,
    // compared with the bound as is: the exact search's window meets
    // 2 eps, the naive mechanism meets no bound at all.
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    int64_t t = calc.exactIndex(RangeControl::Resampling, 2.0);
    ResamplingOutputModel good(calc.pmf(), calc.span(), t);
    LossReport good_rep = PrivacyLossAnalyzer::analyze(good);
    EXPECT_TRUE(good_rep.bounded);
    EXPECT_LE(good_rep.worst_case_loss, 2.0 * p.epsilon);
    NaiveOutputModel bad(calc.pmf(), calc.span());
    EXPECT_FALSE(PrivacyLossAnalyzer::analyze(bad).bounded);
}

TEST(PrivacyLoss, AnalyzeIndependentOfJobCount)
{
    // The chunked parallel sweep must return the serial result
    // exactly -- same sup, same tie-broken argmax output, same
    // infinite-output census -- for every job count, on both a
    // bounded model and one with infinite-loss outputs.
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    int64_t t = calc.exactIndex(RangeControl::Resampling, 2.0);
    ResamplingOutputModel good(calc.pmf(), calc.span(), t);
    NaiveOutputModel bad(calc.pmf(), calc.span());

    for (const DiscreteOutputModel *model :
         {static_cast<const DiscreteOutputModel *>(&good),
          static_cast<const DiscreteOutputModel *>(&bad)}) {
        LossReport serial = PrivacyLossAnalyzer::analyze(*model, 1);
        for (int jobs : {0, 2, 3, 7}) {
            LossReport par =
                PrivacyLossAnalyzer::analyze(*model, jobs);
            EXPECT_EQ(par.worst_case_loss, serial.worst_case_loss)
                << "jobs=" << jobs;
            EXPECT_EQ(par.worst_output, serial.worst_output)
                << "jobs=" << jobs;
            EXPECT_EQ(par.bounded, serial.bounded)
                << "jobs=" << jobs;
            EXPECT_EQ(par.infinite_outputs, serial.infinite_outputs)
                << "jobs=" << jobs;
        }
    }
}

/** Parameterized sweep: the exact threshold keeps every
 *  configuration bounded across Bu / eps / resolution. */
class LossSweep
    : public ::testing::TestWithParam<
          std::tuple<int, double, double, double>>
{
};

TEST_P(LossSweep, ExactThresholdsAlwaysValid)
{
    auto [bu, eps, delta_frac, n] = GetParam();
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = eps;
    p.uniform_bits = bu;
    p.output_bits = 14;
    p.delta = 10.0 * delta_frac;
    ThresholdCalculator calc(p);

    for (RangeControl kind : {RangeControl::Resampling,
                              RangeControl::Thresholding}) {
        int64_t t = calc.exactIndex(kind, n);
        if (t < 0)
            continue; // configuration too coarse for this bound
        double loss = calc.exactLossAt(kind, t);
        EXPECT_LE(loss, n * eps * (1.0 + 1e-9) + 1e-12)
            << "bu=" << bu << " eps=" << eps << " kind="
            << static_cast<int>(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LossSweep,
    ::testing::Values(
        std::make_tuple(12, 0.5, 1.0 / 32.0, 2.0),
        std::make_tuple(14, 0.5, 1.0 / 32.0, 2.0),
        std::make_tuple(17, 0.5, 1.0 / 32.0, 1.5),
        std::make_tuple(17, 0.5, 1.0 / 32.0, 3.0),
        std::make_tuple(17, 1.0, 1.0 / 32.0, 2.0),
        std::make_tuple(17, 0.25, 1.0 / 32.0, 2.0),
        std::make_tuple(17, 0.5, 1.0 / 64.0, 2.0),
        std::make_tuple(17, 0.5, 1.0 / 16.0, 2.0),
        std::make_tuple(20, 0.5, 1.0 / 32.0, 2.0)));

} // anonymous namespace
} // namespace ulpdp
