/**
 * @file
 * Tests for the exact privacy-loss analyzer: the paper's central
 * claims. The naive fixed-point baseline has infinite worst-case
 * loss (Section III-A3); resampling and thresholding with properly
 * chosen thresholds keep it bounded (Section III-B); the ideal
 * continuous mechanism would have loss exactly eps.
 */

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "agg/decode.h"
#include "common/logging.h"
#include "core/constant_time.h"
#include "core/output_model.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"
#include "rng/magnitude_icdf.h"

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

/**
 * Reference model for the row-kernel equivalence test: Pr[j | i] one
 * probability at a time, from NoisePmf masses only (Z(i) as the
 * sequential window sum), the per-entry formulas the row kernel
 * replaced.
 */
struct ReferenceModel
{
    std::string name;
    int64_t lo;
    int64_t hi;
    std::function<double(int64_t, int64_t)> prob;
};

std::vector<ReferenceModel>
referenceModels(const NoisePmf &pmf, int64_t span, int64_t t, int k)
{
    int64_t lo = -t;
    int64_t hi = span + t;
    auto z = [&pmf, span, lo, hi] {
        std::vector<double> acc;
        for (int64_t i = 0; i <= span; ++i) {
            double sum = 0.0;
            for (int64_t y = lo; y <= hi; ++y)
                sum += pmf.pmf(y - i);
            acc.push_back(sum);
        }
        return acc;
    }();
    auto in = [lo, hi](int64_t j) { return j >= lo && j <= hi; };
    double flip = pmf.tailMass(span / 2 + 1);
    const NoisePmf *m = &pmf;
    return {
        {"naive", -pmf.maxIndex(), span + pmf.maxIndex(),
         [m](int64_t j, int64_t i) { return m->pmf(j - i); }},
        {"resampling", lo, hi,
         [m, z, in](int64_t j, int64_t i) {
             return in(j) ? m->pmf(j - i) / z[static_cast<size_t>(i)]
                          : 0.0;
         }},
        {"thresholding", lo, hi,
         [m, in, lo, hi](int64_t j, int64_t i) {
             if (!in(j))
                 return 0.0;
             if (j == hi)
                 return m->upperMass(hi - i);
             if (j == lo)
                 return m->upperMass(i - lo);
             return m->pmf(j - i);
         }},
        {"constant-time", lo, hi,
         [m, z, in, lo, hi, k](int64_t j, int64_t i) {
             if (!in(j))
                 return 0.0;
             double zi = z[static_cast<size_t>(i)];
             double miss = 1.0 - zi;
             double p = m->pmf(j - i) * ((1.0 - std::pow(miss, k)) / zi);
             if (j == hi || j == lo) {
                 double beyond = (j == hi) ? m->tailMass(hi - i + 1)
                                           : m->tailMass(i - lo + 1);
                 p += std::pow(miss, k - 1) * beyond;
             }
             return p;
         }},
        {"randomized-response", 0, span,
         [flip, span](int64_t j, int64_t i) {
             int64_t cat = (2 * i > span) ? span : 0;
             if (j != 0 && j != span)
                 return 0.0;
             return (j == cat) ? 1.0 - flip : flip;
         }},
    };
}

/** Reference per-output loss: max/min over inputs of prob(j, i). */
double
referenceLoss(const ReferenceModel &ref, int64_t span, int64_t j)
{
    double p_max = 0.0;
    double p_min = kInf;
    for (int64_t i = 0; i <= span; ++i) {
        double p = ref.prob(j, i);
        p_max = p > p_max ? p : p_max;
        p_min = p < p_min ? p : p_min;
    }
    if (p_max <= 0.0)
        return -kInf;
    if (p_min <= 0.0)
        return kInf;
    return std::log(p_max / p_min);
}

/** Compare one model with its reference: rows, lossCurve, analyze()
 *  at 1 and 4 jobs and, for the windowed kinds, the decoder channel
 *  (counted in @p channels). */
void
expectModelMatches(const DiscreteOutputModel &model,
                   const ReferenceModel &ref, const std::string &where,
                   int &channels)
{
    SCOPED_TRACE(where + " " + ref.name);
    const int64_t span = model.span();
    ASSERT_EQ(model.outputLo(), ref.lo);
    ASSERT_EQ(model.outputHi(), ref.hi);

    std::vector<double> row(static_cast<size_t>(span) + 1);
    LossReport want;
    want.worst_output = ref.lo;
    std::vector<OutputLoss> curve;
    // One output beyond each end: those rows must be all zeros.
    for (int64_t j = ref.lo - 1; j <= ref.hi + 1; ++j) {
        model.row(j, row.data());
        for (int64_t i = 0; i <= span; ++i) {
            ASSERT_EQ(row[static_cast<size_t>(i)], ref.prob(j, i))
                << "j " << j << " i " << i;
        }
        if (j < ref.lo || j > ref.hi)
            continue;
        double loss = referenceLoss(ref, span, j);
        ASSERT_EQ(PrivacyLossAnalyzer::lossAtOutput(model, j), loss)
            << "j " << j;
        if (loss == -kInf)
            continue;
        curve.push_back(OutputLoss{j, loss});
        want.infinite_outputs += loss == kInf ? 1 : 0;
        if (loss > want.worst_case_loss) {
            want.worst_case_loss = loss;
            want.worst_output = j;
        }
    }

    for (int jobs : {1, 4}) {
        LossReport got = PrivacyLossAnalyzer::analyze(model, jobs);
        EXPECT_EQ(got.worst_case_loss, want.worst_case_loss) << jobs;
        EXPECT_EQ(got.worst_output, want.worst_output) << jobs;
        EXPECT_EQ(got.infinite_outputs, want.infinite_outputs) << jobs;
        EXPECT_EQ(got.bounded, std::isfinite(want.worst_case_loss));
    }
    std::vector<OutputLoss> got_curve =
        PrivacyLossAnalyzer::lossCurve(model);
    ASSERT_EQ(got_curve.size(), curve.size());
    for (size_t n = 0; n < curve.size(); ++n) {
        EXPECT_EQ(got_curve[n].output_index, curve[n].output_index);
        EXPECT_EQ(got_curve[n].loss, curve[n].loss);
    }

    // The decoder inverts the windowed channels (naive and randomized
    // response have no bounded full-rank window). It refuses a
    // numerically rank-deficient channel -- a square T = 0 window
    // under the widest Gaussian and staircase noise -- and there is
    // no channel to compare.
    if (ref.name == "naive" || ref.name == "randomized-response")
        return;
    std::unique_ptr<agg::FrequencyDecoder> decoder;
    try {
        decoder = std::make_unique<agg::FrequencyDecoder>(model);
    } catch (const FatalError &) {
        return;
    }
    ++channels;
    const std::vector<double> &channel = decoder->channel();
    ASSERT_EQ(channel.size(),
              static_cast<size_t>((ref.hi - ref.lo + 1) * (span + 1)));
    for (int64_t j = ref.lo; j <= ref.hi; ++j) {
        for (int64_t i = 0; i <= span; ++i) {
            size_t at = static_cast<size_t>((j - ref.lo) * (span + 1) + i);
            ASSERT_EQ(channel[at], ref.prob(j, i))
                << "channel j " << j << " i " << i;
        }
    }
}

/** The registry-shaped models at window extension @p t. */
std::vector<std::unique_ptr<DiscreteOutputModel>>
rowModels(const std::shared_ptr<const NoisePmf> &pmf, int64_t span,
          int64_t t, int k)
{
    std::vector<std::unique_ptr<DiscreteOutputModel>> models;
    models.push_back(std::make_unique<NaiveOutputModel>(pmf, span));
    models.push_back(
        std::make_unique<ResamplingOutputModel>(pmf, span, t));
    models.push_back(
        std::make_unique<ThresholdingOutputModel>(pmf, span, t));
    models.push_back(
        std::make_unique<ConstantTimeOutputModel>(pmf, span, t, k));
    models.push_back(
        std::make_unique<RandomizedResponseOutputModel>(pmf, span));
    return models;
}

/** Every row-kernel model against the reference at the window
 *  extensions that matter: none, the exact thresholds and one past
 *  them, the support bound, and a window wider than the support. */
void
expectRowKernelMatches(const FxpMechanismParams &p,
                       const std::string &where, int &channels)
{
    ThresholdCalculator calc(p);
    std::shared_ptr<const NoisePmf> pmf = calc.pmf();
    const int64_t span = calc.span();
    std::vector<int64_t> windows = {0, pmf->maxIndex(),
                                    pmf->maxIndex() + span + 3};
    for (RangeControl kind :
         {RangeControl::Resampling, RangeControl::Thresholding}) {
        int64_t t_star = calc.exactIndex(kind, 2.0);
        if (t_star >= 0) {
            windows.push_back(t_star);
            windows.push_back(t_star + 1);
        }
    }
    for (int64_t t : windows) {
        auto models = rowModels(pmf, span, t, 4);
        auto refs = referenceModels(*pmf, span, t, 4);
        for (size_t n = 0; n < models.size(); ++n) {
            expectModelMatches(*models[n], refs[n],
                               where + " T " + std::to_string(t),
                               channels);
        }
    }
}

TEST(PrivacyLoss, RowKernelMatchesPerProbabilitySweep)
{
    int channels = 0;
    for (int bu : {8, 12, 17, 32}) {
        for (double eps : {0.5, 1.0}) {
            FxpMechanismParams p = paperParams();
            p.uniform_bits = bu;
            p.epsilon = eps;
            p.output_bits = 16;
            expectRowKernelMatches(
                p, "Laplace Bu " + std::to_string(bu) + " eps " +
                       std::to_string(eps),
                channels);
        }
    }

    // Gaussian and staircase pipelines: their PMFs have interior
    // gaps, so windows hold outputs some inputs cannot produce.
    bool saw_gap = false;
    for (int bu : {12, 17}) {
        for (double eps : {0.5, 1.0}) {
            const double d = 10.0;
            std::vector<std::shared_ptr<const MagnitudeIcdf>> stages = {
                std::make_shared<GaussianMagnitude>(d / eps *
                                                    std::sqrt(2.0)),
                std::make_shared<StaircaseMagnitude>(
                    d, eps, StaircaseMagnitude::optimalGamma(eps))};
            for (const auto &icdf : stages) {
                FxpMechanismParams p = paperParams();
                p.uniform_bits = bu;
                p.epsilon = eps;
                p.output_bits = 16;
                p.icdf = icdf;
                saw_gap = saw_gap ||
                          ThresholdCalculator(p).pmf()->firstInteriorGap() >= 0;
                expectRowKernelMatches(
                    p, "ICDF Bu " + std::to_string(bu) + " eps " +
                           std::to_string(eps),
                    channels);
            }
        }
    }
    EXPECT_TRUE(saw_gap);
    EXPECT_GT(channels, 0);
}

TEST(PrivacyLoss, RowKernelSkipsUnreachableWindowEdge)
{
    // A window wider than the noise support: the outputs at its edge
    // are produced by no input, so their rows are all zeros and the
    // sweep skips them (loss -inf) rather than counting them as
    // infinite-loss outputs -- those are the partly reachable ones.
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    const int64_t t = calc.pmf()->maxIndex() + calc.span() + 3;
    ResamplingOutputModel resampling(calc.pmf(), calc.span(), t);
    ThresholdingOutputModel thresholding(calc.pmf(), calc.span(), t);
    for (const DiscreteOutputModel *model :
         {static_cast<const DiscreteOutputModel *>(&resampling),
          static_cast<const DiscreteOutputModel *>(&thresholding)}) {
        SCOPED_TRACE(model->name());
        std::vector<double> row(static_cast<size_t>(model->span()) + 1);
        for (int64_t j : {model->outputLo(), model->outputLo() + 1,
                          model->outputHi() - 1, model->outputHi()}) {
            model->row(j, row.data());
            for (double pr : row)
                EXPECT_EQ(pr, 0.0) << "j " << j;
            EXPECT_EQ(PrivacyLossAnalyzer::lossAtOutput(*model, j), -kInf);
        }
        auto curve = PrivacyLossAnalyzer::lossCurve(*model);
        ASSERT_FALSE(curve.empty());
        EXPECT_GT(curve.front().output_index, model->outputLo() + 1);
        EXPECT_LT(curve.back().output_index, model->outputHi() - 1);
        uint64_t infinite = 0;
        for (const OutputLoss &pt : curve)
            infinite += pt.loss == kInf ? 1 : 0;
        EXPECT_GT(infinite, 0u);
        EXPECT_EQ(PrivacyLossAnalyzer::analyze(*model).infinite_outputs,
                  infinite);
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
