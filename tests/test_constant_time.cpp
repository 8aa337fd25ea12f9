/**
 * @file
 * Tests for constant-time (K-batch) resampling: timing-channel
 * mitigation with exact distribution model and bounded loss.
 */

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/constant_time.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"

namespace ulpdp {
namespace {

FxpMechanismParams
testParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 12;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    return p;
}

std::shared_ptr<const FxpLaplacePmf>
testPmf()
{
    return std::make_shared<FxpLaplacePmf>(testParams().rngConfig());
}

TEST(ConstantTime, RejectsBadConfig)
{
    EXPECT_THROW(
        ConstantTimeResamplingMechanism(testParams(), -1, 4),
        FatalError);
    EXPECT_THROW(
        ConstantTimeResamplingMechanism(testParams(), 10, 0),
        FatalError);
    EXPECT_THROW(ConstantTimeOutputModel(testPmf(), 32, 10, 0),
                 FatalError);
}

TEST(ConstantTime, LatencyIsInputIndependent)
{
    // The whole point: every report costs exactly K samples, for
    // every input value.
    ConstantTimeResamplingMechanism mech(testParams(), 100, 6);
    for (double x : {0.0, 2.5, 5.0, 10.0}) {
        for (int i = 0; i < 500; ++i)
            EXPECT_EQ(mech.noise(x).samples_drawn, 6u);
    }
}

TEST(ConstantTime, OutputsConfinedToWindow)
{
    int64_t t = 80;
    ConstantTimeResamplingMechanism mech(testParams(), t, 4);
    double ext = static_cast<double>(t) * mech.delta();
    for (int i = 0; i < 20000; ++i) {
        double y = mech.noise(0.0).value;
        EXPECT_GE(y, -ext - 1e-9);
        EXPECT_LE(y, 10.0 + ext + 1e-9);
    }
}

TEST(ConstantTime, FallbackRateShrinksGeometrically)
{
    auto fallback_rate = [](int k) {
        ConstantTimeResamplingMechanism mech(testParams(), 40, k);
        for (int i = 0; i < 30000; ++i)
            mech.noise(0.0);
        return static_cast<double>(mech.clampFallbacks()) /
               static_cast<double>(mech.totalReports());
    };
    double k1 = fallback_rate(1);
    double k3 = fallback_rate(3);
    ASSERT_GT(k1, 0.0);
    // miss^3 ~ (miss)^3: three orders down for miss ~ 0.1-0.3.
    EXPECT_LT(k3, k1 * k1 * 2.0);
}

TEST(ConstantTime, ModelRowsSumToOne)
{
    for (int k : {1, 2, 5}) {
        ConstantTimeOutputModel model(testPmf(), 32, 100, k);
        for (int64_t i : {int64_t{0}, int64_t{16}, int64_t{32}}) {
            double sum = 0.0;
            for (int64_t j = model.outputLo(); j <= model.outputHi();
                 ++j)
                sum += model.prob(j, i);
            EXPECT_NEAR(sum, 1.0, 1e-12) << "k=" << k << " i=" << i;
        }
    }
}

TEST(ConstantTime, KEqualsOneMatchesThresholding)
{
    auto pmf = testPmf();
    ConstantTimeOutputModel ct(pmf, 32, 100, 1);
    ThresholdingOutputModel th(pmf, 32, 100);
    for (int64_t i : {int64_t{0}, int64_t{16}, int64_t{32}}) {
        for (int64_t j = ct.outputLo(); j <= ct.outputHi(); ++j) {
            EXPECT_NEAR(ct.prob(j, i), th.prob(j, i), 1e-12)
                << "i=" << i << " j=" << j;
        }
    }
}

TEST(ConstantTime, LargeKApproachesResampling)
{
    auto pmf = testPmf();
    ConstantTimeOutputModel ct(pmf, 32, 100, 64);
    ResamplingOutputModel rs(pmf, 32, 100);
    double tv = 0.0;
    for (int64_t j = ct.outputLo(); j <= ct.outputHi(); ++j)
        tv += std::abs(ct.prob(j, 0) - rs.prob(j, 0));
    EXPECT_LT(tv / 2.0, 1e-6);
}

TEST(ConstantTime, MonteCarloMatchesModel)
{
    FxpMechanismParams p = testParams();
    int64_t t = 100;
    int k = 3;
    ConstantTimeResamplingMechanism mech(p, t, k);
    ConstantTimeOutputModel model(testPmf(), 32, t, k);

    const int n = 300000;
    std::map<int64_t, uint64_t> counts;
    for (int i = 0; i < n; ++i) {
        double y = mech.noise(0.0).value;
        ++counts[static_cast<int64_t>(std::llround(y / mech.delta()))];
    }
    double tv = 0.0;
    for (int64_t j = model.outputLo(); j <= model.outputHi(); ++j) {
        double emp = counts.count(j)
            ? static_cast<double>(counts[j]) / n
            : 0.0;
        tv += std::abs(emp - model.prob(j, 0));
    }
    EXPECT_LT(tv / 2.0, 0.03);
}

TEST(ConstantTime, NeedsItsOwnThresholdButStaysBounded)
{
    // Instructive subtlety: the K-batch is NOT automatically within
    // the thresholding bound at the thresholding threshold -- its
    // interior is renormalised per input (like resampling), which
    // adds a Z(x1)/Z(x2) factor. The correct procedure is to search
    // the threshold against the K-batch model itself.
    FxpMechanismParams p = testParams();
    ThresholdCalculator calc(p);
    double bound = 2.0 * p.epsilon;
    int64_t t = calc.exactIndex(RangeControl::Thresholding, 2.0);
    ASSERT_GE(t, 0);

    auto loss_at = [&](int64_t thr) {
        ConstantTimeOutputModel model(calc.pmf(), calc.span(), thr,
                                      4);
        return PrivacyLossAnalyzer::analyze(model).worst_case_loss;
    };

    // At the thresholding threshold the K = 4 batch may exceed the
    // bound slightly...
    double at_thresh = loss_at(t);
    EXPECT_TRUE(std::isfinite(at_thresh));

    // ...but a dedicated search finds a valid window nearby.
    int64_t t_ok = t;
    while (t_ok > 0 && loss_at(t_ok) > bound + 1e-9)
        --t_ok;
    ASSERT_GT(t_ok, 0);
    EXPECT_LE(loss_at(t_ok), bound + 1e-9);
    EXPECT_GT(t_ok, t / 2); // nearby, not a collapse
}

TEST(ConstantTime, FallbackProbabilityFormula)
{
    ConstantTimeOutputModel model(testPmf(), 32, 60, 5);
    for (int64_t i : {int64_t{0}, int64_t{16}}) {
        double z = model.acceptProbability(i);
        EXPECT_NEAR(model.fallbackProbability(i),
                    std::pow(1.0 - z, 5), 1e-15);
    }
}

} // anonymous namespace
} // namespace ulpdp
