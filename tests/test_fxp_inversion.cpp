/**
 * @file
 * Tests for the generic fixed-point inversion RNG: cross-validation
 * against the Laplace path, probit accuracy, staircase correctness,
 * and the Section III-A4 generalization -- Gaussian and staircase
 * noise suffer the same infinite-loss failure and admit the same
 * window fixes.
 */

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "core/output_model.h"
#include "core/privacy_loss.h"
#include "rng/fxp_inversion.h"
#include "rng/fxp_laplace_pmf.h"

namespace ulpdp {
namespace {

FxpInversionConfig
invConfig(int bu = 12)
{
    FxpInversionConfig cfg;
    cfg.uniform_bits = bu;
    cfg.output_bits = 12;
    cfg.delta = 10.0 / 32.0;
    return cfg;
}

TEST(MagnitudeIcdf, LaplaceMatchesClosedForm)
{
    LaplaceMagnitude icdf(20.0);
    EXPECT_DOUBLE_EQ(icdf.magnitude(1.0), 0.0);
    EXPECT_NEAR(icdf.magnitude(std::exp(-1.0)), 20.0, 1e-12);
    EXPECT_THROW(icdf.magnitude(0.0), PanicError);
}

TEST(MagnitudeIcdf, ProbitAccuracy)
{
    // Spot-check against known quantiles.
    EXPECT_NEAR(GaussianMagnitude::probit(0.5), 0.0, 1e-9);
    EXPECT_NEAR(GaussianMagnitude::probit(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(GaussianMagnitude::probit(0.841344746), 1.0, 1e-6);
    EXPECT_NEAR(GaussianMagnitude::probit(0.001), -3.090232, 1e-5);
    EXPECT_NEAR(GaussianMagnitude::probit(1e-9), -5.997807, 1e-4);
}

TEST(MagnitudeIcdf, GaussianTailInversion)
{
    GaussianMagnitude icdf(2.0);
    // Pr[|N| >= x] = u  ->  x = sigma * probit(1 - u/2).
    EXPECT_NEAR(icdf.magnitude(1.0), 0.0, 1e-9);
    // u = 0.3173... corresponds to |N| >= sigma.
    EXPECT_NEAR(icdf.magnitude(0.31731050786), 2.0, 1e-6);
}

TEST(MagnitudeIcdf, StaircaseBasics)
{
    double eps = 1.0;
    double gamma = StaircaseMagnitude::optimalGamma(eps);
    EXPECT_GT(gamma, 0.0);
    EXPECT_LT(gamma, 1.0);
    StaircaseMagnitude icdf(10.0, eps, gamma);
    EXPECT_NEAR(icdf.magnitude(1.0), 0.0, 1e-9);
    // Period boundaries: Pr[|N| >= k d] = e^{-k eps}.
    for (int k = 1; k <= 5; ++k) {
        EXPECT_NEAR(icdf.magnitude(std::exp(-k * eps)), 10.0 * k,
                    1e-6)
            << "k=" << k;
    }
    // Monotone decreasing magnitude in u.
    double prev = icdf.magnitude(1e-6);
    for (double u = 1e-5; u <= 1.0; u *= 2.5) {
        double m = icdf.magnitude(std::min(u, 1.0));
        EXPECT_LE(m, prev + 1e-9);
        prev = m;
    }
}

TEST(MagnitudeIcdf, RejectsBadParams)
{
    EXPECT_THROW(LaplaceMagnitude(0.0), FatalError);
    EXPECT_THROW(GaussianMagnitude(-1.0), FatalError);
    EXPECT_THROW(StaircaseMagnitude(10.0, 1.0, 0.0), FatalError);
    EXPECT_THROW(StaircaseMagnitude(10.0, 1.0, 1.0), FatalError);
    EXPECT_THROW(StaircaseMagnitude(0.0, 1.0, 0.5), FatalError);
}

TEST(FxpInversion, LaplacePathMatchesDedicatedImplementation)
{
    // The generic pipeline with a Laplace ICDF must agree bin-for-bin
    // with FxpLaplaceRng's enumerated PMF.
    FxpInversionConfig cfg = invConfig(12);
    auto icdf = std::make_shared<LaplaceMagnitude>(20.0);
    NoisePmf generic = inversionPmf(cfg, icdf);

    FxpLaplaceConfig lap_cfg;
    lap_cfg.uniform_bits = 12;
    lap_cfg.output_bits = 12;
    lap_cfg.delta = cfg.delta;
    lap_cfg.lambda = 20.0;
    FxpLaplacePmf dedicated(lap_cfg, FxpLaplacePmf::Mode::Enumerated);

    ASSERT_EQ(generic.maxIndex(), dedicated.maxIndex());
    for (int64_t k = 0; k <= generic.maxIndex(); ++k) {
        EXPECT_EQ(generic.magnitudeCount(k),
                  dedicated.magnitudeCount(k))
            << "k=" << k;
    }
}

TEST(FxpInversion, PipelineRejectsBadInputs)
{
    FxpInversionRng rng(invConfig(),
                        std::make_shared<GaussianMagnitude>(10.0));
    EXPECT_THROW(rng.pipeline(0, 1), PanicError);
    EXPECT_THROW(rng.pipeline(1, 2), PanicError);
}

TEST(FxpInversion, GaussianMomentsMatch)
{
    double sigma = 10.0;
    FxpInversionConfig cfg = invConfig(17);
    FxpInversionRng rng(cfg, std::make_shared<GaussianMagnitude>(
                                 sigma), 5);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.sample());
    EXPECT_NEAR(stats.mean(), 0.0, 0.2);
    EXPECT_NEAR(stats.variance(), sigma * sigma,
                0.05 * sigma * sigma);
}

TEST(FxpInversion, StaircaseMomentsMatch)
{
    // E|N| for the staircase with optimal gamma is finite; check the
    // sampler against a numeric integral of the ICDF (E|N| =
    // integral_0^1 magnitude(u) du).
    double eps = 1.0;
    double gamma = StaircaseMagnitude::optimalGamma(eps);
    auto icdf = std::make_shared<StaircaseMagnitude>(10.0, eps,
                                                     gamma);
    double expect = 0.0;
    const int steps = 200000;
    for (int i = 0; i < steps; ++i) {
        double u = (i + 0.5) / steps;
        expect += icdf->magnitude(u);
    }
    expect /= steps;

    FxpInversionConfig cfg = invConfig(17);
    cfg.delta = 0.1;
    cfg.output_bits = 14;
    FxpInversionRng rng(cfg, icdf, 7);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(std::abs(rng.sample()));
    EXPECT_NEAR(stats.mean(), expect, 0.03 * expect);
}

TEST(FxpInversion, EnumeratedPmfIsProper)
{
    for (int bu : {10, 14}) {
        NoisePmf pmf = inversionPmf(
            invConfig(bu), std::make_shared<GaussianMagnitude>(15.0));
        EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12) << "bu=" << bu;
        EXPECT_GT(pmf.maxIndex(), 0);
        // Tail telescopes.
        double sum = 0.0;
        for (int64_t k = 5; k <= pmf.maxIndex(); ++k)
            sum += pmf.pmf(k);
        EXPECT_NEAR(pmf.tailMass(5), sum, 1e-12);
        EXPECT_NEAR(pmf.upperMass(0) + pmf.tailMass(1), 1.0, 1e-12);
    }
}

TEST(FxpInversion, ExactAtThirtyTwoBits)
{
    // The segment engine accounts for every one of the 2^32 URNG
    // states of a non-Laplace pipeline without visiting them, and the
    // support ends where the smallest URNG index lands.
    double eps = 0.5;
    std::shared_ptr<const MagnitudeIcdf> icdfs[] = {
        std::make_shared<GaussianMagnitude>(15.0),
        std::make_shared<StaircaseMagnitude>(
            10.0, eps, StaircaseMagnitude::optimalGamma(eps)),
    };
    for (const auto &icdf : icdfs) {
        FxpInversionConfig cfg = invConfig(32);
        cfg.output_bits = 14;
        NoisePmf pmf = inversionPmf(cfg, icdf);
        FxpInversionRng rng(cfg, icdf);
        EXPECT_EQ(pmf.totalCount(), uint64_t{1} << 32) << icdf->name();
        EXPECT_EQ(pmf.maxIndex(), rng.pipeline(1, 1)) << icdf->name();
    }
}

TEST(SectionIIIA4, GaussianNaiveIsNotLdpEither)
{
    // The paper's generalization: swap Laplace for Gaussian and the
    // naive mechanism still has infinite loss...
    auto pmf = std::make_shared<const NoisePmf>(inversionPmf(
        invConfig(14), std::make_shared<GaussianMagnitude>(15.0)));
    NaiveOutputModel naive(pmf, 32);
    EXPECT_FALSE(PrivacyLossAnalyzer::analyze(naive).bounded);
}

TEST(SectionIIIA4, GaussianThresholdingRestoresBoundedLoss)
{
    // ...and the very same window control bounds it again. (Gaussian
    // tails decay faster than e^{-eps k}, so the bounded loss is a
    // function of the window; we just require finiteness and a sane
    // magnitude here.)
    auto pmf = std::make_shared<const NoisePmf>(inversionPmf(
        invConfig(14), std::make_shared<GaussianMagnitude>(15.0)));
    ThresholdingOutputModel model(pmf, 32, 40);
    LossReport rep = PrivacyLossAnalyzer::analyze(model);
    EXPECT_TRUE(rep.bounded);
    EXPECT_LT(rep.worst_case_loss, 10.0);
}

TEST(SectionIIIA4, StaircaseNaiveIsNotLdpEither)
{
    double eps = 0.5;
    auto icdf = std::make_shared<StaircaseMagnitude>(
        10.0, eps, StaircaseMagnitude::optimalGamma(eps));
    FxpInversionConfig cfg = invConfig(14);
    auto pmf = std::make_shared<const NoisePmf>(inversionPmf(cfg, icdf));
    NaiveOutputModel naive(pmf, 32);
    EXPECT_FALSE(PrivacyLossAnalyzer::analyze(naive).bounded);
}

TEST(SectionIIIA4, StaircaseResamplingBoundsLoss)
{
    double eps = 0.5;
    auto icdf = std::make_shared<StaircaseMagnitude>(
        10.0, eps, StaircaseMagnitude::optimalGamma(eps));
    FxpInversionConfig cfg = invConfig(14);
    auto pmf = std::make_shared<const NoisePmf>(inversionPmf(cfg, icdf));
    // A modest window; for staircase the per-step ratio is exactly
    // e^{-eps} per period, so small windows stay close to eps.
    ResamplingOutputModel model(pmf, 32, 64);
    LossReport rep = PrivacyLossAnalyzer::analyze(model);
    EXPECT_TRUE(rep.bounded);
    EXPECT_LT(rep.worst_case_loss, 4.0 * eps);
}

} // anonymous namespace
} // namespace ulpdp
