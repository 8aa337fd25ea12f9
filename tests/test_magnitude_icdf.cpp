/**
 * @file
 * Tests for the magnitude ICDF stage of the Fig. 3 pipeline: probit
 * accuracy, staircase correctness, the ICDF plugged into
 * FxpLaplaceRng / FxpLaplacePmf, the CORDIC log unit that must refuse
 * it, and the Section III-A4 generalization -- Gaussian and
 * staircase noise suffer the same infinite-loss failure and admit the
 * same window fixes.
 */

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "core/output_model.h"
#include "core/privacy_loss.h"
#include "rng/fxp_laplace_pmf.h"

namespace ulpdp {
namespace {

/** The Fig. 3 pipeline at range d = 10, Delta = d / 32, drawing
 *  through @p icdf. */
FxpLaplaceConfig
icdfConfig(std::shared_ptr<const MagnitudeIcdf> icdf, int bu = 12)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = bu;
    cfg.output_bits = 12;
    cfg.delta = 10.0 / 32.0;
    cfg.icdf = std::move(icdf);
    return cfg;
}

/** The exact PMF of @p cfg's pipeline, shareable by output models. */
std::shared_ptr<const NoisePmf>
enumeratedPmf(const FxpLaplaceConfig &cfg)
{
    return std::make_shared<const FxpLaplacePmf>(cfg);
}

/** The FatalError message of running @p f, or "". */
template <typename F>
std::string
fatalMessage(F f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** |N| for N ~ Lap(lambda) written as a plugged-in ICDF: the same
 *  expression as the pipeline's built-in Laplace stage. */
class NegLogIcdf : public MagnitudeIcdf
{
  public:
    explicit NegLogIcdf(double lambda) : lambda_(lambda) {}
    double magnitude(double u) const override
    {
        return -lambda_ * std::log(u);
    }

  private:
    double lambda_;
};

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
    EXPECT_THROW(GaussianMagnitude(-1.0), FatalError);
    EXPECT_THROW(GaussianMagnitude(0.0), FatalError);
    EXPECT_THROW(StaircaseMagnitude(10.0, 1.0, 0.0), FatalError);
    EXPECT_THROW(StaircaseMagnitude(10.0, 1.0, 1.0), FatalError);
    EXPECT_THROW(StaircaseMagnitude(0.0, 1.0, 0.5), FatalError);
}

TEST(FxpInversion, LaplacePathMatchesDedicatedImplementation)
{
    // The ICDF stage is the only thing an icdf changes: plugging in
    // -lambda ln u reproduces the built-in Laplace stage state for
    // state, and so bin for bin.
    FxpLaplaceConfig plugged =
        icdfConfig(std::make_shared<NegLogIcdf>(20.0));
    FxpLaplaceConfig builtin = plugged;
    builtin.icdf = nullptr;
    builtin.lambda = 20.0;

    FxpLaplaceRng a(plugged), b(builtin);
    for (uint64_t m = 1; m <= (uint64_t{1} << 12); ++m)
        ASSERT_EQ(a.pipeline(m, 1), b.pipeline(m, 1)) << "m=" << m;

    FxpLaplacePmf generic(plugged);
    FxpLaplacePmf dedicated(builtin);
    ASSERT_EQ(generic.maxIndex(), dedicated.maxIndex());
    for (int64_t k = 0; k <= generic.maxIndex(); ++k) {
        EXPECT_EQ(generic.magnitudeCount(k),
                  dedicated.magnitudeCount(k))
            << "k=" << k;
    }
}

TEST(FxpInversion, PipelineRejectsBadInputs)
{
    FxpLaplaceRng rng(
        icdfConfig(std::make_shared<GaussianMagnitude>(10.0)));
    EXPECT_THROW(rng.pipeline(0, 1), PanicError);
    EXPECT_THROW(rng.pipeline(1, 2), PanicError);
}

TEST(FxpInversion, CordicRefusesIcdf)
{
    // The CORDIC unit only computes ln: it cannot evaluate another
    // magnitude law.
    FxpLaplaceConfig cfg =
        icdfConfig(std::make_shared<GaussianMagnitude>(10.0));
    cfg.log_mode = FxpLaplaceConfig::LogMode::Cordic;
    std::string msg = fatalMessage([&] { FxpLaplaceRng rng(cfg); });
    EXPECT_NE(msg.find("icdf"), std::string::npos) << msg;
}

TEST(FxpInversion, MaxMagnitudeFollowsIcdf)
{
    // The largest pre-saturation magnitude is the ICDF at the
    // smallest URNG index u = 2^-Bu.
    auto icdf = std::make_shared<GaussianMagnitude>(10.0);
    FxpLaplaceRng rng(icdfConfig(icdf, 14));
    EXPECT_EQ(rng.maxMagnitude(), icdf->magnitude(std::ldexp(1.0, -14)));
    EXPECT_EQ(rng.pipeline(1, 1),
              rng.quantizer().quantizeToIndex(rng.maxMagnitude()));
}

TEST(FxpInversion, SharedPmfCacheKeysOnIcdf)
{
    // Two configs that differ only in their ICDF object describe
    // different pipelines: the memo must not hand one the other's PMF.
    FxpLaplacePmf::clearSharedCache();
    auto gauss = std::make_shared<GaussianMagnitude>(10.0);
    auto stair = std::make_shared<StaircaseMagnitude>(
        10.0, 1.0, StaircaseMagnitude::optimalGamma(1.0));
    auto a = FxpLaplacePmf::shared(icdfConfig(gauss));
    auto b = FxpLaplacePmf::shared(icdfConfig(stair));
    auto c = FxpLaplacePmf::shared(icdfConfig(nullptr));
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(a.get(), FxpLaplacePmf::shared(icdfConfig(gauss)).get());
    EXPECT_NE(a->maxIndex(), b->maxIndex());
    // The cached PMF keeps its ICDF alive.
    EXPECT_EQ(a->config().icdf.get(), gauss.get());
    FxpLaplacePmf::clearSharedCache();
}

TEST(FxpInversion, GaussianMomentsMatch)
{
    double sigma = 10.0;
    FxpLaplaceRng rng(
        icdfConfig(std::make_shared<GaussianMagnitude>(sigma), 17), 5);
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

    FxpLaplaceConfig cfg = icdfConfig(icdf, 17);
    cfg.delta = 0.1;
    cfg.output_bits = 14;
    FxpLaplaceRng rng(cfg, 7);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(std::abs(rng.sample()));
    EXPECT_NEAR(stats.mean(), expect, 0.03 * expect);
}

TEST(FxpInversion, EnumeratedPmfIsProper)
{
    for (int bu : {10, 14}) {
        auto pmf = enumeratedPmf(
            icdfConfig(std::make_shared<GaussianMagnitude>(15.0), bu));
        EXPECT_NEAR(pmf->totalMass(), 1.0, 1e-12) << "bu=" << bu;
        EXPECT_GT(pmf->maxIndex(), 0);
        // Tail telescopes.
        double sum = 0.0;
        for (int64_t k = 5; k <= pmf->maxIndex(); ++k)
            sum += pmf->pmf(k);
        EXPECT_NEAR(pmf->tailMass(5), sum, 1e-12);
        EXPECT_NEAR(pmf->upperMass(0) + pmf->tailMass(1), 1.0, 1e-12);
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
    for (size_t i = 0; i < 2; ++i) {
        FxpLaplaceConfig cfg = icdfConfig(icdfs[i], 32);
        cfg.output_bits = 14;
        FxpLaplacePmf pmf(cfg);
        FxpLaplaceRng rng(cfg);
        EXPECT_EQ(pmf.totalCount(), uint64_t{1} << 32) << "icdf " << i;
        EXPECT_EQ(pmf.maxIndex(), rng.pipeline(1, 1)) << "icdf " << i;
    }
}

TEST(SectionIIIA4, GaussianNaiveIsNotLdpEither)
{
    // The paper's generalization: swap Laplace for Gaussian and the
    // naive mechanism still has infinite loss...
    auto pmf = enumeratedPmf(
        icdfConfig(std::make_shared<GaussianMagnitude>(15.0), 14));
    NaiveOutputModel naive(pmf, 32);
    EXPECT_FALSE(PrivacyLossAnalyzer::analyze(naive).bounded);
}

TEST(SectionIIIA4, GaussianThresholdingRestoresBoundedLoss)
{
    // ...and the very same window control bounds it again. (Gaussian
    // tails decay faster than e^{-eps k}, so the bounded loss is a
    // function of the window; we just require finiteness and a sane
    // magnitude here.)
    auto pmf = enumeratedPmf(
        icdfConfig(std::make_shared<GaussianMagnitude>(15.0), 14));
    ThresholdingOutputModel model(pmf, 32, 40);
    LossReport rep = PrivacyLossAnalyzer::analyze(model);
    EXPECT_TRUE(rep.bounded);
    EXPECT_LT(rep.worst_case_loss, 10.0);
}

TEST(SectionIIIA4, StaircaseNaiveIsNotLdpEither)
{
    double eps = 0.5;
    auto pmf = enumeratedPmf(icdfConfig(
        std::make_shared<StaircaseMagnitude>(
            10.0, eps, StaircaseMagnitude::optimalGamma(eps)),
        14));
    NaiveOutputModel naive(pmf, 32);
    EXPECT_FALSE(PrivacyLossAnalyzer::analyze(naive).bounded);
}

TEST(SectionIIIA4, StaircaseResamplingBoundsLoss)
{
    double eps = 0.5;
    auto pmf = enumeratedPmf(icdfConfig(
        std::make_shared<StaircaseMagnitude>(
            10.0, eps, StaircaseMagnitude::optimalGamma(eps)),
        14));
    // A modest window; for staircase the per-step ratio is exactly
    // e^{-eps} per period, so small windows stay close to eps.
    ResamplingOutputModel model(pmf, 32, 64);
    LossReport rep = PrivacyLossAnalyzer::analyze(model);
    EXPECT_TRUE(rep.bounded);
    EXPECT_LT(rep.worst_case_loss, 4.0 * eps);
}

} // anonymous namespace
} // namespace ulpdp
