/**
 * @file
 * Tests for the range-controlled mechanisms over non-Laplace noise
 * (Resampling- / ThresholdingMechanism with a magnitude ICDF in their
 * parameter block), plus the data-processing-inequality property of
 * the loss analysis (Section II-B: post-processing cannot increase
 * privacy loss).
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "core/output_model.h"
#include "core/privacy_loss.h"
#include "core/resampling_mechanism.h"
#include "core/thresholding_mechanism.h"
#include "query/utility.h"

namespace ulpdp {
namespace {

/** Range [0, 10] at Bu = 14, Delta = d / 32, drawing through
 *  @p icdf. */
FxpMechanismParams
icdfParams(std::shared_ptr<const MagnitudeIcdf> icdf, double eps = 0.5,
           uint64_t seed = 1)
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = eps;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    p.icdf = std::move(icdf);
    p.seed = seed;
    return p;
}

TEST(GenericMechanism, RejectsBadConfig)
{
    auto icdf = std::make_shared<GaussianMagnitude>(10.0);
    EXPECT_THROW(ThresholdingMechanism(icdfParams(icdf, 0.0), 50),
                 FatalError);
    EXPECT_THROW(ThresholdingMechanism(icdfParams(icdf), -1),
                 FatalError);
    FxpMechanismParams coarse = icdfParams(icdf);
    coarse.delta = 100.0;
    EXPECT_THROW(ThresholdingMechanism(coarse, 5), FatalError);
    FxpMechanismParams cordic = icdfParams(icdf);
    cordic.log_mode = FxpLaplaceConfig::LogMode::Cordic;
    EXPECT_THROW(ResamplingMechanism(cordic, 5), FatalError);
}

TEST(GenericMechanism, GaussianOutputsConfinedAndUnbiased)
{
    int64_t t = 80;
    ThresholdingMechanism mech(
        icdfParams(std::make_shared<GaussianMagnitude>(8.0)), t);
    double ext = static_cast<double>(t) * mech.delta();
    RunningStats stats;
    for (int i = 0; i < 50000; ++i) {
        double y = mech.noise(5.0).value;
        EXPECT_GE(y, -ext - 1e-9);
        EXPECT_LE(y, 10.0 + ext + 1e-9);
        stats.add(y);
    }
    EXPECT_NEAR(stats.mean(), 5.0, 0.3);
}

TEST(GenericMechanism, StaircaseThroughUtilityHarness)
{
    double eps = 1.0;
    auto icdf = std::make_shared<StaircaseMagnitude>(
        10.0, eps, StaircaseMagnitude::optimalGamma(eps));
    ResamplingMechanism mech(icdfParams(icdf, eps), 100);

    std::vector<double> data;
    for (int i = 0; i < 300; ++i)
        data.push_back(2.0 + 6.0 * (i % 60) / 59.0);
    UtilityEvaluator eval(40);
    UtilityResult r = eval.evaluate(data, mech, MeanQuery());
    EXPECT_GT(r.mae, 0.0);
    EXPECT_LT(r.mae, 3.0);
    EXPECT_GE(r.avgSamplesPerReport(), 1.0);
}

TEST(GenericMechanism, ResamplingCountsAttempts)
{
    ResamplingMechanism mech(
        icdfParams(std::make_shared<GaussianMagnitude>(20.0)), 10);
    uint64_t total = 0;
    for (int i = 0; i < 2000; ++i)
        total += mech.noise(5.0).samples_drawn;
    EXPECT_GT(total, 2000u); // tight window: must have resampled
}

/** FNV-1a over the bytes of @p v, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Hash of (value bits, samples_drawn) over 20 000 reports of
 *  @p mech on inputs cycling through [0, 10] in steps of 0.25. */
uint64_t
reportHash(Mechanism &mech)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 20000; ++i) {
        NoisedReport r = mech.noise(0.25 * (i % 41));
        uint64_t bits;
        std::memcpy(&bits, &r.value, sizeof bits);
        h = fnv1a(fnv1a(h, bits), r.samples_drawn);
    }
    return h;
}

TEST(GenericMechanism, ReportsPinnedBitForBit)
{
    // Gaussian (std matched to Lap(d / eps)) and optimal-gamma
    // staircase noise at eps = 1, Bu = 14, window T = 40, seed 7.
    // The hashes were recorded from the standalone inversion
    // mechanism the ICDF stage replaced, so every released value and
    // every attempt count is unchanged by the merge.
    const double d = 10.0, eps = 1.0;
    struct Case
    {
        std::shared_ptr<const MagnitudeIcdf> icdf;
        uint64_t resampling;
        uint64_t thresholding;
    };
    const Case cases[] = {
        {std::make_shared<GaussianMagnitude>(d / eps * std::sqrt(2.0)),
         0xd885959402b83c1eull, 0x1a7344f0a4f75093ull},
        {std::make_shared<StaircaseMagnitude>(
             d, eps, StaircaseMagnitude::optimalGamma(eps)),
         0xddf45725bf61a3a0ull, 0x844f9ef848c06c4cull},
    };
    // The table path and the per-draw ICDF path consume the same
    // URNG words, so both reproduce the pins.
    for (auto path : {FxpLaplaceConfig::SamplePath::Table,
                      FxpLaplaceConfig::SamplePath::Naive}) {
        for (const Case &c : cases) {
            FxpMechanismParams p = icdfParams(c.icdf, eps, 7);
            p.sample_path = path;
            ResamplingMechanism resamp(p, 40);
            EXPECT_EQ(reportHash(resamp), c.resampling);
            ThresholdingMechanism thresh(p, 40);
            EXPECT_EQ(reportHash(thresh), c.thresholding);
        }
    }
}

/**
 * Data-processing inequality: for any post-processing channel
 * applied to a mechanism's outputs, the worst-case loss of the
 * composed system is at most the mechanism's. Verified over random
 * stochastic channels.
 */
class PostProcessedModel : public DiscreteOutputModel
{
  public:
    PostProcessedModel(const DiscreteOutputModel &base,
                       std::vector<std::vector<double>> channel)
        : base_(base), channel_(std::move(channel))
    {
    }

    int64_t span() const override { return base_.span(); }
    int64_t outputLo() const override { return 0; }
    int64_t
    outputHi() const override
    {
        return static_cast<int64_t>(channel_[0].size()) - 1;
    }
    std::string name() const override { return "post-processed"; }

    void
    row(int64_t j, double *out) const override
    {
        size_t n = static_cast<size_t>(span()) + 1;
        std::vector<double> base_row(n);
        std::fill(out, out + n, 0.0);
        for (int64_t y = base_.outputLo(); y <= base_.outputHi();
             ++y) {
            base_.row(y, base_row.data());
            size_t r = static_cast<size_t>(y - base_.outputLo());
            double w = channel_[r][static_cast<size_t>(j)];
            for (size_t i = 0; i < n; ++i)
                out[i] += base_row[i] * w;
        }
    }

  private:
    const DiscreteOutputModel &base_;
    std::vector<std::vector<double>> channel_;
};

TEST(DataProcessing, PostProcessingNeverIncreasesLoss)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = 12;
    cfg.output_bits = 10;
    cfg.delta = 10.0 / 32.0;
    cfg.lambda = 20.0;
    auto pmf = std::make_shared<FxpLaplacePmf>(cfg);
    ThresholdingOutputModel base(pmf, 32, 80);
    double base_loss =
        PrivacyLossAnalyzer::analyze(base).worst_case_loss;

    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    size_t in_bins = static_cast<size_t>(base.outputHi() -
                                         base.outputLo()) + 1;
    for (int trial = 0; trial < 3; ++trial) {
        // Random stochastic channel onto 8 buckets.
        std::vector<std::vector<double>> channel(
            in_bins, std::vector<double>(8));
        for (auto &row : channel) {
            double sum = 0.0;
            for (auto &v : row) {
                v = unif(rng);
                sum += v;
            }
            for (auto &v : row)
                v /= sum;
        }
        PostProcessedModel processed(base, std::move(channel));
        double loss =
            PrivacyLossAnalyzer::analyze(processed).worst_case_loss;
        EXPECT_LE(loss, base_loss + 1e-9) << "trial=" << trial;
    }
}

TEST(DataProcessing, DeterministicBucketingAlsoBounded)
{
    // A deterministic coarsening (e.g. reporting deciles instead of
    // values) is a special channel: loss still bounded by the base.
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = 12;
    cfg.output_bits = 10;
    cfg.delta = 10.0 / 32.0;
    cfg.lambda = 20.0;
    auto pmf = std::make_shared<FxpLaplacePmf>(cfg);
    ResamplingOutputModel base(pmf, 32, 100);
    double base_loss =
        PrivacyLossAnalyzer::analyze(base).worst_case_loss;

    size_t in_bins = static_cast<size_t>(base.outputHi() -
                                         base.outputLo()) + 1;
    std::vector<std::vector<double>> channel(
        in_bins, std::vector<double>(10, 0.0));
    for (size_t y = 0; y < in_bins; ++y)
        channel[y][y * 10 / in_bins] = 1.0;
    PostProcessedModel processed(base, std::move(channel));
    double loss =
        PrivacyLossAnalyzer::analyze(processed).worst_case_loss;
    EXPECT_LE(loss, base_loss + 1e-9);
    EXPECT_GT(loss, 0.0);
}

} // anonymous namespace
} // namespace ulpdp
