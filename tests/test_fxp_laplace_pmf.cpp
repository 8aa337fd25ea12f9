/**
 * @file
 * Tests for the exact PMF of the fixed-point Laplace RNG: the
 * pipeline's enumerated counts against the paper's closed form
 * (Eq. 11, evaluated here), and the paper's qualitative claims about
 * the distribution (bounded support, tail gaps, zeroed small
 * probabilities). The segment-rank engine behind the PMF is checked
 * here against the per-state walk of pmf_oracle.h, for the Laplace
 * stage and the Gaussian / staircase ICDF stages alike.
 */

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "fixed/quantizer.h"
#include "pmf_oracle.h"
#include "rng/fxp_laplace_pmf.h"

namespace ulpdp {
namespace {

FxpLaplaceConfig
configOf(int bu, int by, double delta, double lambda)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = bu;
    cfg.output_bits = by;
    cfg.delta = delta;
    cfg.lambda = lambda;
    return cfg;
}

/**
 * The paper's closed form, Eq. (11), evaluated in double. The URNG
 * indices of bin k are the half-open interval (m2(k), m1(k)], so the
 * bin holds floor(m1(k)) - floor(m2(k)) states, with both edges
 * clamped to 2^Bu (bin 0, where m1(0) > 2^Bu) and the saturation bin
 * absorbing every state below its lower edge. Bin edges follow the
 * quantizer: Nearest puts them at (k -/+ 1/2) Delta, Floor at k Delta
 * and (k + 1) Delta.
 */
class Eq11
{
  public:
    explicit Eq11(const FxpLaplaceConfig &cfg)
        : cfg_(cfg),
          states_(std::ldexp(1.0, cfg.uniform_bits)),
          sat_(Quantizer(cfg.delta, cfg.output_bits).maxIndex())
    {
    }

    /** m1(k) (the upper edge) or m2(k) of bin k, in URNG states. */
    double edge(int64_t k, bool upper) const
    {
        double e = static_cast<double>(k);
        if (cfg_.rounding == FxpLaplaceConfig::Rounding::Floor)
            e += upper ? 0.0 : 1.0;
        else
            e += upper ? -0.5 : 0.5;
        return states_ * std::exp(-cfg_.delta / cfg_.lambda * e);
    }

    /** States at or beyond bin k >= 1: floor(m1(k)). */
    uint64_t tail(int64_t k) const
    {
        return k <= sat_ ? clampedFloor(edge(k, true)) : 0;
    }

    /** States in bin k >= 0. */
    uint64_t count(int64_t k) const
    {
        if (k > sat_)
            return 0;
        uint64_t upper = clampedFloor(edge(k, true));
        uint64_t lower = k == sat_ ? 0 : clampedFloor(edge(k, false));
        return upper > lower ? upper - lower : 0;
    }

    /** The last bin holding a state. */
    int64_t maxIndex() const
    {
        int64_t k = 0;
        while (k < sat_ && tail(k + 1) > 0)
            ++k;
        return k;
    }

  private:
    uint64_t clampedFloor(double m) const
    {
        return static_cast<uint64_t>(std::floor(std::min(m, states_)));
    }

    FxpLaplaceConfig cfg_;
    double states_;
    int64_t sat_;
};

/** Eq. (11) and the pipeline agree on the support bound, and per bin
 *  to within the one state a floating-point boundary rounding can
 *  move, with few such moves in all. */
void
expectAgreesWithEq11(const FxpLaplacePmf &pmf)
{
    Eq11 eq(pmf.config());
    ASSERT_EQ(eq.maxIndex(), pmf.maxIndex());
    uint64_t total_diff = 0;
    for (int64_t k = 0; k <= pmf.maxIndex(); ++k) {
        uint64_t a = eq.count(k);
        uint64_t e = pmf.magnitudeCount(k);
        uint64_t diff = a > e ? a - e : e - a;
        EXPECT_LE(diff, 1u) << "k=" << k;
        total_diff += diff;
    }
    EXPECT_LE(total_diff,
              (uint64_t{1} << pmf.config().uniform_bits) / 1000 + 2);
}

/** A named magnitude ICDF for the pipeline's ICDF stage. */
struct InversionCase
{
    std::string name;
    std::shared_ptr<const MagnitudeIcdf> icdf;
};

/** The distribution bench's pipeline over @p icdf: range d = 10,
 *  Delta = d / 32, By = 14. */
FxpLaplaceConfig
inversionConfig(int bu, std::shared_ptr<const MagnitudeIcdf> icdf)
{
    FxpLaplaceConfig cfg = configOf(bu, 14, 10.0 / 32.0, 20.0);
    cfg.icdf = std::move(icdf);
    return cfg;
}

/** Gaussian (std matched to Lap(d / eps)) and optimal-gamma
 *  staircase noise at @p eps. */
std::vector<InversionCase>
inversionCases(double eps)
{
    const double d = 10.0;
    return {
        {"Gaussian",
         std::make_shared<GaussianMagnitude>(d / eps * std::sqrt(2.0))},
        {"Staircase",
         std::make_shared<StaircaseMagnitude>(
             d, eps, StaircaseMagnitude::optimalGamma(eps))},
    };
}

/** Every count, every tail and the support bound of @p engine equal
 *  the oracle walk's. */
void
expectSamePmf(const NoisePmf &engine, const NoisePmf &oracle)
{
    ASSERT_EQ(engine.maxIndex(), oracle.maxIndex());
    for (int64_t k = 0; k <= engine.maxIndex() + 2; ++k)
        ASSERT_EQ(engine.magnitudeCount(k), oracle.magnitudeCount(k))
            << "k=" << k;
    for (int64_t k = 1; k <= engine.maxIndex() + 2; ++k)
        ASSERT_EQ(engine.tailMass(k), oracle.tailMass(k)) << "k=" << k;
}

TEST(FxpLaplacePmf, TotalMassIsOneAnalytic)
{
    // Eq. (11)'s bins partition the 2^Bu URNG states exactly, as the
    // pipeline's do.
    FxpLaplaceConfig cfg = configOf(17, 12, 10.0 / 32.0, 20.0);
    Eq11 eq(cfg);
    uint64_t states = 0;
    for (int64_t k = 0; k <= eq.maxIndex(); ++k)
        states += eq.count(k);
    EXPECT_EQ(states, uint64_t{1} << 17);
    EXPECT_NEAR(FxpLaplacePmf(cfg).totalMass(), 1.0, 1e-12);
}

TEST(FxpLaplacePmf, TotalMassIsOneEnumerated)
{
    FxpLaplacePmf pmf(configOf(14, 10, 10.0 / 32.0, 20.0));
    EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12);
}

TEST(FxpLaplacePmf, EnumeratedRejectsHugeBu)
{
    // The segment engine covers the RNG's full width range (<= 32).
    EXPECT_THROW(FxpLaplacePmf(configOf(33, 12, 0.3, 20.0)),
                 FatalError);
    EXPECT_NO_THROW(FxpLaplacePmf(configOf(25, 12, 0.3, 20.0)));
}

/**
 * The property the segment-rank engine rests on: the Fig. 3 pipeline
 * magnitude is monotone non-increasing in the URNG index, for every
 * log mode and rounding mode, and so is the pipeline over the
 * Gaussian and staircase ICDFs. A violation here
 * invalidates the interval-arithmetic enumeration (and the engine's
 * bit-identity test below would be expected to fail with it).
 */
TEST(FxpLaplacePmf, PipelineIsMonotoneInUrngIndex)
{
    for (auto log_mode : {FxpLaplaceConfig::LogMode::Reference,
                          FxpLaplaceConfig::LogMode::Cordic}) {
        for (auto rounding : {FxpLaplaceConfig::Rounding::Nearest,
                              FxpLaplaceConfig::Rounding::Floor}) {
            FxpLaplaceConfig cfg =
                configOf(12, 12, 10.0 / 32.0, 20.0);
            cfg.log_mode = log_mode;
            cfg.rounding = rounding;
            FxpLaplaceRng rng(cfg);
            int64_t prev = rng.pipeline(1, 1);
            for (uint64_t m = 2; m <= (uint64_t{1} << 12); ++m) {
                int64_t k = rng.pipeline(m, 1);
                ASSERT_LE(k, prev)
                    << "m=" << m << " log=" << static_cast<int>(log_mode)
                    << " rounding=" << static_cast<int>(rounding);
                prev = k;
            }
        }
    }
    for (double eps : {0.5, 1.0}) {
        for (const InversionCase &c : inversionCases(eps)) {
            FxpLaplaceRng rng(inversionConfig(12, c.icdf));
            int64_t prev = rng.pipeline(1, 1);
            for (uint64_t m = 2; m <= (uint64_t{1} << 12); ++m) {
                int64_t k = rng.pipeline(m, 1);
                ASSERT_LE(k, prev)
                    << c.name << " eps=" << eps << " m=" << m;
                prev = k;
            }
        }
    }
}

/**
 * The segment-rank engine must reproduce the per-state walk exactly
 * -- every bin count, every tail sum, the support bound -- across
 * widths, log modes, rounding modes and scales, with the Eq. (11)
 * guess (Laplace) and without any guess (Gaussian, staircase). This
 * is the cross-check that lets the engine stand in for the walk.
 */
TEST(FxpLaplacePmf, SegmentEngineBitIdenticalToLegacyWalk)
{
    for (int bu : {8, 10, 12}) {
        for (double lambda : {20.0, 40.0, 26.0}) {
            for (auto log_mode : {FxpLaplaceConfig::LogMode::Reference,
                                  FxpLaplaceConfig::LogMode::Cordic}) {
                for (auto rounding :
                     {FxpLaplaceConfig::Rounding::Nearest,
                      FxpLaplaceConfig::Rounding::Floor}) {
                    FxpLaplaceConfig cfg =
                        configOf(bu, 12, 10.0 / 32.0, lambda);
                    cfg.log_mode = log_mode;
                    cfg.rounding = rounding;
                    FxpLaplacePmf fast(
                        cfg);
                    FxpLaplaceRng rng(cfg);
                    SCOPED_TRACE(testing::Message()
                                 << "Bu=" << bu << " lambda=" << lambda
                                 << " log=" << static_cast<int>(log_mode)
                                 << " rounding="
                                 << static_cast<int>(rounding));
                    expectSamePmf(fast, walkPmf(bu, [&](uint64_t m) {
                                      return rng.pipeline(m, 1);
                                  }));
                }
            }
        }
    }
    for (int bu : {12, 16, 20}) {
        for (double eps : {0.5, 1.0}) {
            for (const InversionCase &c : inversionCases(eps)) {
                FxpLaplaceConfig cfg = inversionConfig(bu, c.icdf);
                FxpLaplaceRng rng(cfg);
                SCOPED_TRACE(testing::Message() << c.name << " Bu=" << bu
                                                << " eps=" << eps);
                expectSamePmf(FxpLaplacePmf(
                                  cfg),
                              walkPmf(bu, [&](uint64_t m) {
                                  return rng.pipeline(m, 1);
                              }));
            }
        }
    }
}

TEST(FxpLaplacePmf, EnumeratedCountsSumExactlyToStateSpace)
{
    // uint64 accounting admits no slack: the per-bin counts sum to
    // exactly 2^Bu, tested as integer equality, including at widths
    // the per-state walk could never afford.
    for (int bu : {8, 12, 16, 20, 24, 28, 32}) {
        FxpLaplacePmf fast(configOf(bu, 14, 2.5, 80.0));
        EXPECT_EQ(fast.totalCount(), uint64_t{1} << bu)
            << "Bu=" << bu;
    }
    FxpLaplaceRng rng(configOf(12, 14, 2.5, 80.0));
    NoisePmf oracle = walkPmf(
        12, [&](uint64_t m) { return rng.pipeline(m, 1); });
    EXPECT_EQ(oracle.totalCount(), uint64_t{1} << 12);
}

TEST(FxpLaplacePmf, SharedCacheMemoizesPerConfigAndMode)
{
    FxpLaplacePmf::clearSharedCache();
    FxpLaplaceConfig cfg = configOf(12, 12, 0.3125, 20.0);
    auto a = FxpLaplacePmf::shared(cfg);
    auto b = FxpLaplacePmf::shared(cfg);
    EXPECT_EQ(a.get(), b.get()); // one object per configuration

    FxpLaplaceConfig other = cfg;
    other.lambda = 21.0;
    auto c = FxpLaplacePmf::shared(other);
    EXPECT_NE(a.get(), c.get());

    FxpLaplacePmf::clearSharedCache();
    auto d = FxpLaplacePmf::shared(cfg);
    EXPECT_NE(a.get(), d.get()); // cache was dropped
    // The old shared_ptr stays valid -- the cache holds strong refs,
    // clearing only unpins them.
    EXPECT_EQ(a->magnitudeCount(0), d->magnitudeCount(0));
    FxpLaplacePmf::clearSharedCache();
}

/**
 * The central test of Eq. (11): the closed form, evaluated in the
 * test, must reproduce the pipeline's enumerated count in (almost)
 * every bin. Floating-point boundary rounding can shift a single URNG
 * state between adjacent bins, so per-bin counts may differ by at
 * most 1 and the total number of shifted states must be tiny.
 */
class PmfAgreement
    : public ::testing::TestWithParam<
          std::tuple<int, int, double, double>>
{
};

TEST_P(PmfAgreement, AnalyticMatchesEnumerated)
{
    auto [bu, by, delta, lambda] = GetParam();
    expectAgreesWithEq11(FxpLaplacePmf(configOf(bu, by, delta, lambda)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PmfAgreement,
    ::testing::Values(
        std::make_tuple(12, 12, 10.0 / 32.0, 20.0), // paper-style
        std::make_tuple(14, 12, 10.0 / 32.0, 20.0),
        std::make_tuple(16, 12, 10.0 / 32.0, 20.0),
        std::make_tuple(12, 12, 10.0 / 32.0, 10.0), // eps = 1
        std::make_tuple(12, 12, 10.0 / 64.0, 20.0), // finer grid
        std::make_tuple(10, 12, 1.0, 5.0),          // coarse
        std::make_tuple(14, 12, 0.01, 2.0),         // near-continuous
        // Saturating: L = 20 * 14 * ln2 / 0.3125 = 621 exceeds the
        // 8-bit quantizer's top index 127, exercising the saturation
        // branch of Eq. (11).
        std::make_tuple(14, 8, 10.0 / 32.0, 20.0)));

/**
 * Floor rounding (the discrete-Laplace pipeline): the Eq. (11)
 * boundary shift from (k -+ 1/2) to (k, k + 1) must keep the closed
 * form aligned with the enumerated pipeline, same discipline as the
 * round-to-nearest agreement sweep above.
 */
TEST(FxpLaplacePmf, FloorRoundingAnalyticMatchesEnumerated)
{
    for (auto [bu, by, delta, lambda] :
         {std::make_tuple(12, 12, 10.0 / 32.0, 20.0),
          std::make_tuple(14, 12, 10.0 / 32.0, 20.0),
          std::make_tuple(10, 12, 1.0, 5.0),
          std::make_tuple(14, 8, 10.0 / 32.0, 20.0)}) { // saturating
        FxpLaplaceConfig cfg = configOf(bu, by, delta, lambda);
        cfg.rounding = FxpLaplaceConfig::Rounding::Floor;
        FxpLaplacePmf pmf(cfg);
        SCOPED_TRACE(testing::Message() << "Bu=" << bu << " By=" << by);
        expectAgreesWithEq11(pmf);
        EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12);
    }
}

/**
 * Floor magnitudes follow the two-sided geometric law: consecutive
 * interior bins decay by e^{-Delta/lambda} wherever the counts are
 * large enough for the integer rounding to be negligible.
 */
TEST(FxpLaplacePmf, FloorRoundingIsGeometric)
{
    FxpLaplaceConfig cfg = configOf(17, 12, 10.0 / 32.0, 20.0);
    cfg.rounding = FxpLaplaceConfig::Rounding::Floor;
    FxpLaplacePmf pmf(cfg);
    const double ratio = std::exp(-cfg.delta / cfg.lambda);
    for (int64_t k = 0; k < 20; ++k) {
        double c0 = static_cast<double>(pmf.magnitudeCount(k));
        double c1 = static_cast<double>(pmf.magnitudeCount(k + 1));
        ASSERT_GT(c0, 1000.0);
        EXPECT_NEAR(c1 / c0, ratio, 2.0 / 1000.0) << "k=" << k;
    }
}

TEST(FxpLaplacePmf, SupportBoundMatchesFormula)
{
    // max index ~ lambda * Bu * ln 2 / Delta (when the quantizer does
    // not saturate first).
    FxpLaplaceConfig cfg = configOf(17, 12, 10.0 / 32.0, 20.0);
    FxpLaplacePmf pmf(cfg);
    double l = cfg.lambda * cfg.uniform_bits * std::log(2.0);
    EXPECT_NEAR(static_cast<double>(pmf.maxIndex()), l / cfg.delta,
                1.0);
}

TEST(FxpLaplacePmf, TailHasInteriorGaps)
{
    // Fig. 4(b): near the tail the FxP RNG cannot generate all noise
    // values; some bins in the interior of the support are empty.
    FxpLaplacePmf pmf(configOf(17, 12, 10.0 / 32.0, 20.0));
    int64_t gap = pmf.firstInteriorGap();
    EXPECT_GT(gap, 0);
    EXPECT_LT(gap, pmf.maxIndex());
}

TEST(FxpLaplacePmf, NoGapsWhenResolutionIsCoarse)
{
    // With a coarse step relative to lambda (Delta/lambda ~ 1) every
    // bin down to the support edge collects at least one URNG state:
    // no interior gaps.
    FxpLaplacePmf pmf(configOf(17, 6, 5.0, 5.0));
    EXPECT_EQ(pmf.firstInteriorGap(), -1);
}

TEST(FxpLaplacePmf, ProbabilitiesAreMultiplesOfResolution)
{
    // Eq. (11): every probability is a multiple of 2^-(Bu+1).
    FxpLaplaceConfig cfg = configOf(12, 10, 10.0 / 32.0, 20.0);
    FxpLaplacePmf pmf(cfg);
    double unit = std::ldexp(1.0, -(cfg.uniform_bits + 1));
    for (int64_t k = 1; k <= pmf.maxIndex(); ++k) {
        double p = pmf.pmf(k);
        double mult = p / unit;
        EXPECT_NEAR(mult, std::round(mult), 1e-9) << "k=" << k;
    }
}

TEST(FxpLaplacePmf, SymmetricInSign)
{
    FxpLaplacePmf pmf(configOf(12, 10, 0.3125, 20.0));
    for (int64_t k = 1; k <= pmf.maxIndex(); k += 3)
        EXPECT_DOUBLE_EQ(pmf.pmf(k), pmf.pmf(-k));
}

TEST(FxpLaplacePmf, MatchesIdealLaplaceInBulk)
{
    // Fig. 4(a): in the high-density region the discrete PMF over a
    // bin approximates the ideal density times the bin width.
    FxpLaplaceConfig cfg = configOf(17, 12, 10.0 / 32.0, 20.0);
    FxpLaplacePmf pmf(cfg);
    for (int64_t k = 0; k <= 100; k += 10) {
        double x = static_cast<double>(k) * cfg.delta;
        double ideal = std::exp(-x / cfg.lambda) /
                       (2.0 * cfg.lambda) * cfg.delta;
        if (k == 0)
            ideal *= 1.0; // center bin also width Delta
        EXPECT_NEAR(pmf.pmf(k), ideal, 0.02 * ideal + 1e-7)
            << "k=" << k;
    }
}

TEST(FxpLaplacePmf, TailMassMatchesPaperFormula)
{
    // Pr[n >= k Delta] = floor(m1(k)) / 2^(Bu+1).
    FxpLaplaceConfig cfg = configOf(12, 10, 0.3125, 20.0);
    FxpLaplacePmf pmf(cfg);
    Eq11 eq(cfg);
    for (int64_t k : {int64_t{1}, int64_t{10}, int64_t{50},
                      int64_t{200}}) {
        EXPECT_DOUBLE_EQ(pmf.tailMass(k),
                         static_cast<double>(eq.tail(k)) /
                                 std::ldexp(1.0, 13))
            << "k=" << k;
    }
}

TEST(FxpLaplacePmf, AnalyticTablesEqualTheClosedFormEverywhere)
{
    // The PMF answers from its count table and its suffix sums; at
    // the reference log unit every count, probability and tail must
    // equal Eq. (11) evaluated on the spot, including the saturation
    // bin (By = 8 saturates long before the tail empties at Bu = 32)
    // and one index past the support.
    using Rounding = FxpLaplaceConfig::Rounding;
    for (Rounding rounding : {Rounding::Nearest, Rounding::Floor}) {
        for (int by : {12, 8}) {
            for (int bu : {8, 12, 17, 32}) {
                FxpLaplaceConfig cfg = configOf(bu, by, 10.0 / 32.0, 20.0);
                cfg.rounding = rounding;
                FxpLaplacePmf pmf(cfg);
                Eq11 eq(cfg);
                const double states = std::ldexp(1.0, bu);
                SCOPED_TRACE(testing::Message()
                             << "Bu " << bu << " By " << by
                             << (rounding == Rounding::Floor
                                     ? " floor" : " nearest"));
                EXPECT_EQ(pmf.totalCount(), uint64_t{1} << bu);
                for (int64_t k = 0; k <= pmf.maxIndex() + 1; ++k) {
                    double count = static_cast<double>(eq.count(k));
                    ASSERT_EQ(pmf.magnitudeCount(k), eq.count(k))
                        << "k=" << k;
                    double denom = k == 0 ? states : 2.0 * states;
                    ASSERT_EQ(pmf.pmf(k), count / denom) << "k=" << k;
                    ASSERT_EQ(pmf.pmf(-k), count / denom) << "k=" << k;
                    if (k >= 1) {
                        ASSERT_EQ(pmf.tailMass(k),
                                  static_cast<double>(eq.tail(k)) /
                                          (2.0 * states))
                            << "k=" << k;
                    }
                }
            }
        }
    }
}

TEST(FxpLaplacePmf, TailMassTelescopesFromPmf)
{
    FxpLaplacePmf pmf(configOf(12, 10, 0.3125, 20.0));
    for (int64_t k : {int64_t{1}, int64_t{7}, int64_t{100}}) {
        double sum = 0.0;
        for (int64_t j = k; j <= pmf.maxIndex(); ++j)
            sum += pmf.pmf(j);
        EXPECT_NEAR(pmf.tailMass(k), sum, 1e-12) << "k=" << k;
    }
}

TEST(FxpLaplacePmf, UpperMassCoversWholeLine)
{
    FxpLaplacePmf pmf(configOf(12, 10, 0.3125, 20.0));
    EXPECT_NEAR(pmf.upperMass(-pmf.maxIndex() - 1), 1.0, 1e-12);
    EXPECT_NEAR(pmf.upperMass(pmf.maxIndex() + 1), 0.0, 1e-12);
    // Decomposition: Pr[n >= 0] + Pr[n <= -1] = 1.
    EXPECT_NEAR(pmf.upperMass(0) + pmf.tailMass(1), 1.0, 1e-12);
}

TEST(FxpLaplacePmf, UpperMassMonotoneNonIncreasing)
{
    FxpLaplacePmf pmf(configOf(12, 10, 0.3125, 20.0));
    double prev = 1.0;
    for (int64_t k = -pmf.maxIndex(); k <= pmf.maxIndex(); k += 5) {
        double m = pmf.upperMass(k);
        EXPECT_LE(m, prev + 1e-12) << "k=" << k;
        prev = m;
    }
}

TEST(FxpLaplacePmf, EmpiricalHistogramMatchesPmf)
{
    // Sample the actual RNG and compare frequencies against the
    // enumerated PMF: total variation distance should be small.
    FxpLaplaceConfig cfg = configOf(12, 10, 0.3125, 20.0);
    FxpLaplacePmf pmf(cfg);
    FxpLaplaceRng rng(cfg, 77);

    std::map<int64_t, uint64_t> counts;
    const int n = 500000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.sampleIndex()];

    double tv = 0.0;
    for (int64_t k = -pmf.maxIndex(); k <= pmf.maxIndex(); ++k) {
        double emp = counts.count(k)
            ? static_cast<double>(counts[k]) / n
            : 0.0;
        tv += std::abs(emp - pmf.pmf(k));
    }
    tv /= 2.0;
    EXPECT_LT(tv, 0.02);
}

} // anonymous namespace
} // namespace ulpdp
