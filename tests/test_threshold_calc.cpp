/**
 * @file
 * Tests for threshold selection (Eqs. 13/15 and the exact searches),
 * including the reproduction finding that the paper's Eq. (15)
 * thresholding bound can admit interior PMF gaps.
 */

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/discrete_laplace.h"
#include "core/mechanism_registry.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"
#include "pmf_oracle.h"
#include "rng/magnitude_icdf.h"
#include "telemetry/telemetry.h"

namespace ulpdp {
namespace {

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

/** Gaussian (std matched to Lap(d / eps)) and optimal-gamma
 *  staircase magnitude ICDFs for paperParams()'s range at @p eps. */
std::vector<std::shared_ptr<const MagnitudeIcdf>>
icdfStages(double eps)
{
    const double d = 10.0;
    return {std::make_shared<GaussianMagnitude>(d / eps * std::sqrt(2.0)),
            std::make_shared<StaircaseMagnitude>(
                d, eps, StaircaseMagnitude::optimalGamma(eps))};
}

/** exactIndex()'s bound for loss multiple @p n at @p eps. */
double
searchBound(double n, double eps)
{
    return n * eps * (1.0 + 1e-9) + 1e-12;
}

/** The window search's answer by walking T = 0, 1, ... until the
 *  exact loss first exceeds the bound. */
int64_t
linearScan(const ThresholdCalculator &calc, RangeControl kind,
           double bound)
{
    int64_t linear = -1;
    while (linear < calc.pmf()->maxIndex() &&
           calc.exactLossAt(kind, linear + 1) <= bound)
        ++linear;
    return linear;
}

/** Every bracket of the sweep for @p bound, T = 0 .. maxIndex. */
std::vector<LossBracket>
allBrackets(const ThresholdCalculator &calc, RangeControl kind,
            double bound)
{
    std::vector<LossBracket> out;
    calc.sweep(kind, bound, [&](const LossBracket &b) {
        out.push_back(b);
        return true;
    });
    return out;
}

const char *
kindName(RangeControl kind)
{
    return kind == RangeControl::Resampling ? "resampling"
                                            : "thresholding";
}

TEST(ThresholdCalc, RejectsLossMultipleAtMostOne)
{
    ThresholdCalculator calc(paperParams());
    EXPECT_THROW(calc.closedFormIndex(RangeControl::Resampling, 1.0),
                 FatalError);
    EXPECT_THROW(calc.closedFormIndex(RangeControl::Resampling, 0.5),
                 FatalError);
    EXPECT_THROW(calc.exactIndex(RangeControl::Thresholding, 1.0),
                 FatalError);
}

TEST(ThresholdCalc, RejectsDegenerateRange)
{
    FxpMechanismParams p = paperParams();
    p.delta = 100.0; // coarser than the whole range
    EXPECT_THROW(ThresholdCalculator calc(p), FatalError);
}

TEST(ThresholdCalc, ClosedFormResamplingIsConservative)
{
    // Eq. (13) uses worst-case floor/ceil slack, so its threshold must
    // not exceed the exact one, and the loss at it must satisfy the
    // bound.
    ThresholdCalculator calc(paperParams());
    for (double n : {1.5, 2.0, 3.0}) {
        int64_t closed =
            calc.closedFormIndex(RangeControl::Resampling, n);
        int64_t exact = calc.exactIndex(RangeControl::Resampling, n);
        EXPECT_LE(closed, exact) << "n=" << n;
        EXPECT_LE(calc.exactLossAt(RangeControl::Resampling, closed),
                  n * 0.5 + 1e-9)
            << "n=" << n;
    }
}

TEST(ThresholdCalc, PaperExampleResamplingValues)
{
    // Regression anchors for the paper's running configuration
    // (Bu=17, Delta=10/32, Lap(20), eps=0.5). Values derived from
    // the exact analysis; the closed form is a few bins tighter.
    ThresholdCalculator calc(paperParams());
    EXPECT_EQ(calc.closedFormIndex(RangeControl::Resampling, 2.0), 376);
    EXPECT_EQ(calc.exactIndex(RangeControl::Resampling, 2.0), 418);
}

TEST(ThresholdCalc, ClosedFormThresholdingMatchesEq15Formula)
{
    // Direct evaluation of Eq. (15) for the paper configuration.
    FxpMechanismParams p = paperParams();
    ThresholdCalculator calc(p);
    double a = p.resolvedDelta() / p.lambda();
    for (double n : {1.5, 2.0, 3.0}) {
        double k = 0.5 +
                   (17.0 * std::log(2.0) +
                    std::log(std::exp(-0.5) - std::exp(-n * 0.5))) / a;
        EXPECT_EQ(calc.closedFormIndex(RangeControl::Thresholding, n),
                  static_cast<int64_t>(std::floor(k)))
            << "n=" << n;
    }
}

TEST(ThresholdCalc, Eq15AdmitsInteriorGaps)
{
    // Reproduction finding: for the paper's configuration the Eq. (15)
    // window extends past the first interior PMF gap (Fig. 4(b)), so
    // the *exact* worst-case loss of thresholding at the closed-form
    // threshold is infinite. The exact search lands below the gap.
    ThresholdCalculator calc(paperParams());
    int64_t gap = calc.pmf()->firstInteriorGap();
    ASSERT_GT(gap, 0);

    int64_t closed =
        calc.closedFormIndex(RangeControl::Thresholding, 2.0);
    EXPECT_GT(closed + calc.span(), gap);
    EXPECT_FALSE(std::isfinite(
        calc.exactLossAt(RangeControl::Thresholding, closed)));

    int64_t exact = calc.exactIndex(RangeControl::Thresholding, 2.0);
    ASSERT_GE(exact, 0);
    EXPECT_LE(exact + calc.span() - 1, gap);
    EXPECT_TRUE(std::isfinite(
        calc.exactLossAt(RangeControl::Thresholding, exact)));
}

TEST(ThresholdCalc, ThresholdsGrowWithLossBudget)
{
    ThresholdCalculator calc(paperParams());
    for (RangeControl kind : {RangeControl::Resampling,
                              RangeControl::Thresholding}) {
        int64_t t15 = calc.exactIndex(kind, 1.5);
        int64_t t20 = calc.exactIndex(kind, 2.0);
        int64_t t30 = calc.exactIndex(kind, 3.0);
        EXPECT_LE(t15, t20);
        EXPECT_LE(t20, t30);
    }
}

TEST(ThresholdCalc, ThresholdsGrowWithUniformBits)
{
    // More URNG bits -> finer tail probabilities -> the loss bound
    // holds farther out.
    FxpMechanismParams lo = paperParams();
    lo.uniform_bits = 13;
    FxpMechanismParams hi = paperParams();
    hi.uniform_bits = 17;
    ThresholdCalculator calc_lo(lo);
    ThresholdCalculator calc_hi(hi);
    EXPECT_LT(calc_lo.exactIndex(RangeControl::Resampling, 2.0),
              calc_hi.exactIndex(RangeControl::Resampling, 2.0));
    EXPECT_LT(calc_lo.closedFormIndex(RangeControl::Resampling, 2.0),
              calc_hi.closedFormIndex(RangeControl::Resampling, 2.0));
}

TEST(ThresholdCalc, ExactLossAtZeroThresholdFinite)
{
    // Even a zero-extension window is a valid LDP mechanism (heavily
    // clamped); its loss must be finite for both kinds.
    ThresholdCalculator calc(paperParams());
    EXPECT_TRUE(std::isfinite(
        calc.exactLossAt(RangeControl::Thresholding, 0)));
    EXPECT_TRUE(std::isfinite(
        calc.exactLossAt(RangeControl::Resampling, 0)));
}

TEST(ThresholdCalc, CoarseRngMayAdmitNoThreshold)
{
    // With very few uniform bits even small windows can distinguish
    // inputs; exactIndex may legitimately return -1 for a tight bound.
    FxpMechanismParams p = paperParams();
    p.uniform_bits = 6;
    ThresholdCalculator calc(p);
    int64_t t = calc.exactIndex(RangeControl::Resampling, 1.1);
    if (t >= 0) {
        EXPECT_LE(calc.exactLossAt(RangeControl::Resampling, t),
                  1.1 * 0.5 + 1e-9);
    } else {
        SUCCEED();
    }
}

TEST(ThresholdCalc, ExactIndexEqualsLinearScan)
{
    // The sweep must find the same window as walking T = 0, 1, 2, ...
    // with a full exact analysis per step until the loss first
    // exceeds the bound -- over the plain block and over the
    // floor-rounded, widened block discrete Laplace resolves to.
    const double n = 2.0;
    int discrete = 0;
    for (int bu : {8, 10, 12, 16}) {
        for (double eps : {0.25, 0.5, 1.0}) {
            FxpMechanismParams p = paperParams();
            p.uniform_bits = bu;
            p.epsilon = eps;
            const double bound = searchBound(n, eps);
            ThresholdCalculator calc(p);
            for (RangeControl kind :
                 {RangeControl::Resampling, RangeControl::Thresholding}) {
                EXPECT_EQ(calc.exactIndex(kind, n),
                          linearScan(calc, kind, bound))
                    << "Bu " << bu << " eps " << eps << " "
                    << kindName(kind);
            }
            // 2 * 0.25 is below the ln 2 zero-atom penalty, and Bu 8
            // has too few states for 2 * 0.5 (see DiscreteLaplace).
            if (eps == 0.25 || (bu == 8 && eps == 0.5))
                continue;
            int64_t t = -1;
            ThresholdCalculator widened(
                DiscreteLaplaceMechanism::resolveParams(p, n, &t));
            EXPECT_EQ(t, linearScan(widened, RangeControl::Resampling,
                                    bound))
                << "discrete Bu " << bu << " eps " << eps;
            ++discrete;
        }
    }
    EXPECT_EQ(discrete, 7);
}

TEST(ThresholdCalc, SweepEqualsExactLossAtEveryWindow)
{
    // Per-T oracle for the one-pass sweep, over every T in [0,
    // maxIndex]: a thresholding bracket is the exact loss bit for
    // bit, and a resampling bracket holds the exact loss and decides
    // exactly what the exact loss decides, at every loss multiple.
    // Blocks: the Laplace, Gaussian and staircase stages and the
    // discrete-Laplace block (floor rounding, widened scale).
    const double multiples[] = {1.5, 2.0, 3.0};
    int blocks = 0;
    auto check = [&](const FxpMechanismParams &p) {
        ThresholdCalculator calc(p);
        const size_t windows =
            static_cast<size_t>(calc.pmf()->maxIndex()) + 1;
        std::vector<double> exact_thr(windows), exact_res(windows);
        for (size_t t = 0; t < windows; ++t) {
            exact_thr[t] = calc.exactLossAt(RangeControl::Thresholding,
                                            static_cast<int64_t>(t));
            exact_res[t] = calc.exactLossAt(RangeControl::Resampling,
                                            static_cast<int64_t>(t));
        }
        for (double n : multiples) {
            SCOPED_TRACE(testing::Message() << "n " << n);
            const double bound = searchBound(n, p.epsilon);
            std::vector<LossBracket> thr =
                allBrackets(calc, RangeControl::Thresholding, bound);
            std::vector<LossBracket> res =
                allBrackets(calc, RangeControl::Resampling, bound);
            ASSERT_EQ(thr.size(), windows);
            ASSERT_EQ(res.size(), windows);
            for (size_t t = 0; t < windows; ++t) {
                SCOPED_TRACE(testing::Message() << "T " << t);
                ASSERT_EQ(thr[t].threshold, static_cast<int64_t>(t));
                ASSERT_EQ(thr[t].lo, exact_thr[t]);
                ASSERT_EQ(thr[t].hi, exact_thr[t]);
                ASSERT_EQ(thr[t].passes, exact_thr[t] <= bound);

                const LossBracket &b = res[t];
                ASSERT_EQ(b.threshold, static_cast<int64_t>(t));
                ASSERT_LE(b.lo, exact_res[t] + 1e-12);
                ASSERT_LE(exact_res[t], b.hi + 1e-12);
                ASSERT_EQ(b.passes, exact_res[t] <= bound);
            }
        }
        ++blocks;
    };
    for (int bu : {8, 12, 16}) {
        for (double eps : {0.5, 1.0}) {
            FxpMechanismParams p = paperParams();
            p.uniform_bits = bu;
            p.epsilon = eps;
            SCOPED_TRACE(testing::Message()
                         << "Bu " << bu << " eps " << eps);
            {
                SCOPED_TRACE("laplace");
                check(p);
            }
            const char *stage[] = {"gaussian", "staircase"};
            auto icdfs = icdfStages(eps);
            for (size_t k = 0; k < icdfs.size(); ++k) {
                SCOPED_TRACE(stage[k]);
                FxpMechanismParams q = p;
                q.icdf = icdfs[k];
                check(q);
            }
            for (double n : multiples) {
                // Bu 8 has too few states for 1.5 or 2 times 0.5.
                if (bu == 8 && eps == 0.5 && n < 3.0)
                    continue;
                SCOPED_TRACE(testing::Message() << "discrete n " << n);
                check(DiscreteLaplaceMechanism::resolveParams(p, n));
            }
        }
    }
    EXPECT_EQ(blocks, 3 * 2 * 3 + 3 * 2 * 3 - 2);
}

/** Windows the resampling bracket left open since @p before. */
uint64_t
openWindowsSince(uint64_t before)
{
    return telemetry::registry()
               .counter("ulpdp_threshold_search_exact_analyses_total",
                        "")
               .value() -
           before;
}

TEST(ThresholdCalc, GridSearchesLeaveNoWindowOpen)
{
    // At the six certify-grid profiles (range [-20, 60], Delta =
    // d/32, Bu 16/24/32, eps 1/0.5, loss multiple 2) every resampling
    // and thresholding window is decided by M_T and B_T alone. The
    // discrete-Laplace blocks sit within a few thousandths of the
    // bound from T = 0 on (the ln 2 zero-atom penalty), so their
    // small windows do open; the counter sees them.
    telemetry::reset();
    telemetry::setEnabled(true);
    uint64_t plain = 0, discrete = 0;
    auto &reg = MechanismRegistry::instance();
    for (int bu : {16, 24, 32}) {
        for (double eps : {1.0, 0.5}) {
            MechanismSpec spec;
            spec.params.range = SensorRange(-20.0, 60.0);
            spec.params.epsilon = eps;
            spec.params.uniform_bits = bu;
            spec.loss_multiple = 2.0;
            SCOPED_TRACE(testing::Message()
                         << "Bu " << bu << " eps " << eps);
            uint64_t before = openWindowsSince(0);
            EXPECT_GE(reg.at("resampling").resolve(spec).threshold_index,
                      0);
            EXPECT_GE(
                reg.at("thresholding").resolve(spec).threshold_index, 0);
            plain += openWindowsSince(before);
            before = openWindowsSince(0);
            EXPECT_GE(reg.at("discrete-laplace")
                          .resolve(spec)
                          .threshold_index,
                      0);
            discrete += openWindowsSince(before);
        }
    }
    EXPECT_EQ(plain, 0u);
    EXPECT_GT(discrete, 0u);
    telemetry::setEnabled(false);
    telemetry::reset();
}

TEST(ThresholdCalc, IcdfExactIndexEqualsLinearScan)
{
    // Gaussian and staircase windows are searched over their own
    // pipeline's PMF. The search must return the largest T in [0,
    // maxIndex] whose exact loss meets the bound, and every smaller T
    // must meet it too (the prefix the sweep's early stop relies on).
    for (int bu : {12, 16, 20}) {
        for (double eps : {0.5, 1.0}) {
            for (const auto &icdf : icdfStages(eps)) {
                FxpMechanismParams p = paperParams();
                p.uniform_bits = bu;
                p.epsilon = eps;
                p.icdf = icdf;
                ThresholdCalculator calc(p);
                const double n = 2.0;
                const double bound = searchBound(n, eps);
                for (RangeControl kind : {RangeControl::Resampling,
                                          RangeControl::Thresholding}) {
                    int64_t last_ok = -1;
                    int64_t ok_count = 0;
                    for (int64_t t = 0; t <= calc.pmf()->maxIndex(); ++t) {
                        if (calc.exactLossAt(kind, t) <= bound) {
                            last_ok = t;
                            ++ok_count;
                        }
                    }
                    SCOPED_TRACE(testing::Message()
                                 << "Bu " << bu << " eps " << eps
                                 << " max index " << calc.pmf()->maxIndex()
                                 << (kind == RangeControl::Resampling
                                             ? " resampling"
                                             : " thresholding"));
                    EXPECT_EQ(ok_count, last_ok + 1);
                    EXPECT_EQ(calc.exactIndex(kind, n), last_ok);
                }
            }
        }
    }
}

TEST(ThresholdCalc, SearchesTheSamplersPmf)
{
    // One PMF for search and sample: the calculator's PMF is the
    // shared object the sampler table of the same configuration is
    // built from, holding the pipeline's own state counts -- for the
    // Laplace stage and for another magnitude law alike.
    FxpMechanismParams laplace = paperParams();
    laplace.uniform_bits = 12;
    FxpMechanismParams gauss = laplace;
    gauss.icdf = icdfStages(0.5)[0];
    for (const FxpMechanismParams &p : {laplace, gauss}) {
        ThresholdCalculator calc(p);
        EXPECT_EQ(calc.pmf().get(),
                  FxpLaplacePmf::shared(p.rngConfig()).get());
        FxpLaplaceRng rng(p.rngConfig());
        NoisePmf walk = walkPmf(p.uniform_bits, [&](uint64_t m) {
            return rng.pipeline(m, 1);
        });
        ASSERT_EQ(calc.pmf()->maxIndex(), walk.maxIndex());
        for (int64_t k = 0; k <= walk.maxIndex(); ++k)
            ASSERT_EQ(calc.pmf()->magnitudeCount(k),
                      walk.magnitudeCount(k))
                << "k=" << k;
    }
}

TEST(ThresholdCalc, SpanAndPmfAccessors)
{
    ThresholdCalculator calc(paperParams());
    EXPECT_EQ(calc.span(), 32);
    EXPECT_NE(calc.pmf(), nullptr);
    EXPECT_NEAR(calc.pmf()->totalMass(), 1.0, 1e-12);
}

} // anonymous namespace
} // namespace ulpdp
