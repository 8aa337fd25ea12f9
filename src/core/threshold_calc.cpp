#include "core/threshold_calc.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "core/privacy_loss.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

/** How far M_T -/+ B_T must clear the search bound to decide a
 *  resampling window without an exact analysis. A loss is the log of
 *  a ratio of doubles no smaller than 2^-33, so |loss| < 1500, and
 *  each computed loss and bound rounds by well under 1e-12. */
constexpr double kBracketMargin = 1e-9;

/** Search observability (docs/METRICS.md "Certification"). */
Counter &
exactAnalyses()
{
    static Counter &c = telemetry::registry().counter(
            "ulpdp_threshold_search_exact_analyses_total",
            "Resampling windows the loss bracket left open, settled "
            "by the exact loss of every row that could reach the "
            "bound",
            "windows");
    return c;
}

} // namespace

ThresholdCalculator::ThresholdCalculator(const FxpMechanismParams &params)
    : params_(params),
      pmf_(FxpLaplacePmf::shared(params.rngConfig())),
      span_(params.rangeIndexSpan())
{
    if (span_ <= 0)
        fatal("ThresholdCalculator: sensor range shorter than one "
              "quantization step");
}

int64_t
ThresholdCalculator::closedFormIndex(RangeControl kind, double n) const
{
    if (!(n > 1.0))
        fatal("ThresholdCalculator: loss multiple n must exceed 1, "
              "got %g", n);

    double eps = params_.epsilon;
    double a = params_.resolvedDelta() / params_.lambda(); // eps*Delta/d
    double bu_ln2 = params_.uniform_bits * std::log(2.0);

    double k;
    if (kind == RangeControl::Resampling) {
        // Eq. (13): G(k) >= (e^{n eps} + 1) / (e^{(n-1) eps} - 1)
        // with G(k) = 2^Bu e^{-a k} (e^{a/2} - e^{-a/2}).
        double sinh_term = std::exp(a / 2.0) - std::exp(-a / 2.0);
        k = (bu_ln2 + std::log(sinh_term) +
             std::log(std::exp((n - 1.0) * eps) - 1.0) -
             std::log(std::exp(n * eps) + 1.0)) / a;
    } else {
        // Eq. (15): m1(k) >= e^{n eps} / (e^{(n-1) eps} - 1), i.e.
        // k <= 1/2 + (1/a)(Bu ln 2 + ln(e^{-eps} - e^{-n eps})).
        k = 0.5 + (bu_ln2 +
                   std::log(std::exp(-eps) - std::exp(-n * eps))) / a;
    }
    int64_t idx = static_cast<int64_t>(std::floor(k));
    return std::max<int64_t>(idx, 0);
}

std::unique_ptr<DiscreteOutputModel>
ThresholdCalculator::makeModel(RangeControl kind,
                               int64_t threshold_index) const
{
    if (kind == RangeControl::Resampling) {
        return std::make_unique<ResamplingOutputModel>(pmf_, span_,
                                                       threshold_index);
    }
    return std::make_unique<ThresholdingOutputModel>(pmf_, span_,
                                                     threshold_index);
}

double
ThresholdCalculator::exactLossAt(RangeControl kind,
                                 int64_t threshold_index) const
{
    auto model = makeModel(kind, threshold_index);
    return PrivacyLossAnalyzer::analyze(*model).worst_case_loss;
}

int64_t
ThresholdCalculator::exactIndex(RangeControl kind, double n) const
{
    if (!(n > 1.0))
        fatal("ThresholdCalculator: loss multiple n must exceed 1, "
              "got %g", n);

    double bound = n * params_.epsilon * (1.0 + 1e-9) + 1e-12;
    int64_t last = -1;
    sweep(kind, bound, [&](const LossBracket &b) {
        if (b.passes)
            last = b.threshold;
        return b.passes;
    });
    return last;
}

void
ThresholdCalculator::sweep(
        RangeControl kind, double bound,
        const std::function<bool(const LossBracket &)> &visit) const
{
    const bool clamp = kind == RangeControl::Thresholding;
    const int64_t cap = pmf_->maxIndex();
    const size_t n = static_cast<size_t>(span_) + 1;
    const MassSlice mass(*pmf_, span_, cap);
    std::vector<double> buf(n);

    // M_T (interior) starts from analyze()'s floor of 0; an
    // unreachable row's -inf never wins. free_loss keeps each row's
    // T-free loss for the open resampling windows. The interior of
    // window T is [edge - T, span + T - edge]: thresholding clamps
    // the two edge outputs into atoms.
    double interior = 0.0;
    std::vector<double> free_loss(n + 2 * static_cast<size_t>(cap));
    auto absorb = [&](int64_t j) {
        double loss = PrivacyLossAnalyzer::rowLoss(mass.from(j), n);
        free_loss[static_cast<size_t>(j + cap)] = loss;
        interior = std::max(interior, loss);
    };
    const int64_t edge = clamp ? 1 : 0;
    for (int64_t j = edge; j <= span_ - edge; ++j)
        absorb(j);
    for (int64_t t = 0; t <= cap; ++t) {
        if (t > 0) {
            absorb(edge - t);
            absorb(span_ + t - edge);
        }
        LossBracket b{t, interior, interior, false};
        if (clamp) {
            // The lower atom holds the upper one's masses (sign
            // symmetry of the PMF), so it has the same loss.
            ThresholdingOutputModel::atomRow(*pmf_, span_, t, true,
                                             buf.data());
            b.lo = b.hi = std::max(
                    interior, PrivacyLossAnalyzer::rowLoss(buf.data(), n));
            b.passes = b.lo <= bound;
        } else {
            // Z_T(i) as ResamplingOutputModel computes it. An input
            // that never lands (Z = 0) makes B_T infinite or NaN, so
            // the window stays open and the model rejects it.
            for (int64_t i = 0; i <= span_; ++i)
                buf[static_cast<size_t>(i)] =
                        windowMass(*pmf_, -t - i, span_ + t - i);
            auto z = std::minmax_element(buf.begin(), buf.end());
            const double spread = std::log(*z.second / *z.first);
            b.lo = interior - spread;
            b.hi = interior + spread;
            if (b.hi + kBracketMargin <= bound) {
                b.passes = true;
            } else if (!(b.lo - kBracketMargin > bound)) {
                // Open: the rows that could come within the margin of
                // the bound are read from the model at T and their
                // exact losses taken; every other row stays below it.
                if (telemetry::enabled())
                    exactAnalyses().inc();
                auto model = makeModel(kind, t);
                b.lo = b.hi = 0.0;
                for (int64_t j = -t; j <= span_ + t; ++j) {
                    double reach =
                            free_loss[static_cast<size_t>(j + cap)] + spread;
                    if (reach + kBracketMargin <= bound) {
                        b.hi = std::max(b.hi, reach);
                        continue;
                    }
                    model->row(j, buf.data());
                    b.lo = std::max(
                            b.lo, PrivacyLossAnalyzer::rowLoss(buf.data(), n));
                }
                b.hi = std::max(b.hi, b.lo);
                b.passes = b.lo <= bound;
            }
        }
        if (!visit(b))
            return;
    }
}

} // namespace ulpdp
