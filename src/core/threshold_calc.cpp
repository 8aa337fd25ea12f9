#include "core/threshold_calc.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/privacy_loss.h"

namespace ulpdp {

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
    auto ok = [&](int64_t t) {
        return exactLossAt(kind, t) <= bound;
    };

    // The loss is non-decreasing in the window extension (enlarging
    // the window only adds more extreme outputs), so ok() holds on a
    // prefix [0, T*] and the answer is its last index. T = 0 is the
    // cheapest model and settles "no window works" in one analysis
    // (the discrete-Laplace scale widening hits that case often).
    if (!ok(0))
        return -1;

    // The closed form lands within a few bins of T* whenever the
    // window has no interior gaps, so bracket from it: gallop away
    // from the guess until ok() flips, then bisect the bracket. For
    // another magnitude ICDF the Laplace guess is merely further
    // off; the bracket is found all the same.
    const int64_t cap = pmf_->maxIndex();
    const int64_t guess = std::min(closedFormIndex(kind, n), cap);
    int64_t lo = 0;
    int64_t hi = cap + 1; // invariant: ok(lo), !ok(hi) (cap + 1 unseen)
    if (guess == 0 || ok(guess)) {
        lo = guess;
        for (int64_t step = 1; lo < cap; step *= 2) {
            int64_t probe = std::min(guess + step, cap);
            if (!ok(probe)) {
                hi = probe;
                break;
            }
            lo = probe;
        }
        if (lo == cap)
            return cap;
    } else {
        hi = guess;
        for (int64_t step = 1; guess - step > 0; step *= 2) {
            int64_t probe = guess - step;
            if (ok(probe)) {
                lo = probe;
                break;
            }
            hi = probe;
        }
    }
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2;
        if (ok(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace ulpdp
