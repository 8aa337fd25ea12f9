#include "core/randomized_response.h"

#include <cmath>

#include "common/logging.h"

namespace ulpdp {

RandomizedResponse::RandomizedResponse(const FxpMechanismParams &params)
    : FxpMechanismBase(params)
{
    // q = Pr[noise magnitude strictly beyond half the range], the
    // probability the noised value crosses the midpoint. Computed from
    // the exact PMF of the implemented RNG, the shared one its sampler
    // table draws from; outputs exactly on the midpoint (index d/2
    // when the span is even) break toward the true category, matching
    // the ">" comparison in noise().
    int64_t cross = params.rangeIndexSpan() / 2 + 1;
    flip_prob_ =
        FxpLaplacePmf::shared(params.rngConfig())->tailMass(cross);
    if (flip_prob_ <= 0.0)
        fatal("RandomizedResponse: the fixed-point RNG assigns zero "
              "probability to crossing the midpoint (flip probability "
              "0) -- the implemented loss would be infinite. Increase "
              "uniform_bits or epsilon.");
}

NoisedReport
RandomizedResponse::noise(double x)
{
    int64_t xi = checkAndIndex(x);
    // Snap the input to the nearer category endpoint (binary data).
    int64_t mid2 = lo_index_ + hi_index_; // 2 * midpoint index
    xi = (2 * xi > mid2) ? hi_index_ : lo_index_;

    int64_t k = rng_.sampleIndex();
    int64_t yi = xi + k;
    // Degenerate clamp: report the endpoint the noised value is
    // nearer to; exact midpoint stays with the true category.
    int64_t report = (2 * yi > mid2)   ? hi_index_
                     : (2 * yi < mid2) ? lo_index_
                                       : xi;
    return NoisedReport{toValue(report), 1};
}

double
RandomizedResponse::exactLoss() const
{
    return std::log((1.0 - flip_prob_) / flip_prob_);
}

double
RandomizedResponse::estimateProportion(double observed_hi_fraction) const
{
    double q = flip_prob_;
    double est = (observed_hi_fraction - q) / (1.0 - 2.0 * q);
    if (est < 0.0)
        return 0.0;
    if (est > 1.0)
        return 1.0;
    return est;
}

} // namespace ulpdp
