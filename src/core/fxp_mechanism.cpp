#include "core/fxp_mechanism.h"

#include <cmath>

#include "common/logging.h"

namespace ulpdp {

FxpMechanismBase::FxpMechanismBase(const FxpMechanismParams &params)
    : params_(params), rng_(params.rngConfig(), params.seed)
{
    if (!(params.epsilon > 0.0))
        fatal("FxpMechanismBase: epsilon must be positive, got %g",
              params.epsilon);

    double delta = rng_.quantizer().delta();
    lo_index_ = static_cast<int64_t>(std::llround(params.range.lo /
                                                  delta));
    hi_index_ = static_cast<int64_t>(std::llround(params.range.hi /
                                                  delta));
    if (hi_index_ <= lo_index_)
        fatal("FxpMechanismBase: sensor range [%g, %g] is shorter "
              "than one quantization step (Delta=%g)",
              params.range.lo, params.range.hi, delta);
    double lo_err = std::abs(toValue(lo_index_) - params.range.lo);
    double hi_err = std::abs(toValue(hi_index_) - params.range.hi);
    if (lo_err > 1e-9 * std::max(1.0, std::abs(params.range.lo)) ||
        hi_err > 1e-9 * std::max(1.0, std::abs(params.range.hi))) {
        warn("FxpMechanismBase: sensor range [%g, %g] snapped to the "
             "Delta=%g grid as [%g, %g]", params.range.lo,
             params.range.hi, delta, toValue(lo_index_),
             toValue(hi_index_));
    }
}

int64_t
FxpMechanismBase::toIndex(double x) const
{
    return static_cast<int64_t>(std::llround(x /
                                             rng_.quantizer().delta()));
}

double
FxpMechanismBase::toValue(int64_t index) const
{
    return static_cast<double>(index) * rng_.quantizer().delta();
}

int64_t
FxpMechanismBase::checkAndIndex(double x) const
{
    // Tolerate readings a hair outside the range (grid snapping of
    // the range itself can push the limits in by < Delta).
    double slack = rng_.quantizer().delta();
    if (x < params_.range.lo - slack || x > params_.range.hi + slack)
        fatal("%s: reading %g outside range [%g, %g]",
              name().c_str(), x, params_.range.lo, params_.range.hi);
    int64_t idx = toIndex(x);
    if (idx < lo_index_)
        idx = lo_index_;
    if (idx > hi_index_)
        idx = hi_index_;
    return idx;
}

NoisedReport
NaiveFxpMechanism::noise(double x)
{
    int64_t xi = checkAndIndex(x);
    int64_t k = rng_.sampleIndexFast();
    return NoisedReport{toValue(xi + k), 1};
}

} // namespace ulpdp
