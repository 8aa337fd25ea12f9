/**
 * @file
 * Threshold selection for resampling and thresholding (Section III-B).
 *
 * Given a target worst-case loss of n * eps (n > 1), the paper derives
 * closed-form window extensions:
 *
 *  Resampling, from Eq. (12)/(13). Bounding the PMF count ratio
 *  between noise k and k + d/Delta with floor/ceil slack requires
 *    G(k) = m1(k) - m2(k) >= (e^{n eps} + 1) / (e^{(n-1) eps} - 1),
 *  giving
 *    k <= (1/a) [ Bu ln 2 + ln(e^{a/2} - e^{-a/2})
 *                 + ln(e^{(n-1) eps} - 1) - ln(e^{n eps} + 1) ],
 *  with a = eps * Delta / d. A useful side effect: the constraint
 *  forces every bin inside the window to hold >= 1 URNG state, so the
 *  window cannot contain interior PMF gaps.
 *
 *  Thresholding, from Eq. (14)/(15). Bounding the boundary-atom tail
 *  ratio requires m1(k) >= e^{n eps} / (e^{(n-1) eps} - 1), giving
 *    k <= 1/2 + (1/a) (Bu ln 2 + ln(e^{-eps} - e^{-n eps})).
 *  This condition only constrains the atoms. Interior outputs follow
 *  the raw PMF, whose tail gaps (Fig. 4(b)) can fall inside this
 *  (larger) window -- in which case the *exact* worst-case loss is
 *  infinite even though Eq. (15) is satisfied. The exact searches
 *  below account for every output, so prefer exactIndex() when
 *  configuring a real device; the benches quantify the discrepancy.
 */

#ifndef ULPDP_CORE_THRESHOLD_CALC_H
#define ULPDP_CORE_THRESHOLD_CALC_H

#include <cstdint>
#include <memory>

#include "core/fxp_params.h"
#include "core/output_model.h"

namespace ulpdp {

/** Which range-control mechanism a threshold is for. */
enum class RangeControl
{
    Resampling,
    Thresholding,
};

/** Computes window thresholds (in Delta index units). */
class ThresholdCalculator
{
  public:
    /**
     * @param params Mechanism parameters the thresholds are for, with
     *        any magnitude ICDF: the exact searches run over the
     *        pipeline's own PMF,
     *        FxpLaplacePmf::shared(params.rngConfig()).
     */
    explicit ThresholdCalculator(const FxpMechanismParams &params);

    /**
     * Closed-form threshold index for loss bound n * eps (Eq. 13 or
     * Eq. 15). @p n must exceed 1. Laplace closed forms: with a
     * non-null params.icdf they are only exactIndex()'s starting
     * guess.
     */
    int64_t closedFormIndex(RangeControl kind, double n) const;

    /**
     * Exact threshold: the largest window extension T such that the
     * exact worst-case loss of the mechanism's full output model is
     * <= n * eps. Returns -1 if no T >= 0 satisfies the bound.
     */
    int64_t exactIndex(RangeControl kind, double n) const;

    /**
     * Exact worst-case loss of the mechanism with window extension
     * @p threshold_index (for threshold sweeps and validation).
     */
    double exactLossAt(RangeControl kind, int64_t threshold_index) const;

    /** The noise PMF used by the exact computations: the shared
     *  object the sampler table of the same configuration draws from. */
    std::shared_ptr<const FxpLaplacePmf> pmf() const { return pmf_; }

    /** Sensor range span in Delta units. */
    int64_t span() const { return span_; }

  private:
    /** Build the output model for a given control kind and threshold. */
    std::unique_ptr<DiscreteOutputModel>
    makeModel(RangeControl kind, int64_t threshold_index) const;

    FxpMechanismParams params_;
    std::shared_ptr<const FxpLaplacePmf> pmf_;
    int64_t span_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_THRESHOLD_CALC_H
