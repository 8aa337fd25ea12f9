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
 *
 * exactIndex() is one sweep over the output rows (DESIGN.md §16,
 * "Exact window search"): interior rows do not depend on T, so a
 * running max M_T grows by two rows per T. Thresholding adds its
 * boundary atom and is exact; resampling brackets the loss by M_T -/+
 * log(max_i Z_T(i) / min_i Z_T(i)), and where that bracket does not
 * clear the bound by a 1e-9 margin it reads the rows that could reach
 * the bound from the model at T.
 */

#ifndef ULPDP_CORE_THRESHOLD_CALC_H
#define ULPDP_CORE_THRESHOLD_CALC_H

#include <cstdint>
#include <functional>
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

/** One window of the sweep: lo <= exactLossAt(kind, threshold) <= hi
 *  up to rounding, lo == hi where the loss was computed exactly. */
struct LossBracket
{
    int64_t threshold = 0;
    double lo = 0.0;
    double hi = 0.0;
    /** exactLossAt(kind, threshold) <= the bound of the sweep. */
    bool passes = false;
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
     * non-null params.icdf they describe only the Laplace stage.
     */
    int64_t closedFormIndex(RangeControl kind, double n) const;

    /**
     * Exact threshold: the last T of the passing prefix [0, T*] of
     * [0, pmf()->maxIndex()], where T passes when its exact
     * worst-case loss (exactLossAt) is <= n * eps, up to a 1e-9
     * relative slack. Returns -1 if T = 0 fails. One sweep walks
     * T = 0, 1, ... and stops at the first failing window.
     */
    int64_t exactIndex(RangeControl kind, double n) const;

    /**
     * The sweep behind exactIndex() for @p bound: hands @p visit the
     * bracket of T = 0, 1, ..., pmf()->maxIndex() in order until it
     * returns false. Thresholding brackets are exact: lo == hi ==
     * exactLossAt(kind, T) bit for bit.
     */
    void sweep(RangeControl kind, double bound,
               const std::function<bool(const LossBracket &)> &visit)
            const;

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
