/**
 * @file
 * Discrete Laplace (two-sided geometric) mechanism.
 *
 * Switching the Fig. 3 quantizer from round-nearest to truncation
 * (FxpLaplaceConfig::Rounding::Floor) makes the magnitude law exactly
 * geometric: flooring an Exponential(1/lambda) magnitude to the Delta
 * grid yields Pr[|n| = k Delta] proportional to e^{-a k} with
 * a = Delta / lambda -- the discrete Laplace distribution of
 * Ghosh/Roughgarden/Sundararajan, here emerging from the *same*
 * hardware pipeline minus the half-LSB rounding adder.
 *
 * The geometric law has no half-bin offset in its Eq. (11)
 * boundaries (m1(k) = 2^Bu e^{-ak}, m2(k) = 2^Bu e^{-a(k+1)}), but
 * the pipeline's random-sign stage charges a real privacy price for
 * the cheaper quantizer: both signs map magnitude bin 0 to output 0,
 * so the zero atom carries *twice* the single-sided geometric mass
 * (round-nearest dodges this because its bin 0 spans only half a
 * step per side). The output ratio P(0)/P(k) = 2 e^{ak} therefore
 * carries a scale-invariant ln 2 penalty: no window extension T can
 * push the worst-case loss below ln 2, and the exact search alone
 * fails whenever the loss target is near it. resolveParams() pays
 * the penalty in utility instead -- it inflates lambda_scale from
 * the closed-form seed eps / (n eps - ln 2) until the exact search
 * over the Floor-rounded PMF finds a certifying threshold.
 *
 * The fixed-point failure mode is otherwise unchanged: the tail
 * still quantizes to interior gaps, so the variant needs the same
 * resampling window control and the same exact threshold search --
 * both of which work unmodified because they only consume the
 * (rounding-aware) PMF.
 *
 * Implementation-wise this *is* a ResamplingMechanism over the Floor
 * pipeline; the subclass exists to pin the rounding mode, resolve
 * the scale correction, and carry the distinct display name through
 * the evaluation tables.
 */

#ifndef ULPDP_CORE_DISCRETE_LAPLACE_H
#define ULPDP_CORE_DISCRETE_LAPLACE_H

#include "core/resampling_mechanism.h"

namespace ulpdp {

/** Resampling-controlled discrete Laplace (Floor-rounded pipeline). */
class DiscreteLaplaceMechanism : public ResamplingMechanism
{
  public:
    /**
     * @param params Shared fixed-point parameters; the rounding mode
     *        is forced to Floor regardless of what the block says.
     * @param threshold_index Window half-extension in Delta units,
     *        from ThresholdCalculator over the Floor-rounded params.
     */
    DiscreteLaplaceMechanism(const FxpMechanismParams &params,
                             int64_t threshold_index)
        : ResamplingMechanism(withFloorRounding(params),
                              threshold_index)
    {}

    std::string name() const override { return "Discrete Laplace"; }

    /** The parameter block this mechanism actually runs. */
    static FxpMechanismParams
    withFloorRounding(FxpMechanismParams params)
    {
        params.rounding = FxpLaplaceConfig::Rounding::Floor;
        return params;
    }

    /**
     * Resolve a parameter block for a target worst-case loss of
     * loss_multiple * eps: Floor rounding plus the smallest
     * lambda_scale whose exact window search clears the bound (the
     * doubled zero atom costs a scale-invariant ln 2 of loss, so the
     * geometric term d / lambda must shrink to make room). Fatal when
     * the target itself is at or below ln 2.
     *
     * @param threshold_index When non-null, receives the window the
     *        final (successful) exact search found -- the resampling
     *        threshold of the returned block, so callers need not
     *        search again.
     */
    static FxpMechanismParams
    resolveParams(const FxpMechanismParams &base, double loss_multiple,
                  int64_t *threshold_index = nullptr);
};

} // namespace ulpdp

#endif // ULPDP_CORE_DISCRETE_LAPLACE_H
