/**
 * @file
 * Mechanism wrapper for arbitrary noise distributions on the
 * fixed-point inversion pipeline.
 *
 * GenericFxpMechanism is to FxpInversionRng what Resampling- /
 * ThresholdingMechanism are to FxpLaplaceRng: it adds the range
 * control and the Mechanism interface, so Gaussian or staircase
 * noise (or any user-supplied MagnitudeIcdf) runs through the same
 * evaluation harness -- UtilityEvaluator, the benches, the budget
 * machinery -- as the paper's Laplace datapath.
 *
 * Threshold selection for these mechanisms has no closed form; use
 * the exact search against an output model over inversionPmf (see
 * bench_ext_distributions for the pattern).
 */

#ifndef ULPDP_CORE_GENERIC_MECHANISM_H
#define ULPDP_CORE_GENERIC_MECHANISM_H

#include <memory>

#include "core/mechanism.h"
#include "core/threshold_calc.h"
#include "rng/fxp_inversion.h"

namespace ulpdp {

/** Range-controlled mechanism over any magnitude ICDF. */
class GenericFxpMechanism : public Mechanism
{
  public:
    /**
     * @param range Sensor range.
     * @param epsilon Privacy parameter the noise was scaled for
     *        (recorded; the scale itself lives inside @p icdf).
     * @param config Inversion pipeline configuration.
     * @param icdf Magnitude inverse CDF (shared).
     * @param kind Range-control flavour.
     * @param threshold_index Window half-extension in Delta units.
     * @param seed URNG seed.
     */
    GenericFxpMechanism(const SensorRange &range, double epsilon,
                        const FxpInversionConfig &config,
                        std::shared_ptr<const MagnitudeIcdf> icdf,
                        RangeControl kind, int64_t threshold_index,
                        uint64_t seed = 1);

    NoisedReport noise(double x) override;
    std::string name() const override;
    bool guaranteesLdp() const override { return true; }
    const SensorRange &range() const override { return range_; }
    double epsilon() const override { return epsilon_; }

    /** Window half-extension in Delta units. */
    int64_t thresholdIndex() const { return threshold_index_; }

    /** Quantization step. */
    double delta() const { return rng_.quantizer().delta(); }

  private:
    SensorRange range_;
    double epsilon_;
    RangeControl kind_;
    int64_t threshold_index_;
    FxpInversionRng rng_;
    int64_t lo_index_;
    int64_t hi_index_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_GENERIC_MECHANISM_H
