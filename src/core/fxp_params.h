/**
 * @file
 * Shared parameter block for every fixed-point mechanism.
 *
 * All three fixed-point settings of the paper (naive baseline,
 * resampling, thresholding) share the same RNG datapath; they differ
 * only in what happens when the noised output leaves the allowed
 * window. This struct carries the common knobs and derives the
 * Laplace scale lambda = d / eps and the RNG configuration from them.
 * Setting icdf swaps the Laplace magnitude law for another one
 * (Gaussian, staircase, ...) on the same datapath.
 */

#ifndef ULPDP_CORE_FXP_PARAMS_H
#define ULPDP_CORE_FXP_PARAMS_H

#include <cstdint>
#include <memory>

#include "core/sensor_range.h"
#include "rng/fxp_laplace.h"

namespace ulpdp {

/** Parameters shared by the fixed-point LDP mechanisms. */
struct FxpMechanismParams
{
    /** Sensor range [m, M]; the LDP sensitivity is its length d. */
    SensorRange range{0.0, 1.0};

    /** Privacy parameter eps (paper evaluation default: 0.5). */
    double epsilon = 0.5;

    /** URNG width Bu in bits (paper default 17). */
    int uniform_bits = 17;

    /** RNG output width By in bits (paper default 12). */
    int output_bits = 12;

    /**
     * Quantization step Delta; 0 selects the paper's convention of
     * d / 2^5 (their running example uses Delta = 10 / 2^5 on d = 10).
     */
    double delta = 0.0;

    /** Log evaluation mode of the RNG datapath. */
    FxpLaplaceConfig::LogMode log_mode =
        FxpLaplaceConfig::LogMode::Reference;

    /** Sample serving path (table fast path vs naive pipeline). */
    FxpLaplaceConfig::SamplePath sample_path =
        FxpLaplaceConfig::SamplePath::Auto;

    /** Harden table lookups (see FxpLaplaceConfig::integrity_checks).
     *  Off models unhardened silicon in fault experiments. */
    bool rng_integrity_checks = true;

    /** Magnitude quantization mode (Nearest = paper pipeline; Floor =
     *  discrete-Laplace variant, see FxpLaplaceConfig::Rounding). */
    FxpLaplaceConfig::Rounding rounding =
        FxpLaplaceConfig::Rounding::Nearest;

    /**
     * Multiplier applied to the nominal scale d / eps. The bounded
     * Laplace mechanism (Holohan et al.) inflates the scale to
     * b = lambda_scale * d / eps so that confining outputs to the
     * sensor range still meets the eps target; every other mechanism
     * leaves this at 1.
     */
    double lambda_scale = 1.0;

    /** Magnitude ICDF stage (see FxpLaplaceConfig::icdf); null is
     *  the paper's Laplace. The noise scale of a non-null ICDF lives
     *  inside it, so lambda() no longer describes the noise. */
    std::shared_ptr<const MagnitudeIcdf> icdf;

    /** PRNG seed. */
    uint64_t seed = 1;

    /** Laplace scale lambda = lambda_scale * d / eps. */
    double
    lambda() const
    {
        return lambda_scale * range.length() / epsilon;
    }

    /** Delta with the default convention applied. */
    double
    resolvedDelta() const
    {
        return delta > 0.0 ? delta : range.length() / 32.0;
    }

    /** Assemble the RNG configuration this parameter block implies. */
    FxpLaplaceConfig
    rngConfig() const
    {
        FxpLaplaceConfig cfg;
        cfg.uniform_bits = uniform_bits;
        cfg.output_bits = output_bits;
        cfg.delta = resolvedDelta();
        cfg.lambda = lambda();
        cfg.log_mode = log_mode;
        cfg.rounding = rounding;
        cfg.sample_path = sample_path;
        cfg.integrity_checks = rng_integrity_checks;
        cfg.icdf = icdf;
        return cfg;
    }

    /** Sensor range length in quantization steps (rounded). */
    int64_t
    rangeIndexSpan() const
    {
        double d = range.length() / resolvedDelta();
        return static_cast<int64_t>(d + 0.5);
    }
};

} // namespace ulpdp

#endif // ULPDP_CORE_FXP_PARAMS_H
