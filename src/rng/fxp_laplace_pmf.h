/**
 * @file
 * Exact probability mass function of the fixed-point Laplace RNG.
 *
 * Section III-B of the paper derives, in Eq. (11), the probability
 * that the Fig. 3 pipeline outputs the value k * Delta:
 *
 *   Pr[n = k Delta] = (floor(m1(k)) - ceil(m2(k)) + 1) / 2^(Bu+1)
 *   m1(k) = 2^Bu * exp(-(eps Delta / d)(k - 1/2))
 *   m2(k) = 2^Bu * exp(-(eps Delta / d)(k + 1/2))
 *
 * (with eps Delta / d = Delta / lambda). The whole privacy analysis --
 * infinite-loss detection, the resampling/thresholding thresholds of
 * Eqs. (13)/(15), the Fig. 8 budget segments -- is driven by this PMF.
 *
 * Two modes fill NoisePmf's count table: Analytic tabulates the closed
 * form above once per bin of the reachable support; Enumerated counts
 * the real pipeline's URNG states with NoisePmf's segment-rank engine,
 * passing floor(m1(k)) as each bin's boundary guess, so the common
 * case costs two pipeline probes per bin (exact up to Bu = 32 in
 * microseconds, bit-identical to the per-state walk). A config with
 * a magnitude ICDF (FxpLaplaceConfig::icdf) has no closed form:
 * Enumerated then runs the engine without a guess, and Analytic is a
 * fatal error.
 */

#ifndef ULPDP_RNG_FXP_LAPLACE_PMF_H
#define ULPDP_RNG_FXP_LAPLACE_PMF_H

#include <cstdint>
#include <memory>

#include "rng/fxp_laplace.h"
#include "rng/noise_pmf.h"

namespace ulpdp {

/**
 * Exact PMF of an FxpLaplaceRng output, over signed output indices k
 * (the output value is k * Delta).
 */
class FxpLaplacePmf : public NoisePmf
{
  public:
    /** How the PMF is computed. */
    enum class Mode
    {
        /** Closed form, Eq. (11) (Laplace only: null icdf). */
        Analytic,
        /** Exact state counts of the pipeline by segment-rank
         *  accumulation (Bu <= 32). */
        Enumerated,
    };

    /**
     * @param config RNG configuration the PMF describes.
     * @param mode Computation mode.
     */
    explicit FxpLaplacePmf(const FxpLaplaceConfig &config,
                           Mode mode = Mode::Analytic);

    /**
     * Memoized construction: one shared immutable PMF per distinct
     * (PMF-relevant configuration, ICDF object, mode), so repeated
     * certification of mechanisms sharing a parameter block
     * enumerates once. Thread-safe; the cache holds strong references
     * (the distinct configurations of a process are few).
     */
    static std::shared_ptr<const FxpLaplacePmf>
    shared(const FxpLaplaceConfig &config, Mode mode = Mode::Analytic);

    /** Drop every memoized PMF (benches re-measuring construction). */
    static void clearSharedCache();

    /** Configuration described. */
    const FxpLaplaceConfig &config() const { return config_; }

    /** Mode used. */
    Mode mode() const { return mode_; }

    /** The m1 boundary function of Eq. (11) (Laplace stage). */
    double m1(int64_t k) const;

    /** The m2 boundary function of Eq. (11) (Laplace stage). */
    double m2(int64_t k) const;

  private:
    /** The count table of @p config in @p mode. */
    static NoisePmf build(const FxpLaplaceConfig &config, Mode mode);

    FxpLaplaceConfig config_;
    Mode mode_;
};

} // namespace ulpdp

#endif // ULPDP_RNG_FXP_LAPLACE_PMF_H
