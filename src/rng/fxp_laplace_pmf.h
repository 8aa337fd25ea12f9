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
 * infinite-loss detection, the resampling/thresholding windows of
 * Eqs. (13)/(15), the Fig. 8 budget segments, the certifier's verdict
 * and the sampler's draws -- runs on this PMF.
 *
 * The count table is the real pipeline's: NoisePmf's segment-rank
 * engine counts the URNG states of every output bin with exact
 * pipeline probes, CORDIC and rounding mode included. Eq. (11) only
 * steers it: floor(m1(k)) is each bin's boundary guess, so the common
 * case costs two probes per bin (exact up to Bu = 32 in
 * microseconds). A config with a magnitude ICDF
 * (FxpLaplaceConfig::icdf) has no closed form; the engine then
 * gallops each boundary from the previous one.
 */

#ifndef ULPDP_RNG_FXP_LAPLACE_PMF_H
#define ULPDP_RNG_FXP_LAPLACE_PMF_H

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
    /** @param config RNG configuration the PMF describes (Bu <= 32). */
    explicit FxpLaplacePmf(const FxpLaplaceConfig &config);

    /**
     * Memoized construction: one shared immutable PMF per distinct
     * (PMF-relevant configuration, ICDF object), so the window
     * search, the budget charges, the sampler table and the
     * certifier of one parameter block all read one object, built
     * once. Thread-safe; the cache holds strong references (the
     * distinct configurations of a process are few).
     */
    static std::shared_ptr<const FxpLaplacePmf>
    shared(const FxpLaplaceConfig &config);

    /** Drop every memoized PMF (benches re-measuring construction). */
    static void clearSharedCache();

    /** Configuration described. */
    const FxpLaplaceConfig &config() const { return config_; }

  private:
    /** The count table of @p config's pipeline. */
    static NoisePmf build(const FxpLaplaceConfig &config);

    FxpLaplaceConfig config_;
};

} // namespace ulpdp

#endif // ULPDP_RNG_FXP_LAPLACE_PMF_H
