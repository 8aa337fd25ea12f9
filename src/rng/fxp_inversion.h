/**
 * @file
 * Generic fixed-point inversion RNG and its exact PMF.
 *
 * Section III-A4 of the paper argues the infinite-loss failure is not
 * about Laplace specifically: any DP-guaranteeing distribution
 * (Gaussian, staircase, ...) realised by mapping a finite uniform
 * word through an inverse CDF inherits quantized tails, bounded
 * support and interior gaps. This module makes that claim executable:
 * plug any magnitude inverse-CDF into FxpInversionRng, derive its
 * exact PMF with inversionPmf (NoisePmf's segment-rank engine, up to
 * Bu = 32), and run the same privacy-loss analysis and range controls
 * the Laplace path uses.
 *
 * Three magnitude ICDFs are provided:
 *  - LaplaceMagnitude: -lambda ln(u) (identical math to
 *    FxpLaplaceRng; used to cross-validate the generic path),
 *  - GaussianMagnitude: sigma * probit(1 - u/2), the half-normal
 *    quantile, via the Acklam rational approximation of the probit
 *    (|relative error| < 1.2e-9 -- far below any Bu <= 32 grid),
 *  - StaircaseMagnitude: the inverse CDF of the magnitude of the
 *    staircase mechanism (Geng & Viswanath), the noise that is
 *    utility-optimal for pure eps-DP.
 */

#ifndef ULPDP_RNG_FXP_INVERSION_H
#define ULPDP_RNG_FXP_INVERSION_H

#include <cstdint>
#include <memory>
#include <string>

#include "fixed/quantizer.h"
#include "rng/noise_pmf.h"
#include "rng/tausworthe.h"

namespace ulpdp {

/**
 * Magnitude inverse CDF: maps u in (0, 1] to the magnitude
 * F^-1(u) >= 0 such that Pr[|N| >= F^-1(u)] = u for the target
 * distribution (so u = 1 maps to 0 and u -> 0 maps into the tail).
 */
class MagnitudeIcdf
{
  public:
    virtual ~MagnitudeIcdf() = default;

    /** Magnitude with upper-tail probability @p u. */
    virtual double magnitude(double u) const = 0;

    /** Distribution name. */
    virtual std::string name() const = 0;
};

/** |N| for N ~ Lap(lambda): magnitude(u) = -lambda ln(u). */
class LaplaceMagnitude : public MagnitudeIcdf
{
  public:
    explicit LaplaceMagnitude(double lambda);
    double magnitude(double u) const override;
    std::string name() const override { return "Laplace"; }

  private:
    double lambda_;
};

/** |N| for N ~ N(0, sigma^2): magnitude(u) = sigma*probit(1 - u/2). */
class GaussianMagnitude : public MagnitudeIcdf
{
  public:
    explicit GaussianMagnitude(double sigma);
    double magnitude(double u) const override;
    std::string name() const override { return "Gaussian"; }

    /** Acklam's rational approximation of the standard normal
     *  quantile, exposed for testing. p in (0, 1). */
    static double probit(double p);

  private:
    double sigma_;
};

/**
 * |N| for the staircase mechanism with sensitivity d, privacy eps
 * and shape parameter gamma in (0, 1): a piecewise-constant density
 * with steps of height proportional to e^{-k eps} on
 * [k d, (k + gamma) d) and e^{-(k+1) eps} on [(k + gamma) d,
 * (k+1) d). gamma = e^{-eps/2}/(1 + e^{-eps/2}) minimises expected
 * noise magnitude (Geng & Viswanath 2014).
 */
class StaircaseMagnitude : public MagnitudeIcdf
{
  public:
    StaircaseMagnitude(double sensitivity, double epsilon,
                       double gamma);
    double magnitude(double u) const override;
    std::string name() const override { return "Staircase"; }

    /** The optimal gamma for a given epsilon. */
    static double optimalGamma(double epsilon);

  private:
    double d_;
    double epsilon_;
    double gamma_;
    /** Probability of the magnitude landing in period k's first
     *  (tall) step; derived normalisation constants. */
    double p_first_;
    double p_period_;
};

/** Configuration of the generic inversion pipeline. */
struct FxpInversionConfig
{
    /** URNG magnitude width Bu in bits. */
    int uniform_bits = 17;

    /** Output word width By in bits. */
    int output_bits = 12;

    /** Quantization step Delta. */
    double delta = 10.0 / 32.0;
};

/**
 * The generic Fig. 3 pipeline: Bu-bit uniform index -> magnitude
 * ICDF -> round to k * Delta -> random sign.
 */
class FxpInversionRng
{
  public:
    FxpInversionRng(const FxpInversionConfig &config,
                    std::shared_ptr<const MagnitudeIcdf> icdf,
                    uint64_t seed = 1);

    /** Deterministic pipeline map (m in 1..2^Bu, sign +-1). */
    int64_t pipeline(uint64_t m, int sign) const;

    /** Draw one signed noise index. */
    int64_t sampleIndex();

    /** Draw one noise value k * Delta. */
    double sample();

    /** Configuration. */
    const FxpInversionConfig &config() const { return config_; }

    /** Quantizer stage. */
    const Quantizer &quantizer() const { return quantizer_; }

    /** The magnitude ICDF in use. */
    const MagnitudeIcdf &icdf() const { return *icdf_; }

  private:
    FxpInversionConfig config_;
    Quantizer quantizer_;
    std::shared_ptr<const MagnitudeIcdf> icdf_;
    Tausworthe urng_;
};

/**
 * Exact PMF of the FxpInversionRng pipeline over @p icdf: NoisePmf's
 * segment-rank engine with no boundary guess (each bin gallops from
 * the previous boundary), so any monotone ICDF is exact at every URNG
 * width the pipeline accepts.
 */
NoisePmf inversionPmf(const FxpInversionConfig &config,
                      std::shared_ptr<const MagnitudeIcdf> icdf);

} // namespace ulpdp

#endif // ULPDP_RNG_FXP_INVERSION_H
