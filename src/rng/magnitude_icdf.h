/**
 * @file
 * Magnitude inverse CDFs for the Fig. 3 pipeline's ICDF stage.
 *
 * Section III-A4 of the paper argues the infinite-loss failure is not
 * about Laplace specifically: any DP-guaranteeing distribution
 * (Gaussian, staircase, ...) realised by mapping a finite uniform
 * word through an inverse CDF inherits quantized tails, bounded
 * support and interior gaps. Setting FxpLaplaceConfig::icdf makes
 * that claim executable: the one fixed-point pipeline (FxpLaplaceRng,
 * its sampling table, FxpLaplacePmf, the window search and the
 * range-controlled mechanisms) then draws the distribution below
 * instead of the paper's -lambda ln u, with every other stage
 * unchanged.
 *
 * Two magnitude ICDFs are provided:
 *  - GaussianMagnitude: sigma * probit(1 - u/2), the half-normal
 *    quantile, via the Acklam rational approximation of the probit
 *    (|relative error| < 1.2e-9 -- far below any Bu <= 32 grid),
 *  - StaircaseMagnitude: the inverse CDF of the magnitude of the
 *    staircase mechanism (Geng & Viswanath), the noise that is
 *    utility-optimal for pure eps-DP.
 */

#ifndef ULPDP_RNG_MAGNITUDE_ICDF_H
#define ULPDP_RNG_MAGNITUDE_ICDF_H

namespace ulpdp {

/**
 * Magnitude inverse CDF: maps u in (0, 1] to the magnitude
 * F^-1(u) >= 0 such that Pr[|N| >= F^-1(u)] = u for the target
 * distribution (so u = 1 maps to 0 and u -> 0 maps into the tail).
 * Must be non-increasing in u: the exact PMF engine relies on it.
 */
class MagnitudeIcdf
{
  public:
    virtual ~MagnitudeIcdf() = default;

    /** Magnitude with upper-tail probability @p u. */
    virtual double magnitude(double u) const = 0;
};

/** |N| for N ~ N(0, sigma^2): magnitude(u) = sigma*probit(1 - u/2). */
class GaussianMagnitude : public MagnitudeIcdf
{
  public:
    explicit GaussianMagnitude(double sigma);
    double magnitude(double u) const override;

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

    /** The optimal gamma for a given epsilon. */
    static double optimalGamma(double epsilon);

  private:
    double d_;
    double epsilon_;
    double gamma_;
    /** e^-eps, the per-period mass ratio. */
    double e_;
    /** Period-0 tall-step density, 2a in the constructor's notation. */
    double two_a_;
    /** Probability of the magnitude landing in period k's first
     *  (tall) step; derived normalisation constants. */
    double p_first_;
    double p_period_;
};

} // namespace ulpdp

#endif // ULPDP_RNG_MAGNITUDE_ICDF_H
