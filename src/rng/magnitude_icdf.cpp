#include "rng/magnitude_icdf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ulpdp {

// --- GaussianMagnitude -----------------------------------------------------

GaussianMagnitude::GaussianMagnitude(double sigma) : sigma_(sigma)
{
    if (!(sigma > 0.0))
        fatal("GaussianMagnitude: sigma must be positive, got %g",
              sigma);
}

double
GaussianMagnitude::probit(double p)
{
    ULPDP_ASSERT(p > 0.0 && p < 1.0);

    // Acklam's rational approximation, |relative error| < 1.15e-9.
    static const double a[] = {-3.969683028665376e+01,
                               2.209460984245205e+02,
                               -2.759285104469687e+02,
                               1.383577518672690e+02,
                               -3.066479806614716e+01,
                               2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
                               1.615858368580409e+02,
                               -1.556989798598866e+02,
                               6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
                               -3.223964580411365e-01,
                               -2.400758277161838e+00,
                               -2.549732539343734e+00,
                               4.374664141464968e+00,
                               2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
                               3.224671290700398e-01,
                               2.445134137142996e+00,
                               3.754408661907416e+00};
    const double p_low = 0.02425;

    if (p < p_low) {
        double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                 c[4]) * q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > 1.0 - p_low) {
        double q = std::sqrt(-2.0 * std::log(1.0 - p));
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                  c[4]) * q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    double q = p - 0.5;
    double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r +
             a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r +
             b[4]) * r + 1.0);
}

double
GaussianMagnitude::magnitude(double u) const
{
    ULPDP_ASSERT(u > 0.0 && u <= 1.0);
    if (u >= 1.0)
        return 0.0;
    // Pr[|N| >= x] = u  <=>  x = sigma * probit(1 - u/2).
    return sigma_ * probit(1.0 - u / 2.0);
}

// --- StaircaseMagnitude ----------------------------------------------------

StaircaseMagnitude::StaircaseMagnitude(double sensitivity,
                                       double epsilon, double gamma)
    : d_(sensitivity), epsilon_(epsilon), gamma_(gamma)
{
    if (!(sensitivity > 0.0))
        fatal("StaircaseMagnitude: sensitivity must be positive");
    if (!(epsilon > 0.0))
        fatal("StaircaseMagnitude: epsilon must be positive");
    if (!(gamma > 0.0 && gamma < 1.0))
        fatal("StaircaseMagnitude: gamma must be in (0, 1), got %g",
              gamma);

    // Magnitude density (two-sided folded to one side): tall step
    // height 2a e^{-k eps} over [k d, (k+gamma) d), short step
    // 2a e^{-(k+1) eps} over [(k+gamma) d, (k+1) d), with
    // 2a = (1 - e^-eps) / (d (gamma + e^-eps (1 - gamma))).
    e_ = std::exp(-epsilon_);
    two_a_ = (1.0 - e_) / (d_ * (gamma_ + e_ * (1.0 - gamma_)));
    p_first_ = two_a_ * gamma_ * d_;       // tall-step mass, period 0
    p_period_ = 1.0 - e_;                  // total mass of period 0
    ULPDP_ASSERT(p_first_ <= p_period_ + 1e-12);
}

double
StaircaseMagnitude::optimalGamma(double epsilon)
{
    double s = std::exp(-epsilon / 2.0);
    return s / (1.0 + s);
}

double
StaircaseMagnitude::magnitude(double u) const
{
    ULPDP_ASSERT(u > 0.0 && u <= 1.0);
    if (u >= 1.0)
        return 0.0;

    // Period index: Pr[|N| >= k d] = e^{-k eps}.
    double k_real = std::floor(-std::log(u) / epsilon_);
    double k = std::max(k_real, 0.0);
    double e_k = std::exp(-k * epsilon_);
    double consumed = e_k - u; // mass between k d and the target
    double tall_mass = p_first_ * e_k;
    double short_mass = (p_period_ - p_first_) * e_k;

    if (consumed <= tall_mass) {
        double height = two_a_ * e_k;
        return k * d_ + consumed / height;
    }
    double height = two_a_ * e_k * e_;
    double into_short = consumed - tall_mass;
    if (into_short > short_mass)
        into_short = short_mass; // numerical guard at period edge
    return (k + gamma_) * d_ + into_short / height;
}

} // namespace ulpdp
