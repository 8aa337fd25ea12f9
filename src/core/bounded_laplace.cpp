#include "core/bounded_laplace.h"

#include <cmath>

#include "common/logging.h"
#include "core/budget.h"
#include "core/output_model.h"
#include "core/privacy_loss.h"

namespace ulpdp {

BoundedLaplaceMechanism::BoundedLaplaceMechanism(
        const FxpMechanismParams &params)
    : FxpMechanismBase(params), max_attempts_(1u << 20)
{
    // The corrected scale is b = lambda_scale * d / eps with
    // b > d / eps_t, so any value except the default 1.0 can be a
    // genuine resolution (at eps_t = 2 eps the fixed point lands
    // near 0.7). Exactly 1.0 is the unresolved default.
    if (params.lambda_scale <= 0.0 || params.lambda_scale == 1.0)
        fatal("BoundedLaplaceMechanism: lambda_scale %g carries no "
              "bounded correction; resolve the parameter block with "
              "BoundedLaplaceMechanism::resolveParams first",
              params.lambda_scale);
}

NoisedReport
BoundedLaplaceMechanism::noise(double x)
{
    int64_t xi = checkAndIndex(x);

    // T = 0: the release window is the sensor range itself. The
    // confined draw is the same primitive the budget controllers use
    // -- one truncated rank lookup on the fast path, accept-reject
    // with a degradation guard without it.
    uint64_t samples = 0;
    uint64_t overflows = 0;
    int64_t out = drawConfinedOutput(rng_, RangeControl::Resampling,
                                     xi, lo_index_, hi_index_,
                                     max_attempts_, samples, overflows,
                                     "BoundedLaplaceMechanism");
    NoisedReport report;
    report.value = toValue(out);
    report.samples_drawn = samples;
    return report;
}

double
BoundedLaplaceMechanism::holohanScale(double d, double eps)
{
    if (!(d > 0.0))
        fatal("BoundedLaplaceMechanism: range width must be positive, "
              "got %g", d);
    if (!(eps > 0.0))
        fatal("BoundedLaplaceMechanism: eps must be positive, got %g",
              eps);

    // Fixed-point iteration b <- d / (eps - ln dC(b)) from the
    // uncorrected seed b0 = d / eps. dC is decreasing in b, so the
    // map is monotone-decreasing; in the valid region it contracts
    // and a handful of iterations reach machine precision.
    double b = d / eps;
    for (int iter = 0; iter < 500; ++iter) {
        double dc = 2.0 / (1.0 + std::exp(-d / (2.0 * b)));
        double denom = eps - std::log(dc);
        if (!(denom > 0.0))
            fatal("BoundedLaplaceMechanism: eps = %g is below the "
                  "normalisation penalty ln dC = %g on range width "
                  "%g; no bounded scale exists", eps, std::log(dc), d);
        double next = d / denom;
        if (std::fabs(next - b) <= 1e-13 * b)
            return next;
        b = next;
    }
    warn("BoundedLaplaceMechanism: Holohan fixed point did not reach "
         "machine precision after 500 iterations (b = %g)", b);
    return b;
}

double
BoundedLaplaceMechanism::truncatedVariance(double b, double lo,
                                           double hi, double x)
{
    ULPDP_ASSERT(b > 0.0 && lo <= x && x <= hi);
    double A = (x - lo) / b;
    double B = (hi - x) / b;
    double ea = std::exp(-A);
    double eb = std::exp(-B);
    double C = 1.0 - 0.5 * (ea + eb);
    double M1 = 0.5 * b * (ea * (1.0 + A) - eb * (1.0 + B));
    double M2 = b * b * (2.0 - 0.5 * ea * (A * A + 2.0 * A + 2.0)
                             - 0.5 * eb * (B * B + 2.0 * B + 2.0));
    double mean = M1 / C;
    return M2 / C - mean * mean;
}

FxpMechanismParams
BoundedLaplaceMechanism::resolveParams(const FxpMechanismParams &base,
                                       double loss_multiple)
{
    if (!(loss_multiple >= 1.0))
        fatal("BoundedLaplaceMechanism: loss multiple must be >= 1, "
              "got %g", loss_multiple);

    FxpMechanismParams p = base;
    double d = base.range.length();
    double eps_t = loss_multiple * base.epsilon;

    // Continuous seed: the Holohan fixed point at the per-query
    // target eps_t. lambda() = lambda_scale * d / eps, so the scale
    // factor converting the nominal d / eps to b is b * eps / d.
    double b = holohanScale(d, eps_t);
    p.lambda_scale = b * base.epsilon / d;

    // The continuous argument ignores quantization: flooring URNG
    // states into Delta bins perturbs every probability ratio, and
    // Gazeau et al. show such rounding can inflate the loss without
    // bound. So trust nothing: verify the exact discrete model and
    // widen the scale until the enumerated worst case meets the
    // bound (same tolerance discipline as ThresholdCalculator). Each
    // candidate's PMF comes from the shared cache, so the accepted
    // one is the object every later reader of the resolved block
    // (makePmf, the sampler table) gets: built once.
    double bound = eps_t * (1.0 + 1e-9) + 1e-12;
    int64_t span = p.rangeIndexSpan();
    for (int iter = 0; iter < 220; ++iter) {
        ResamplingOutputModel model(FxpLaplacePmf::shared(p.rngConfig()),
                                    span, 0);
        LossReport rep = PrivacyLossAnalyzer::analyze(model);
        if (rep.bounded && rep.worst_case_loss <= bound)
            return p;
        p.lambda_scale *= 1.01;
    }
    fatal("BoundedLaplaceMechanism: no scale within ~8x of the "
          "Holohan seed meets the %g loss bound (range width %g, "
          "eps %g, Bu %d) -- the quantization grid is too coarse "
          "for a bounded release window",
          eps_t, d, base.epsilon, base.uniform_bits);
}

} // namespace ulpdp
