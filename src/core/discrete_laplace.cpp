#include "core/discrete_laplace.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/threshold_calc.h"

namespace ulpdp {

FxpMechanismParams
DiscreteLaplaceMechanism::resolveParams(const FxpMechanismParams &base,
                                        double loss_multiple,
                                        int64_t *threshold_index)
{
    if (!(loss_multiple >= 1.0))
        fatal("DiscreteLaplaceMechanism: loss multiple must be >= 1, "
              "got %g", loss_multiple);

    FxpMechanismParams p = withFloorRounding(base);
    const double eps_t = loss_multiple * base.epsilon;
    const double penalty = std::log(2.0);
    if (!(eps_t > penalty))
        fatal("DiscreteLaplaceMechanism: loss target %g nats is at or "
              "below the ln 2 = %g zero-atom penalty of the "
              "truncating quantizer; the penalty is scale-invariant, "
              "so no scale meets the bound (raise eps or the loss "
              "multiple)", eps_t, penalty);

    // Continuous seed: the worst loss decomposes as (zero-atom
    // penalty) + (geometric term) = ln 2 + d / lambda_eff, so the
    // smallest workable inflation is eps / (eps_t - ln 2). Scales
    // below 1 mean the nominal lambda already clears the bound.
    p.lambda_scale =
        std::max(1.0, base.epsilon / (eps_t - penalty));

    // Exact refinement, same discipline as the bounded mechanism:
    // quantization perturbs every count ratio, so widen the scale
    // until the exact window search actually finds a threshold.
    for (int iter = 0; iter < 220; ++iter) {
        ThresholdCalculator calc(p);
        int64_t t =
            calc.exactIndex(RangeControl::Resampling, loss_multiple);
        if (t >= 0) {
            if (threshold_index != nullptr)
                *threshold_index = t;
            return p;
        }
        p.lambda_scale *= 1.01;
    }
    fatal("DiscreteLaplaceMechanism: no scale within ~8x of the "
          "continuous seed meets the %g loss bound (range width %g, "
          "eps %g, Bu %d)", eps_t, base.range.length(), base.epsilon,
          base.uniform_bits);
}

} // namespace ulpdp
