/**
 * @file
 * Ablation: does the CORDIC logarithm change the privacy analysis?
 *
 * The paper's Eq. (11) analysis assumes an exact logarithm; the real
 * DP-Box computes it with CORDIC, whose finite precision can move a
 * URNG state across a quantization-bin edge. We enumerate the exact
 * PMF of the *CORDIC* pipeline at several iteration counts, count
 * how many states shift relative to the reference pipeline, and
 * recompute the exact thresholds on the device-true PMF -- showing
 * how many iterations are enough for the analysis to transfer.
 */

#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "rng/fxp_laplace_pmf.h"

using namespace ulpdp;

int
main()
{
    bench::banner("Ablation: CORDIC precision vs the privacy "
                  "analysis",
                  "Bu = 16, Delta = 10/32, Lap(20); enumerated "
                  "device-true PMFs.");

    FxpLaplaceConfig ref_cfg;
    ref_cfg.uniform_bits = 16;
    ref_cfg.output_bits = 12;
    ref_cfg.delta = 10.0 / 32.0;
    ref_cfg.lambda = 20.0;

    FxpLaplacePmf reference(ref_cfg);
    int64_t span = 32;
    double bound = 2.0 * 0.5;

    auto ref_pmf = std::make_shared<FxpLaplacePmf>(ref_cfg);
    int64_t ref_t = bench::resamplingThreshold(ref_pmf, span, bound);

    TextTable table;
    table.setHeader({"log unit", "shifted URNG states",
                     "shift rate", "exact resamp T",
                     "delta vs reference"});
    table.addRow({"reference (exact log)", "0", "0%",
                  std::to_string(ref_t), "0"});

    for (int iters : {12, 16, 20, 24, 32}) {
        FxpLaplaceConfig hw_cfg = ref_cfg;
        hw_cfg.log_mode = FxpLaplaceConfig::LogMode::Cordic;
        hw_cfg.cordic_iterations = iters;
        auto hw_pmf = std::make_shared<FxpLaplacePmf>(hw_cfg);

        uint64_t shifted = 0;
        int64_t top = std::max(reference.maxIndex(),
                               hw_pmf->maxIndex());
        for (int64_t k = 0; k <= top; ++k) {
            uint64_t a = reference.magnitudeCount(k);
            uint64_t b = hw_pmf->magnitudeCount(k);
            shifted += a > b ? a - b : b - a;
        }
        shifted /= 2; // each moved state counts in two bins

        int64_t hw_t = bench::resamplingThreshold(hw_pmf, span, bound);
        table.addRow({
            "CORDIC x" + std::to_string(iters),
            std::to_string(shifted),
            TextTable::fmtPercent(
                static_cast<double>(shifted) /
                    std::ldexp(1.0, ref_cfg.uniform_bits), 4),
            std::to_string(hw_t),
            std::to_string(hw_t - ref_t),
        });
    }
    table.print(std::cout);

    std::printf("\nReading: a handful of bin-edge states move under "
                "CORDIC rounding; by ~20+ iterations the exact "
                "threshold computed on the device-true PMF matches "
                "the reference analysis within a few bins -- size "
                "thresholds on the enumerated device PMF when "
                "iteration count is low.\n");
    return 0;
}
