/**
 * @file
 * Ablation: the batch size K of constant-time resampling
 * (Section IV-C's timing-channel mitigation). Sweeps K and reports
 * the clamp-fallback probability, the exact worst-case loss at a
 * K-specific window, and the (constant) per-report sample cost --
 * quantifying the privacy / energy trade the mitigation makes.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/constant_time.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"

int
main()
{
    using namespace ulpdp;
    bench::banner("Ablation: constant-time resampling batch size K",
                  "Sensor range [0, 10], eps = 0.5, loss bound "
                  "2*eps; window re-searched per K.");

    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    ThresholdCalculator calc(p);
    double bound = 2.0 * p.epsilon;

    TextTable table;
    table.setHeader({"K", "window T", "worst fallback prob",
                     "exact loss", "samples/report",
                     "timing channel"});

    for (int k : {1, 2, 3, 4, 6, 8, 16}) {
        // Search the widest window valid for this K.
        auto loss_at = [&](int64_t t) {
            ConstantTimeOutputModel model(calc.pmf(), calc.span(), t,
                                          k);
            return PrivacyLossAnalyzer::analyze(model)
                .worst_case_loss;
        };
        int64_t lo = bench::widestWindow(calc.pmf()->maxIndex(), bound,
                                         loss_at);
        if (lo < 0) {
            table.addRow({std::to_string(k), "none", "-", "-", "-",
                          "-"});
            continue;
        }

        ConstantTimeOutputModel model(calc.pmf(), calc.span(), lo, k);
        double worst_fallback = 0.0;
        for (int64_t i = 0; i <= calc.span(); ++i)
            worst_fallback = std::max(worst_fallback,
                                      model.fallbackProbability(i));
        table.addRow({
            std::to_string(k),
            std::to_string(lo),
            TextTable::fmtPercent(worst_fallback, 3),
            TextTable::fmt(loss_at(lo), 4),
            std::to_string(k),
            "none (fixed latency)",
        });
    }
    table.print(std::cout);

    std::printf("\nFor reference, plain resampling at the same bound "
                "uses T = %lld with data-dependent latency (the "
                "timing channel the paper flags), averaging ~1.001 "
                "samples/report.\n",
                static_cast<long long>(
                    calc.exactIndex(RangeControl::Resampling, 2.0)));
    std::printf("\nReading: K = 1 is thresholding; a small K (2-4) "
                "already drives the clamp fallback to ~0 while "
                "keeping latency and energy input-independent at K "
                "samples per report.\n");
    return 0;
}
