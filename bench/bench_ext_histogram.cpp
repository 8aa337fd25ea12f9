/**
 * @file
 * Extension: analyst-side histogram deconvolution. The paper
 * evaluates mean/median/variance/count; a histogram (distribution
 * shape) is the harder ask because the LDP noise convolves it away.
 * Using the exact output model as the deconvolution kernel
 * (Richardson-Lucy EM), the analyst recovers the bimodal shape of
 * the Robot Sensors dataset from thresholded LDP reports --
 * post-processing only, no extra privacy cost.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "agg/decode.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/threshold_calc.h"
#include "core/thresholding_mechanism.h"
#include "data/generators.h"

int
main()
{
    using namespace ulpdp;
    bench::banner("Extension: histogram recovery by deconvolution",
                  "Robot Sensors (bimodal), eps = 2, thresholding at "
                  "the exact 2*eps window, 30 reports per entry.");

    Dataset robot = makeRobotSensors();
    FxpMechanismParams p = bench::standardParams(robot, 2.0);
    ThresholdCalculator calc(p);
    int64_t t = calc.exactIndex(RangeControl::Thresholding, 2.0);
    ThresholdingMechanism mech(p, t);
    ThresholdingOutputModel model(calc.pmf(), calc.span(), t);
    agg::FrequencyDecoder decoder(model);

    // True input histogram on the mechanism grid.
    std::vector<double> truth(static_cast<size_t>(calc.span()) + 1,
                              0.0);
    std::vector<int64_t> reports;
    const int kRepeats = 30;
    for (double x : robot.values) {
        int64_t xi = mech.toIndex(x) - mech.loIndex();
        truth[static_cast<size_t>(xi)] +=
            1.0 / static_cast<double>(robot.size());
        for (int r = 0; r < kRepeats; ++r) {
            double y = mech.noise(x).value;
            reports.push_back(
                static_cast<int64_t>(std::llround(y / mech.delta())) -
                mech.loIndex());
        }
    }
    // Reports above were shifted so index 0 = range lower limit,
    // matching the model; slot s holds output index outputLo() + s.
    std::vector<uint64_t> slot_counts(decoder.numOutputs(), 0);
    for (int64_t j : reports)
        ++slot_counts[static_cast<size_t>(j - decoder.outputLo())];
    auto pi = decoder.maximumLikelihood(slot_counts, 400);

    TextTable table;
    table.setHeader({"range bin (m)", "true mass", "recovered",
                     "raw output mass"});
    // Raw output histogram clipped to the input range for contrast.
    std::vector<double> raw(truth.size(), 0.0);
    for (int64_t j : reports) {
        int64_t c = std::clamp<int64_t>(j, 0, calc.span());
        raw[static_cast<size_t>(c)] +=
            1.0 / static_cast<double>(reports.size());
    }
    for (size_t i = 0; i < truth.size(); i += 2) {
        double lo = robot.range.lo +
                    static_cast<double>(i) * p.resolvedDelta();
        table.addRow({
            TextTable::fmt(lo, 2),
            TextTable::fmt(truth[i], 4),
            TextTable::fmt(pi[i], 4),
            TextTable::fmt(raw[i], 4),
        });
    }
    table.print(std::cout);

    // Shape score: total variation at the native resolution.
    double tv_est = 0.0;
    double tv_raw = 0.0;
    for (size_t i = 0; i < truth.size(); ++i) {
        tv_est += std::abs(pi[i] - truth[i]);
        tv_raw += std::abs(raw[i] - truth[i]);
    }
    std::printf("\ntotal variation to truth: deconvolved %.3f vs raw "
                "output histogram %.3f\n", tv_est / 2.0,
                tv_raw / 2.0);
    std::printf("\nReading: the raw output histogram is flattened by "
                "the Laplace kernel; the exact-model deconvolution "
                "restores both modes -- the same exact PMF that "
                "proves privacy also buys the analyst utility.\n");
    return 0;
}
