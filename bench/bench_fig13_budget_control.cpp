/**
 * @file
 * Reproduces Fig. 13: effectiveness of privacy budget control against
 * an averaging adversary. Relative error of the adversary's estimate
 * versus the number of data requests, with no budget and with two
 * finite budgets (eps = 0.5 per the paper).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/budget.h"
#include "sim/adversary.h"

namespace {

using namespace ulpdp;

BudgetController
makeController(const FxpMechanismParams &p, double budget,
               uint64_t seed)
{
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = budget;
    cfg.kind = RangeControl::Thresholding;
    cfg.segments = LossSegments::compute(
        calc, RangeControl::Thresholding, {1.5, 2.0});
    FxpMechanismParams seeded = p;
    seeded.seed = seed;
    return BudgetController(seeded, cfg);
}

} // anonymous namespace

int
main()
{
    bench::banner("Fig. 13: budget control vs an averaging adversary",
                  "Sensor range [0, 10], true reading 7.0, "
                  "eps = 0.5 per report; no budget vs B = 20 vs "
                  "B = 100.");

    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    const double truth = 7.0;
    const int kRuns = 40; // independent runs averaged per curve
    std::vector<uint64_t> checkpoints{1,    3,    10,    30,   100,
                                      300,  1000, 3000,  10000,
                                      30000, 100000};

    auto averaged = [&](double budget, uint64_t seed_base) {
        std::vector<double> err(checkpoints.size(), 0.0);
        uint64_t cache_hits = 0;
        for (int r = 0; r < kRuns; ++r) {
            BudgetController ctrl =
                makeController(p, budget, seed_base + r);
            auto curve = AveragingAdversary::attack(ctrl, truth,
                                                    checkpoints);
            for (size_t i = 0; i < curve.size(); ++i)
                err[i] += curve[i].relative_error;
            cache_hits += curve.back().cache_hits;
        }
        for (auto &e : err)
            e /= kRuns;
        return std::make_pair(err, cache_hits / kRuns);
    };

    auto [e_none, h_none] = averaged(1e9, 100);
    auto [e_100, h_100] = averaged(100.0, 200);
    auto [e_20, h_20] = averaged(20.0, 300);

    TextTable table;
    table.setHeader({"requests", "rel.err (no budget)",
                     "rel.err (B=100)", "rel.err (B=20)"});
    for (size_t i = 0; i < checkpoints.size(); ++i) {
        table.addRow({
            std::to_string(checkpoints[i]),
            TextTable::fmtPercent(e_none[i], 2),
            TextTable::fmtPercent(e_100[i], 2),
            TextTable::fmtPercent(e_20[i], 2),
        });
    }
    table.print(std::cout);
    std::printf("\navg cache hits at 100000 requests: none=%llu "
                "B=100: %llu  B=20: %llu\n",
                static_cast<unsigned long long>(h_none),
                static_cast<unsigned long long>(h_100),
                static_cast<unsigned long long>(h_20));

    std::printf("\nExpected shape (paper Fig. 13): without budget "
                "control the error keeps falling toward zero; with a "
                "finite budget the device switches to cache replay "
                "and the error flattens at a floor set by the budget "
                "(smaller budget -> higher floor).\n");
    return 0;
}
