/**
 * @file
 * Extension (Section IV's multi-sensor concern): a wearable with
 * three sensors sharing one privacy budget pool. Shows that the
 * combined privacy loss across all sensors is capped by the pool --
 * an adversary correlating streams gains no more than the pool
 * allows -- and how the sensors contend for it.
 */

#include <cstdio>
#include <iostream>
#include <utility>

#include "bench_util.h"
#include "common/table.h"
#include "core/budget.h"

int
main()
{
    using namespace ulpdp;
    bench::banner("Extension: shared budget across sensors",
                  "Accelerometer + heart rate + barometer on one "
                  "pool (B = 30), eps = 0.5 each, thresholding.");

    auto make_params = [](double lo, double hi, uint64_t seed) {
        FxpMechanismParams p;
        p.range = SensorRange(lo, hi);
        p.epsilon = 0.5;
        p.uniform_bits = 17;
        p.output_bits = 14;
        p.delta = (hi - lo) / 32.0;
        p.seed = seed;
        return p;
    };

    BudgetPool pool(30.0);

    FxpMechanismParams pa = make_params(-2.0, 2.0, 11); // accel, g
    FxpMechanismParams ph = make_params(40.0, 200.0, 12); // HR, bpm
    FxpMechanismParams pb = make_params(950.0, 1050.0, 13); // hPa

    auto segs = [](const FxpMechanismParams &p) {
        ThresholdCalculator calc(p);
        return LossSegments::compute(calc,
                                     RangeControl::Thresholding,
                                     {1.5, 2.0});
    };
    BudgetController accel(pa, RangeControl::Thresholding, segs(pa),
                           pool);
    BudgetController heart(ph, RangeControl::Thresholding, segs(ph),
                           pool);
    BudgetController baro(pb, RangeControl::Thresholding, segs(pb),
                          pool);

    // An app polls all three sensors in lockstep.
    const int kRounds = 60;
    for (int i = 0; i < kRounds; ++i) {
        accel.request(0.35);
        heart.request(72.0);
        baro.request(1013.0);
    }

    TextTable table;
    table.setHeader({"Sensor", "fresh reports", "cache replays"});
    const std::pair<const char *, const BudgetController *> sensors[] =
        {{"accelerometer", &accel},
         {"heart rate", &heart},
         {"barometer", &baro}};
    for (const auto &[name, s] : sensors) {
        table.addRow({
            name,
            std::to_string(s->freshReports()),
            std::to_string(s->cacheHits()),
        });
    }
    table.print(std::cout);

    std::printf("\npool: charged %.3f of %.1f nats total across all "
                "sensors; remaining %.3f\n",
                nats(pool.totalCharged()), nats(pool.initial()),
                nats(pool.remaining()));
    std::printf("\nInvariant demonstrated: sum of losses over ALL "
                "streams <= pool budget, so even an adversary "
                "correlating the three streams faces a single "
                "composition bound (the Section IV requirement).\n");
    return 0;
}
