/**
 * @file
 * Extension: parallel fleet engine scaling.
 *
 * Sweeps worker thread counts {1, 2, 4, 8, hw_concurrency} over one
 * fleet configuration and reports throughput (reports/second), the
 * speedup against the single-thread run, and -- the part performance
 * work usually sacrifices -- whether the merged FleetReport stayed
 * bit-identical across every thread count and across two same-seed
 * runs. A determinism mismatch is a hard failure (nonzero exit), not
 * a table footnote.
 *
 * A second section drives the same workload through the cycle-level
 * DpBox device model on a small node sample to put the fleet engine's
 * throughput in context: the cycle-accurate model answers
 * microarchitecture questions, the fleet engine answers population
 * questions, and the gap between their rates is why both exist.
 *
 * A third section measures the telemetry tax: the same fleet epoch
 * with the global metric registry enabled, against the metrics-off
 * sweep above. The acceptance budget is <= 5% throughput overhead and
 * a bit-identical fingerprint (telemetry witnesses the run, it never
 * feeds back into it).
 *
 * Measurement protocol (the PR 5 baseline was a single unwarmed
 * sample per sweep point, which recorded thread-pool spawn cost as
 * "scaling" and a *negative* telemetry overhead):
 *
 *  - every sweep point runs one untimed warmup epoch first (parks the
 *    worker pool at the right width, touches every slab); then N >= 1
 *    measured rounds (--repeats, default 3) each run every thread
 *    count once, interleaved as perfbench interleaves its runs, and
 *    every point reports its median round -- a slow phase of the host
 *    lands on all thread counts alike instead of on one of them;
 *  - the telemetry comparison interleaves off/on epoch pairs and
 *    compares medians, so drift hits both sides equally; a negative
 *    overhead reading is a noise-floor artifact and is clamped to 0
 *    in the headline number (the raw value and a below-noise flag are
 *    still emitted);
 *  - every epoch of every mode still must reproduce the sweep's
 *    fingerprint bit for bit.
 *
 * Flags:
 *   --nodes N     nodes per cohort        (default 200000)
 *   --reports R   reports per node        (default 8)
 *   --repeats N   measured rounds over the sweep, median (default 3)
 *   --json PATH   JSON output path        (default BENCH_fleet.json)
 *   --prom PATH   Prometheus exposition   (default BENCH_fleet.prom)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/worker_pool.h"
#include "dpbox/driver.h"
#include "fleet/fleet.h"
#include "rng/taus_bank.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace {

using namespace ulpdp;

uint64_t
flagValue(int argc, char **argv, const char *flag, uint64_t fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == flag)
            return std::strtoull(argv[i + 1], nullptr, 10);
    }
    return fallback;
}

std::string
flagString(int argc, char **argv, const char *flag,
           const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == flag)
            return argv[i + 1];
    }
    return fallback;
}

FleetConfig
makeConfig(uint64_t nodes, uint32_t reports)
{
    // The paper's reference device: range [0, 10], eps = 0.5, Bu = 17,
    // Delta = d/32, loss bound 2*eps. Two range-controlled cohorts
    // exercise both hot paths (batched clamp and truncated inversion),
    // with per-node budgets tight enough that some reports replay.
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 42;
    auto makeCohort = [&](const char *name, CohortMechanism m) {
        CohortConfig c;
        c.name = name;
        c.mechanism = m;
        c.params = p;
        c.loss_multiple = 2.0;
        c.nodes = nodes;
        c.reports_per_node = reports;
        c.budget_per_node = 6.0; // covers 6 fresh reports at 2*eps
        c.analyze_loss = false;  // throughput run
        return c;
    };
    fc.cohorts = {
        makeCohort("thresholding", CohortMechanism::Thresholding),
        makeCohort("resampling", CohortMechanism::Resampling),
    };
    return fc;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    uint64_t nodes = flagValue(argc, argv, "--nodes", 200000);
    uint32_t reports = static_cast<uint32_t>(
        flagValue(argc, argv, "--reports", 8));
    uint32_t repeats = static_cast<uint32_t>(std::max<uint64_t>(
        1, flagValue(argc, argv, "--repeats", 3)));
    std::string json_path = bench::jsonPathFromArgs(argc, argv);
    if (json_path.empty())
        json_path = "BENCH_fleet.json";
    std::string prom_path =
        flagString(argc, argv, "--prom", "BENCH_fleet.prom");

    bench::banner(
        "Extension: parallel fleet engine scaling",
        "Thresholding + resampling cohorts, sharded RNG streams, "
        "lock-free block aggregation;\ndeterminism = merged report "
        "bit-identical across thread counts and same-seed runs.");

    unsigned hw = static_cast<unsigned>(hardwareJobs());
    std::vector<unsigned> sweep = {1, 2, 4, 8, hw};
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

    std::printf("\nfleet: 2 cohorts x %llu nodes x %u reports "
                "(%llu reports total), batch layer: %zu-lane %s "
                "kernel, hardware threads: %u\n"
                "protocol: 1 warmup epoch per thread count + %u "
                "interleaved rounds, median per thread count\n\n",
                static_cast<unsigned long long>(nodes), reports,
                static_cast<unsigned long long>(2 * nodes * reports),
                TausBank::kMaxLanes, TausBank::kernelName(),
                hw, repeats);

    FleetRunner runner(makeConfig(nodes, reports));

    TextTable table;
    table.setHeader({"threads", "seconds", "reports/sec", "speedup",
                     "fingerprint"});

    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        size_t n = v.size();
        return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    };

    // Untimed warmup per thread count: parks the persistent pool at
    // that width, faults in every slab, and fixes the fingerprint the
    // measured epochs must reproduce.
    std::vector<uint64_t> fingerprints;
    for (unsigned t : sweep)
        fingerprints.push_back(runner.run(t).fingerprint());
    // Measured rounds: every thread count once per round.
    std::vector<std::vector<double>> round_seconds(sweep.size());
    bool deterministic = true;
    for (uint32_t r = 0; r < repeats; ++r) {
        for (size_t i = 0; i < sweep.size(); ++i) {
            FleetReport rep = runner.run(sweep[i]);
            deterministic =
                deterministic && rep.fingerprint() == fingerprints[i];
            round_seconds[i].push_back(rep.seconds);
        }
    }
    const double total_reports = 2.0 * static_cast<double>(nodes) *
                                 static_cast<double>(reports);
    std::vector<double> rates;
    for (size_t i = 0; i < sweep.size(); ++i) {
        const double seconds = median(round_seconds[i]);
        rates.push_back(seconds > 0.0 ? total_reports / seconds : 0.0);
        char sec[32], rate[32], speed[32], fpbuf[32];
        std::snprintf(sec, sizeof sec, "%.3f", seconds);
        std::snprintf(rate, sizeof rate, "%.3g", rates.back());
        std::snprintf(speed, sizeof speed, "%.2fx",
                      rates.front() > 0.0
                          ? rates.back() / rates.front()
                          : 0.0);
        std::snprintf(fpbuf, sizeof fpbuf, "%016llx",
                      static_cast<unsigned long long>(fingerprints[i]));
        table.addRow({std::to_string(sweep[i]), sec, rate, speed, fpbuf});
    }
    table.print(std::cout);

    // Same-seed repeatability: a second run at the largest count.
    FleetReport rerun = runner.run(sweep.back());
    for (uint64_t fp : fingerprints)
        deterministic = deterministic && fp == fingerprints.front();
    deterministic =
        deterministic && rerun.fingerprint() == fingerprints.front();

    double hw_speedup =
        rates.front() > 0.0 ? rates.back() / rates.front() : 0.0;
    std::printf("\nbit-exact determinism across thread counts and "
                "same-seed reruns: %s\n",
                deterministic ? "PASS" : "FAIL");
    std::printf("speedup at %u threads vs 1 thread: %.2fx "
                "(target >= 4x on a >= 8-core host; this host has "
                "%u)\n",
                sweep.back(), hw_speedup, hw);

    // --- telemetry overhead -----------------------------------------
    // Same epoch, same thread count, with the global metric registry
    // enabled. Budget: <= 5% throughput overhead, and the fingerprint
    // must not move (telemetry observes the run; it must never
    // participate in it).
    //
    // Protocol: off/on epochs are *interleaved* and compared by
    // median, so clock drift and scheduler noise land on both sides
    // of the subtraction. The PR 5 single-shot comparison (one off
    // run, then one on run) could and did measure telemetry as
    // *faster* -- a -2.89% "overhead" landed in the committed
    // baseline. If the median still comes out negative, the true
    // overhead is below the host's noise floor: the headline number
    // is clamped to 0 and the reading flagged.
    telemetry::reset();
    telemetry::setEnabled(true);
    FleetReport warm_on = runner.run(sweep.back()); // instrumented warmup
    telemetry::setEnabled(false);
    bool telemetry_deterministic =
        warm_on.fingerprint() == fingerprints.front();
    std::vector<double> rates_off, rates_on;
    for (uint32_t r = 0; r < repeats; ++r) {
        FleetReport off = runner.run(sweep.back());
        telemetry::setEnabled(true);
        FleetReport on = runner.run(sweep.back());
        telemetry::setEnabled(false);
        rates_off.push_back(off.reportsPerSecond());
        rates_on.push_back(on.reportsPerSecond());
        telemetry_deterministic = telemetry_deterministic &&
            off.fingerprint() == fingerprints.front() &&
            on.fingerprint() == fingerprints.front();
    }
    double rate_off = median(rates_off);
    double rate_on = median(rates_on);
    double overhead_raw_pct = rate_off > 0.0
        ? (rate_off - rate_on) / rate_off * 100.0
        : 0.0;
    bool overhead_below_noise = overhead_raw_pct < 0.0;
    double overhead_pct = std::max(0.0, overhead_raw_pct);
    std::printf("\ntelemetry overhead at %u threads (median of %u "
                "interleaved off/on pairs): %.3g -> %.3g reports/sec "
                "(%+.2f%%%s, budget <= 5%%)\n",
                sweep.back(), repeats, rate_off, rate_on,
                overhead_pct,
                overhead_below_noise ? ", raw reading negative: "
                                       "below noise floor, clamped"
                                     : "");
    std::printf("fingerprint with telemetry enabled: %s\n",
                telemetry_deterministic ? "unchanged (PASS)"
                                        : "CHANGED (FAIL)");
    // Re-observe exactly one instrumented epoch so the exported
    // metric values below describe a single epoch, not the interleave
    // loop.
    telemetry::reset();
    telemetry::setEnabled(true);
    runner.run(sweep.back());
    telemetry::setEnabled(false);
    if (telemetry::writePrometheusFile(telemetry::registry(),
                                       prom_path))
        std::printf("Prometheus exposition written to %s (%zu series "
                    "-- textfile-collector handoff)\n",
                    prom_path.c_str(), telemetry::registry().size());

    // --- cycle-level context ----------------------------------------
    // The same device parameters through the clocked DpBox model, on
    // a small sample, with per-device stats folded through
    // DpBoxStats::operator+= the way a fleet aggregator would.
    const uint64_t kSampleNodes = 64;
    const uint32_t kSampleReports = 16;
    DpBoxStats total;
    auto c0 = std::chrono::steady_clock::now();
    for (uint64_t nid = 0; nid < kSampleNodes; ++nid) {
        DpBoxConfig cfg;
        cfg.frac_bits = 5;
        cfg.word_bits = 20;
        cfg.uniform_bits = 17;
        cfg.threshold_index = 418;
        cfg.thresholding = true;
        cfg.seed = 1000 + nid;
        DpBoxDriver drv(cfg);
        drv.initialize(1e9, 0);
        drv.configure(0.5, SensorRange(0.0, 10.0));
        for (uint32_t t = 0; t < kSampleReports; ++t)
            drv.noise(5.0);
        total += drv.device().stats();
    }
    auto c1 = std::chrono::steady_clock::now();
    double cyc_seconds =
        std::chrono::duration<double>(c1 - c0).count();
    uint64_t cyc_reports = kSampleNodes * kSampleReports;
    double cyc_rate =
        cyc_seconds > 0.0 ? cyc_reports / cyc_seconds : 0.0;
    std::printf("\ncycle-level DpBox model: %llu reports in %.3f s "
                "(%.3g reports/sec, %llu device cycles simulated)\n",
                static_cast<unsigned long long>(cyc_reports),
                cyc_seconds, cyc_rate,
                static_cast<unsigned long long>(total.cycles));
    if (cyc_rate > 0.0)
        std::printf("fleet engine vs cycle-level model: %.0fx the "
                    "report rate -- population-scale runs need the "
                    "fleet path.\n", rates.back() / cyc_rate);

    bench::JsonWriter json;
    json.beginObject();
    json.field("bench", "fleet scaling");
    json.field("nodes_per_cohort", nodes);
    json.field("reports_per_node", reports);
    json.field("cohorts", uint64_t{2});
    json.field("hardware_threads", hw);
    json.field("warmup_epochs_per_point", uint64_t{1});
    json.field("measured_epochs_per_point", uint64_t{repeats});
    json.field("measurement", "interleaved rounds, median per point");
    json.field("simd_kernel", TausBank::kernelName());
    json.field("batch_lanes",
               static_cast<uint64_t>(TausBank::kMaxLanes));
    json.field("bit_exact_determinism", deterministic);
    json.field("speedup_max_vs_1", hw_speedup);
    json.beginArray("sweep");
    for (size_t i = 0; i < sweep.size(); ++i) {
        json.beginObject();
        json.field("threads", sweep[i]);
        json.field("reports_per_second", rates[i]);
        json.field("speedup_vs_1",
                   rates.front() > 0.0 ? rates[i] / rates.front()
                                       : 0.0);
        char fpbuf[32];
        std::snprintf(fpbuf, sizeof fpbuf, "%016llx",
                      static_cast<unsigned long long>(
                          fingerprints[i]));
        json.field("fingerprint", fpbuf);
        json.endObject();
    }
    json.endArray();
    json.field("cycle_model_reports_per_second", cyc_rate);
    json.field("cycle_model_device_cycles", total.cycles);
    json.field("telemetry_reports_per_second", rate_on);
    json.field("telemetry_overhead_pct", overhead_pct);
    json.field("telemetry_overhead_raw_pct", overhead_raw_pct);
    json.field("telemetry_overhead_below_noise",
               overhead_below_noise);
    json.field("telemetry_fingerprint_unchanged",
               telemetry_deterministic);
    telemetry::metricsToJson(telemetry::registry(), json);
    telemetry::journalToJson(telemetry::journal(), json);
    json.endObject();
    if (json.writeFile(json_path))
        std::printf("\nJSON written to %s\n", json_path.c_str());

    if (!deterministic || !telemetry_deterministic) {
        std::printf("\nFAIL: merged fleet reports differ across "
                    "thread counts or telemetry modes.\n");
        return 1;
    }
    std::printf("\nTakeaway: per-node streams are derived, not "
                "shared, and merges happen in a fixed block order, so "
                "adding cores changes the wall clock and nothing "
                "else.\n");
    return 0;
}
