/**
 * @file
 * Extension: table-driven O(1) sampling fast path.
 *
 * The FxP Laplace pipeline is a fixed deterministic map from 2^Bu
 * URNG states to output indices, so its entire output distribution
 * can be precomputed at configuration time into a direct-lookup
 * table. This bench measures the per-draw cost of the naive pipeline
 * (Reference log and CORDIC log) against the table path, and the
 * per-report cost of accept-reject resampling against the truncated
 * direct-inversion sampler that serves a windowed draw in one table
 * lookup.
 *
 * Acceptance target: the table path is >= 5x faster per draw than
 * the naive CORDIC pipeline it replaces. Rows at Bu = 24 and 32 give
 * the ROM size, build time and 16-lane draw cost of the wider
 * tables.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "rng/batch_sampler.h"
#include "rng/fxp_laplace.h"
#include "rng/laplace_table.h"
#include "rng/taus_bank.h"

namespace {

using namespace ulpdp;
using Clock = std::chrono::steady_clock;

FxpLaplaceConfig
benchConfig(FxpLaplaceConfig::LogMode log_mode,
            FxpLaplaceConfig::SamplePath path)
{
    // The paper's Bu = 17 URNG, Delta = d/32 with d = 10, eps = 0.5.
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = 17;
    cfg.output_bits = 14;
    cfg.delta = 10.0 / 32.0;
    cfg.lambda = 10.0 / 0.5;
    cfg.log_mode = log_mode;
    cfg.sample_path = path;
    return cfg;
}

/** ns per draw over n unbounded draws (checksum defeats DCE). */
double
timeScalar(FxpLaplaceRng &rng, int n, int64_t &sink)
{
    auto t0 = Clock::now();
    for (int i = 0; i < n; ++i)
        sink += rng.sampleIndexFast();
    auto t1 = Clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           n;
}

/** ns per draw when the naive pipeline is called directly. */
double
timeNaive(FxpLaplaceRng &rng, int n, int64_t &sink)
{
    auto t0 = Clock::now();
    for (int i = 0; i < n; ++i)
        sink += rng.sampleIndex();
    auto t1 = Clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           n;
}

/** ns per draw for the batched entry point. */
double
timeBatch(FxpLaplaceRng &rng, int n, int64_t &sink)
{
    std::vector<int64_t> buf(1024);
    int rounds = n / static_cast<int>(buf.size());
    auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        rng.sampleBatch(buf.data(), buf.size());
        sink += buf[0] + buf[buf.size() - 1];
    }
    auto t1 = Clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (rounds * static_cast<double>(buf.size()));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string json_path = bench::jsonPathFromArgs(argc, argv);
    if (json_path.empty())
        json_path = "BENCH_sampler.json";

    bench::banner("Extension: table-driven sampling fast path",
                  "Per-draw latency of the naive FxP pipeline vs the "
                  "precomputed lookup table, and accept-reject "
                  "resampling vs truncated direct inversion.");

    const int kDraws = 2000000;
    const int kWarmup = 100000;
    int64_t sink = 0;

    // --- unbounded draws -------------------------------------------
    FxpLaplaceRng ref(benchConfig(FxpLaplaceConfig::LogMode::Reference,
                                  FxpLaplaceConfig::SamplePath::Naive),
                      1);
    FxpLaplaceRng cordic(
        benchConfig(FxpLaplaceConfig::LogMode::Cordic,
                    FxpLaplaceConfig::SamplePath::Naive),
        1);
    FxpLaplaceRng fast(benchConfig(FxpLaplaceConfig::LogMode::Cordic,
                                   FxpLaplaceConfig::SamplePath::Table),
                       1);

    // Build the table outside the timed region and report the cost.
    auto tb0 = Clock::now();
    const LaplaceSampleTable &table = fast.table();
    auto tb1 = Clock::now();
    double build_ms =
        std::chrono::duration<double, std::milli>(tb1 - tb0).count();

    timeNaive(ref, kWarmup, sink);
    timeNaive(cordic, kWarmup, sink);
    timeScalar(fast, kWarmup, sink);

    double ns_ref = timeNaive(ref, kDraws, sink);
    double ns_cordic = timeNaive(cordic, kDraws, sink);
    double ns_table = timeScalar(fast, kDraws, sink);
    double ns_batch = timeBatch(fast, kDraws, sink);

    TextTable draws;
    draws.setHeader({"sampler", "ns/draw", "vs CORDIC pipeline"});
    auto row = [&](const char *name, double ns) {
        char buf[32], ratio[32];
        std::snprintf(buf, sizeof buf, "%.1f", ns);
        std::snprintf(ratio, sizeof ratio, "%.1fx", ns_cordic / ns);
        draws.addRow({name, buf, ratio});
    };
    row("naive pipeline (Reference log)", ns_ref);
    row("naive pipeline (CORDIC log)", ns_cordic);
    row("table lookup (scalar)", ns_table);
    row("table lookup (batched)", ns_batch);
    draws.print(std::cout);

    std::printf("\ntable: %llu states, max index %lld, %.1f KiB ROM, "
                "built in %.1f ms\n",
                static_cast<unsigned long long>(table.states()),
                static_cast<long long>(table.maxIndex()),
                table.memoryBytes() / 1024.0, build_ms);

    double speedup = ns_cordic / ns_table;
    std::printf("table path speedup vs naive CORDIC pipeline: %.1fx "
                "(target >= 5x): %s\n",
                speedup, speedup >= 5.0 ? "PASS" : "FAIL");

    // --- windowed draws (resampling) -------------------------------
    // A tight window makes accept-reject redraw often; truncated
    // inversion always serves the report in one lookup.
    const int64_t kLo = -4, kHi = 4;
    const int kReports = 200000;

    FxpLaplaceRng rejector(
        benchConfig(FxpLaplaceConfig::LogMode::Cordic,
                    FxpLaplaceConfig::SamplePath::Naive),
        2);
    FxpLaplaceRng inverter(
        benchConfig(FxpLaplaceConfig::LogMode::Cordic,
                    FxpLaplaceConfig::SamplePath::Table),
        2);

    uint64_t before = rejector.samplesDrawn();
    auto ar0 = Clock::now();
    for (int i = 0; i < kReports; ++i) {
        int64_t k;
        do {
            k = rejector.sampleIndex();
        } while (k < kLo || k > kHi);
        sink += k;
    }
    auto ar1 = Clock::now();
    double ns_reject =
        std::chrono::duration<double, std::nano>(ar1 - ar0).count() /
        kReports;
    double draws_per_report =
        static_cast<double>(rejector.samplesDrawn() - before) /
        kReports;

    auto ti0 = Clock::now();
    for (int i = 0; i < kReports; ++i) {
        int64_t k;
        if (inverter.sampleIndexTruncated(kLo, kHi, k))
            sink += k;
    }
    auto ti1 = Clock::now();
    double ns_trunc =
        std::chrono::duration<double, std::nano>(ti1 - ti0).count() /
        kReports;

    TextTable windowed;
    windowed.setHeader(
        {"windowed sampler", "ns/report", "pipeline draws/report"});
    {
        char a[32], b[32];
        std::snprintf(a, sizeof a, "%.1f", ns_reject);
        std::snprintf(b, sizeof b, "%.2f", draws_per_report);
        windowed.addRow({"accept-reject (CORDIC redraws)", a, b});
        std::snprintf(a, sizeof a, "%.1f", ns_trunc);
        windowed.addRow({"truncated direct inversion", a, "1.00"});
    }
    std::printf("\nwindow [%lld, %lld] around the input index:\n",
                static_cast<long long>(kLo),
                static_cast<long long>(kHi));
    windowed.print(std::cout);

    // --- wide rect draws (the fleet hot path) ----------------------
    // A 16-lane bank steps 16 independent streams in lockstep and
    // feeds blocked table lookups; this is the per-draw cost the
    // fleet engine pays when it batches 16 consecutive nodes.
    constexpr size_t kLanes = TausBank::kMaxLanes;
    constexpr size_t kTrials = 1024;
    uint64_t lane_seeds[kLanes];
    TausBank::deriveLaneSeeds(3, lane_seeds, kLanes);
    std::vector<int64_t> rect(kTrials * kLanes);

    BatchSampler rect_bs(fast.sharedTable(),
                         fast.config().uniform_bits,
                         fast.quantizer().maxIndex());
    rect_bs.seedLanes(lane_seeds, kLanes);
    const int kRectRounds =
        kDraws / static_cast<int>(kTrials * kLanes);
    auto br0 = Clock::now();
    for (int r = 0; r < kRectRounds; ++r) {
        rect_bs.sampleRect(rect.data(), kTrials);
        sink += rect[0] + rect[rect.size() - 1];
    }
    auto br1 = Clock::now();
    double ns_rect =
        std::chrono::duration<double, std::nano>(br1 - br0).count() /
        (static_cast<double>(kRectRounds) * kTrials * kLanes);

    BatchSampler trunc_bs(fast.sharedTable(),
                          fast.config().uniform_bits,
                          fast.quantizer().maxIndex());
    trunc_bs.seedLanes(lane_seeds, kLanes);
    BatchSampler::Window windows[kLanes];
    for (size_t l = 0; l < kLanes; ++l)
        windows[l] = {kLo, kHi};
    auto bt0 = Clock::now();
    for (int r = 0; r < kRectRounds; ++r) {
        trunc_bs.sampleTruncatedRect(windows, rect.data(), kTrials);
        sink += rect[0] + rect[rect.size() - 1];
    }
    auto bt1 = Clock::now();
    double ns_trunc_rect =
        std::chrono::duration<double, std::nano>(bt1 - bt0).count() /
        (static_cast<double>(kRectRounds) * kTrials * kLanes);

    TextTable bank;
    bank.setHeader({"16-lane batch sampler", "ns/draw",
                    "vs scalar table path"});
    {
        char a[32], b[32];
        std::snprintf(a, sizeof a, "%.2f", ns_rect);
        std::snprintf(b, sizeof b, "%.1fx", ns_table / ns_rect);
        bank.addRow({"unbounded rect", a, b});
        std::snprintf(a, sizeof a, "%.2f", ns_trunc_rect);
        std::snprintf(b, sizeof b, "%.1fx", ns_trunc / ns_trunc_rect);
        bank.addRow({"truncated rect (window above)", a, b});
    }
    std::printf("\nURNG lane bank: %zu lanes, %s kernel:\n", kLanes,
                TausBank::kernelName());
    bank.print(std::cout);

    // --- wider URNGs -----------------------------------------------
    // The table is built from the PMF's tail boundaries, so every Bu
    // the certifier counts gets one: above Bu = 20 the guide stops
    // growing and a bucket that straddles a boundary climbs them.
    struct WidthRow
    {
        int bu;
        uint64_t rom_bytes;
        double build_ms;
        double ns_rect;
    };
    std::vector<WidthRow> width_rows;
    TextTable width_table;
    width_table.setHeader(
        {"Bu", "ROM KiB", "build ms", "16-lane rect ns/draw"});
    for (int bu : {24, 32}) {
        FxpLaplaceConfig cfg =
            benchConfig(FxpLaplaceConfig::LogMode::Cordic,
                        FxpLaplaceConfig::SamplePath::Table);
        cfg.uniform_bits = bu;
        FxpLaplaceRng wide(cfg, 1);
        auto wb0 = Clock::now();
        std::shared_ptr<const LaplaceSampleTable> wide_table =
            wide.sharedTable();
        double wide_build_ms = std::chrono::duration<double, std::milli>(
                                   Clock::now() - wb0)
                                   .count();
        BatchSampler wide_bs(wide_table, bu, wide.quantizer().maxIndex());
        wide_bs.seedLanes(lane_seeds, kLanes);
        auto wr0 = Clock::now();
        for (int r = 0; r < kRectRounds; ++r) {
            wide_bs.sampleRect(rect.data(), kTrials);
            sink += rect[0] + rect[rect.size() - 1];
        }
        double ns_wide =
            std::chrono::duration<double, std::nano>(Clock::now() - wr0)
                .count() /
            (static_cast<double>(kRectRounds) * kTrials * kLanes);
        width_rows.push_back({bu, wide_table->memoryBytes(),
                              wide_build_ms, ns_wide});
        char a[16], b[32], c[32], d[32];
        std::snprintf(a, sizeof a, "%d", bu);
        std::snprintf(b, sizeof b, "%.1f",
                      wide_table->memoryBytes() / 1024.0);
        std::snprintf(c, sizeof c, "%.2f", wide_build_ms);
        std::snprintf(d, sizeof d, "%.2f", ns_wide);
        width_table.addRow({a, b, c, d});
    }
    std::printf("\ntables at wider URNGs (Bu = 17: %.1f KiB, %.2f ms, "
                "%.2f ns/draw above):\n",
                table.memoryBytes() / 1024.0, build_ms, ns_rect);
    width_table.print(std::cout);

    std::printf("\nchecksum %lld\n", static_cast<long long>(sink));
    std::printf("\nTakeaway: the pipeline is a fixed monotone map over "
                "2^Bu URNG states, so the exact PMF's boundaries "
                "replace every per-draw CORDIC iteration with a "
                "single lookup, and window-conditioned draws need no "
                "rejection loop at all -- same bits, same "
                "distribution, O(1) worst case, up to Bu = 32.\n");

    if (!json_path.empty()) {
        bench::JsonWriter json;
        json.beginObject();
        json.field("bench", "sampler table fast path");
        json.field("ns_per_draw_reference_log", ns_ref);
        json.field("ns_per_draw_cordic_log", ns_cordic);
        json.field("ns_per_draw_table_scalar", ns_table);
        json.field("ns_per_draw_table_batched", ns_batch);
        json.field("table_speedup_vs_cordic", speedup);
        json.field("table_build_ms", build_ms);
        json.field("table_rom_bytes",
                   static_cast<uint64_t>(table.memoryBytes()));
        json.field("ns_per_report_accept_reject", ns_reject);
        json.field("ns_per_report_truncated_inversion", ns_trunc);
        json.field("accept_reject_draws_per_report",
                   draws_per_report);
        json.field("simd_kernel", TausBank::kernelName());
        json.field("batch_lanes", static_cast<uint64_t>(kLanes));
        json.field("ns_per_draw_rect_batch", ns_rect);
        json.field("ns_per_draw_truncated_rect_batch",
                   ns_trunc_rect);
        for (const WidthRow &w : width_rows) {
            std::string bu = "_bu" + std::to_string(w.bu);
            json.field("table_rom_bytes" + bu, w.rom_bytes);
            json.field("table_build_ms" + bu, w.build_ms);
            json.field("ns_per_draw_rect_batch" + bu, w.ns_rect);
        }
        json.endObject();
        if (json.writeFile(json_path))
            std::printf("JSON written to %s\n", json_path.c_str());
    }
    return 0;
}
