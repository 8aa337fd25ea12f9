/**
 * @file
 * Extension: certification-engine throughput.
 *
 * Measures the exact-PMF certifier's segment-rank engine against the
 * per-state walk it replaced (the test oracle in tests/pmf_oracle.h):
 *
 *  1. Sweep: full-registry certifyAll() wall time and aggregate
 *     URNG-states-accounted-per-second at Bu in {8, 12, 16, 20},
 *     single-thread, PMF cache cleared between points so every point
 *     pays its own enumeration.
 *
 *  2. Bu = 16 headline (the CI gate): best-of-repeats construction
 *     time of the base noise PMF by the engine and by the walk at the
 *     certify tool's profile (range [-20, 60], eps = 1, Delta = d/32).
 *     The
 *     gated key bu16_speedup_vs_legacy is a time ratio on the same
 *     machine, so it is stable across runner generations in a way
 *     raw states/s floors are not (>= 50 enforced via
 *     check_bench_regression.py --min-rate); the certifyAll
 *     single-thread wall time backs the < 60 s acceptance bound.
 *
 * Flags:
 *   --repeats N    best-of repeats per timing      (default 5)
 *   --json PATH    JSON output path     (default BENCH_certify.json)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/pmf_certifier.h"
#include "pmf_oracle.h"

namespace {

using namespace ulpdp;

/** The certify tool's default profile at a given URNG width. */
FxpMechanismParams
certifyProfile(int bu)
{
    FxpMechanismParams p;
    p.range = SensorRange(-20.0, 60.0);
    p.epsilon = 1.0;
    p.uniform_bits = bu;
    p.output_bits = 14;
    return p;
}

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best-of-@p repeats full-registry certifyAll() wall time. */
double
certifyAllSeconds(int bu, int repeats)
{
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
        FxpLaplacePmf::clearSharedCache();
        PmfCertifier certifier(certifyProfile(bu));
        auto t0 = std::chrono::steady_clock::now();
        std::vector<MechanismCertificate> certs =
                certifier.certifyAll();
        auto t1 = std::chrono::steady_clock::now();
        if (!PmfCertifier::allCertified(certs)) {
            std::fprintf(stderr,
                         "bench_ext_certify: certification failed "
                         "at Bu=%d\n", bu);
            std::exit(1);
        }
        double s = seconds(t0, t1);
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

/** Best-of-@p repeats construction time of the base noise PMF, by
 *  the segment engine or by the per-state walk. The engine is
 *  microseconds, so each repeat averages an inner batch to get above
 *  timer granularity. */
double
pmfBuildSeconds(int bu, bool walk, int repeats)
{
    FxpLaplaceConfig cfg = certifyProfile(bu).rngConfig();
    int inner = walk ? 1 : 20;
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < inner; ++i) {
            uint64_t total;
            if (walk) {
                FxpLaplaceRng rng(cfg);
                total = walkPmf(bu, [&rng](uint64_t m) {
                            return rng.pipeline(m, 1);
                        }).totalCount();
            } else {
                total = FxpLaplacePmf(cfg).totalCount();
            }
            if (total != (uint64_t{1} << bu)) {
                std::fprintf(stderr,
                             "bench_ext_certify: count slack at "
                             "Bu=%d\n", bu);
                std::exit(1);
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        double s = seconds(t0, t1) / inner;
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    int repeats = 5;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--repeats")
            repeats = std::atoi(argv[i + 1]);
    }
    std::string json_path = bench::jsonPathFromArgs(argc, argv);
    if (json_path.empty())
        json_path = "BENCH_certify.json";

    bench::banner("certification engine",
                  "segment-rank certifier vs the per-state walk");

    const size_t mechanisms =
            MechanismRegistry::instance().names().size();

    bench::JsonWriter json;
    json.beginObject();
    json.field("bench", "certification engine");
    json.field("mechanisms", static_cast<uint64_t>(mechanisms));
    json.field("repeats", repeats);

    json.beginArray("sweep");
    std::printf("  %-6s %-18s %s\n", "Bu", "certifyAll",
                "states/s");
    for (int bu : {8, 12, 16, 20}) {
        double fast_s = certifyAllSeconds(bu, repeats);
        double states = static_cast<double>(mechanisms) *
                        static_cast<double>(uint64_t{1} << bu);
        json.beginObject();
        json.field("bu", bu);
        json.field("certify_all_seconds", fast_s);
        json.field("states_accounted_per_second", states / fast_s);
        json.endObject();
        std::printf("  %-6d %-18.6f %.3g\n", bu, fast_s,
                    states / fast_s);
    }
    json.endArray();

    // Bu = 16 headline: PMF derivation by the engine and by the walk.
    double fast_pmf = pmfBuildSeconds(16, false, repeats);
    double legacy_pmf = pmfBuildSeconds(16, true, repeats);
    double certify16 = certifyAllSeconds(16, repeats);
    double states16 = static_cast<double>(uint64_t{1} << 16);

    json.field("bu16_fast_pmf_seconds", fast_pmf);
    json.field("bu16_legacy_pmf_seconds", legacy_pmf);
    json.field("bu16_speedup_vs_legacy", legacy_pmf / fast_pmf);
    json.field("bu16_fast_states_per_second", states16 / fast_pmf);
    json.field("bu16_certify_all_seconds_1t", certify16);

    json.endObject();
    if (!json.writeFile(json_path)) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }

    std::printf("  Bu=16 PMF: engine %.3g s, walk %.3g s "
                "(%.1fx), certifyAll 1t %.3g s\n",
                fast_pmf, legacy_pmf, legacy_pmf / fast_pmf,
                certify16);
    std::printf("  JSON written to %s\n", json_path.c_str());
    return 0;
}
