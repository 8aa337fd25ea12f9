/**
 * @file
 * ulpdp_perfbench: one process, one closed loop. Measures a
 * workload's primary phase for --seconds and the other phases for a
 * fixed 3 s each (so every metric is printed on every workload),
 * interleaved in rounds, and prints one JSON object as its last
 * stdout line: metrics with
 * units, observations for the recorded-value checks, and any
 * self-consistency check that failed. perfbench/run.py builds this
 * binary, applies the recorded-value checks and prints the result.
 *
 *   ulpdp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--tiny] [--out-dir DIR]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "phases.h"
#include "rng/fxp_laplace_pmf.h"
#include "rng/taus_bank.h"
#include "trace.h"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string out_dir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ulpdp_perfbench: %s\nusage: ulpdp_perfbench --workload "
                 "fleet-hotloop|fleet-stream|certify-grid|ledger-storm "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(value());
        else if (a == "--trace")
            o.trace = std::atoi(value()) != 0;
        else if (a == "--tiny")
            o.tiny = true;
        else if (a == "--out-dir")
            o.out_dir = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.workload != "fleet-hotloop" && o.workload != "fleet-stream" &&
        o.workload != "certify-grid" && o.workload != "ledger-storm")
        usage("unknown workload");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/**
 * Everything one run measures, primary phase first; constructing it is
 * the set-up. Sizes: README.md, "Workloads".
 */
std::vector<std::unique_ptr<Phase>>
build(const Options &o)
{
    const bool tiny = o.tiny;
    const std::string &w = o.workload;
    auto tag = [&](const std::string &name) {
        return name == w ? name : "companion." + name;
    };
    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(std::make_unique<FleetPhase>(
        FleetShape{FleetKind::Hotloop,
                   w == "fleet-hotloop" ? (tiny ? 8192u : 400000u)
                                        : (tiny ? 2048u : 25000u),
                   1},
        o.seed, tag("fleet-hotloop")));
    phases.push_back(std::make_unique<FleetPhase>(
        FleetShape{FleetKind::Stream,
                   w == "fleet-stream" ? (tiny ? 512u : 16384u)
                                       : (tiny ? 128u : 256u),
                   4},
        o.seed, tag("fleet-stream")));
    phases.push_back(std::make_unique<CertifyPhase>(
        w == "certify-grid" && !tiny, 4, o.seed, tag("certify-grid")));
    phases.push_back(std::make_unique<LedgerPhase>(
        tiny ? 1000u : 10000u, o.seed, tag("ledger-storm")));
    const size_t primary =
        w == "fleet-hotloop" ? 0 : w == "fleet-stream" ? 1
                                 : w == "certify-grid" ? 2 : 3;
    std::rotate(phases.begin(), phases.begin() + primary,
                phases.begin() + primary + 1);
    return phases;
}

void
jsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    out += '"';
}

void
jsonNumber(std::string &out, double v)
{
    out += std::isfinite(v) ? exact(v) : "null";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    Results results;
    Tracer::instance().enable(o.trace);

    // Set-up: build every phase from a cold PMF cache. One build is
    // kept; one more is timed and dropped after every second round
    // below, so the set-up samples are spread over the run like every
    // other timing.
    std::vector<double> setups;
    auto timedBuild = [&] {
        ulpdp::FxpLaplacePmf::clearSharedCache();
        Span span("setup");
        Clock::time_point t0 = Clock::now();
        std::vector<std::unique_ptr<Phase>> built = build(o);
        setups.push_back(secondsSince(t0));
        return built;
    };
    std::vector<std::unique_ptr<Phase>> phases = timedBuild();

    const std::string &w = o.workload;
    std::printf("perfbench: workload %s seed %llu seconds %g trace %d%s\n",
                w.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.tiny ? " (tiny)" : "");
    std::fflush(stdout);

    // Rounds: a slice of the primary phase, then a slice of each
    // companion, so a slow stretch of the host is shared by every
    // phase instead of landing on whichever ran then. A traced run
    // traces every other round; the rounds in between give the
    // untraced figures and the tracing overhead.
    const int rounds = o.tiny ? 2 : 10;
    const double companion_seconds = o.tiny ? 0.1 : 3.0;
    Tracer &tracer = Tracer::instance();
    for (int r = 0; r < rounds; ++r) {
        tracer.enable(o.trace && r % 2 == 1);
        for (size_t i = 0; i < phases.size(); ++i)
            phases[i]->measure(
                (i == 0 ? o.seconds : companion_seconds) / rounds, results);
        if (r % 2 == 1)
            timedBuild();
    }
    // Primary first: Results keeps the first value per name.
    tracer.enable(o.trace);
    for (const std::unique_ptr<Phase> &phase : phases)
        phase->report(o.trace, results);

    results.metric("setup_s", median(setups), "s");
    results.repetitions(w, "setup_s", setups);
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    results.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                   "MB");

    if (o.trace) {
        std::string path = o.out_dir + "/trace-" + w + "-seed" +
                           std::to_string(o.seed) + ".csv";
        if (!tracer.writeCsv(path))
            results.fail("cannot write span file " + path);
        results.observe("trace.spans", std::to_string(tracer.recorded()));
        if (tracer.dropped() != 0)
            results.fail(std::to_string(tracer.dropped()) +
                         " spans did not fit the span record");
        results.observe("trace.file", path);
    }

    std::string line = "{\"correct\": ";
    line += results.failures().empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(results.attempted());
    line += ", \"failed\": " + std::to_string(results.failedOps());
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : results.metrics()) {
        line += first ? "" : ", ";
        first = false;
        jsonString(line, name);
        line += ": {\"value\": ";
        jsonNumber(line, m.first);
        line += ", \"unit\": ";
        jsonString(line, m.second);
        line += "}";
    }
    line += "}, \"observations\": {";
    first = true;
    for (const auto &[key, value] : results.observations()) {
        line += first ? "" : ", ";
        first = false;
        jsonString(line, key);
        line += ": ";
        jsonString(line, value);
    }
    line += "}, \"failures\": [";
    first = true;
    for (const std::string &f : results.failures()) {
        line += first ? "" : ", ";
        first = false;
        jsonString(line, f);
    }
    line += "], \"host\": {\"hardware_threads\": " +
            std::to_string(std::thread::hardware_concurrency());
    line += ", \"kernel\": ";
    jsonString(line, ulpdp::TausBank::kernelName());
    line += ", \"build_type\": ";
    jsonString(line, PERFBENCH_BUILD_TYPE);
    line += ", \"compiler\": ";
    jsonString(line, __VERSION__);
    line += "}}";
    for (const std::string &f : results.failures())
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    std::printf("%s\n", line.c_str());
    return results.failures().empty() ? 0 : 1;
}
