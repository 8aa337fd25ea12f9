/**
 * @file
 * Fleet phase: closed-loop FleetRunner::run() epochs, each timed
 * around the public call, plus (Stream) a FrequencyDecoder::decode of
 * every (cohort, trial) slot vector after each epoch.
 *
 * The traced run additionally replays each layer under the fleet --
 * FleetSeeder, TausBank, BatchSampler, CohortSketch -- with the
 * phase's own configuration, and reports the 1-thread epoch time per
 * report that the replayed layers leave over as the computed
 * accumulate residual.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "agg/decode.h"
#include "agg/stream.h"
#include "core/mechanism_registry.h"
#include "fleet/seeder.h"
#include "phases.h"
#include "rng/batch_sampler.h"
#include "rng/fxp_laplace.h"
#include "rng/fxp_laplace_pmf.h"
#include "rng/taus_bank.h"
#include "trace.h"

namespace perfbench {

using namespace ulpdp;

namespace {

/** Reports per node: hotloop as bench_ext_fleet; stream with enough
 *  trial rows that the decode error averages over 4 x 192 independent
 *  fresh rows (its spread across seeds is then a few percent). */
constexpr uint32_t kHotloopReports = 8;
constexpr uint32_t kStreamReports = 256;

/** Stream per-node budget: 192 fresh reports at 2 * eps = 1 nat each,
 *  so the last 64 reports of every node replay. */
constexpr double kStreamBudget = 192.0;

/** Off-centre synthetic mean of the stream cohorts (range [0, 10]). */
constexpr double kStreamDataMean = 7.5;

/** Thread count the parallel-efficiency figure compares against. */
constexpr unsigned kParallelThreads = 4;

/** Salt of the fleet's synthetic-data substream ("data"). */
constexpr uint64_t kDataSalt = 0x64617461ULL;

/** Replay results land here so the compiler cannot drop the work. */
volatile uint64_t g_replay_sink = 0;

/** The paper's reference device: range [0, 10], eps 0.5, Bu 17,
 *  Delta = d/32, loss bound 2 eps. */
FxpMechanismParams
referenceParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;
    return p;
}

/** The fleet's synthetic reading of a node (clipped Gaussian on the
 *  node's data substream), reproduced from its documented recipe so
 *  the draw replay sees the same per-lane windows. */
double
synthValue(uint64_t node_seed, double mu, double sigma, double lo,
           double hi)
{
    constexpr uint64_t kNodeKey = 0x9e3779b97f4a7c15ULL;
    uint64_t data_seed = FleetSeeder::subSeed(node_seed, kDataSalt);
    auto unit = [](uint64_t w) {
        return (static_cast<double>(w >> 11) + 1.0) * 0x1p-53;
    };
    double u1 = unit(FleetSeeder::mix64(data_seed + kNodeKey));
    double u2 = unit(FleetSeeder::mix64(data_seed + 2 * kNodeKey));
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    return std::clamp(mu + sigma * z, lo, hi);
}

/** Registry name a cohort selects (by name or through its enum). */
std::string
registryName(const CohortConfig &c)
{
    if (!c.mechanism_name.empty())
        return c.mechanism_name;
    return cohortMechanismRegistryName(c.mechanism);
}

} // namespace

FleetConfig
fleetConfig(const FleetShape &shape, uint64_t seed)
{
    FleetConfig fc;
    fc.master_seed = seed;
    auto cohort = [&](const char *name, CohortMechanism m,
                      const char *registry) {
        CohortConfig c;
        c.name = name;
        c.mechanism = m;
        if (registry != nullptr)
            c.mechanism_name = registry;
        c.params = referenceParams();
        c.loss_multiple = 2.0;
        c.nodes = shape.nodes;
        c.analyze_loss = false;
        if (shape.kind == FleetKind::Hotloop) {
            c.reports_per_node = kHotloopReports;
        } else {
            c.reports_per_node = kStreamReports;
            c.budget_per_node = kStreamBudget;
            c.data_mean = kStreamDataMean;
            c.data_mean_set = true;
            c.agg.enabled = true;
            c.agg.per_trial = true;
        }
        return c;
    };
    fc.cohorts.push_back(
        cohort("thresholding", CohortMechanism::Thresholding, nullptr));
    fc.cohorts.push_back(
        cohort("resampling", CohortMechanism::Resampling, nullptr));
    if (shape.kind == FleetKind::Stream) {
        fc.cohorts.push_back(cohort("bounded-laplace",
                                    CohortMechanism::Thresholding,
                                    "bounded-laplace"));
        fc.cohorts.push_back(cohort("discrete-laplace",
                                    CohortMechanism::Thresholding,
                                    "discrete-laplace"));
    }
    return fc;
}

FleetPhase::FleetPhase(const FleetShape &shape, uint64_t seed,
                       std::string tag)
    : shape_(shape), tag_(std::move(tag)),
      config_(fleetConfig(shape, seed)),
      runner_(std::make_unique<FleetRunner>(config_))
{}

FleetPhase::~FleetPhase() = default;

double
FleetPhase::epoch(unsigned threads, Results &out)
{
    FleetReport rep;
    double wall = 0.0;
    {
        Span span("fleet.epoch");
        Clock::time_point t0 = Clock::now();
        rep = runner_->run(threads);
        wall = secondsSince(t0);
    }

    uint64_t fp = rep.fingerprint();
    bool ok = true;
    if (!have_fingerprint_) {
        fingerprint_ = fp;
        have_fingerprint_ = true;
        reports_per_epoch_ = rep.total_reports;
        out.observe(tag_ + ".fingerprint", hex64(fp));
        for (const CohortResult &c : rep.cohorts) {
            out.observe(tag_ + ".checksum." + c.name, hex64(c.checksum));
            fresh_per_node_.push_back(c.fresh_reports / c.nodes);
            if (c.agg)
                first_slots_.push_back(c.agg->sketch.slots());
        }
    } else if (fp != fingerprint_) {
        ok = false;
        out.fail(tag_ + ": fingerprint " + hex64(fp) + " at " +
                 std::to_string(threads) + " threads differs from " +
                 hex64(fingerprint_));
    }
    out.attempt(1, ok ? 0 : 1);

    for (const CohortResult &c : rep.cohorts) {
        fleet_failures_ += c.resample_overflows +
                           c.rng_integrity_detections +
                           (c.agg ? c.agg->dropped : 0);
        fleet_reports_ += c.reports;
    }
    serial_.push_back((wall - rep.seconds) / wall);

    if (shape_.kind == FleetKind::Stream) {
        // Every row is decoded and timed (untraced epochs feed the
        // latency metrics, one repetition per epoch). The error averages
        // the fresh rows only, since a replayed row repeats the last
        // fresh row's reports and would weight that one row many times
        // over.
        LatencyLog &log =
            Tracer::instance().enabled() ? traced_decode_us_ : decode_us_;
        double err = 0.0;
        uint64_t n = 0;
        for (const CohortResult &c : rep.cohorts) {
            if (!c.agg)
                continue;
            const CohortAggResult &a = *c.agg;
            const uint64_t fresh = c.fresh_reports / c.nodes;
            for (uint32_t t = 0; t < a.sketch.trialRows(); ++t) {
                std::vector<uint64_t> slots = a.sketch.trialSlots(t);
                Span span("agg.decode");
                agg::DecodedFrequencies d = timed(log, [&] {
                    return a.decoder->decode(slots, a.input_value0,
                                             a.delta);
                });
                if (t < fresh) {
                    err += std::abs(d.mean - c.trueMean());
                    ++n;
                }
            }
        }
        abs_err_ = n > 0 ? err / static_cast<double>(n) : 0.0;
        log.endRepetition();
    }
    return wall;
}

void
FleetPhase::measure(double seconds, Results &out)
{
    std::vector<double> &walls =
        Tracer::instance().enabled() ? traced_walls_ : walls_;
    Clock::time_point t0 = Clock::now();
    do
        walls.push_back(epoch(shape_.threads, out));
    while (secondsSince(t0) < seconds);
}

void
FleetPhase::report(bool trace, Results &out)
{
    if (trace) {
        out.metric("trace.overhead_pct",
                   (mean(traced_walls_) / mean(walls_) - 1.0) * 100.0,
                   "%");
        out.metric("fleet.serial_frac", median(serial_), "fraction");

        // The other side of the 1 : 4 thread comparison; its epochs
        // must reproduce the fingerprint too.
        unsigned other = shape_.threads == 1 ? kParallelThreads : 1;
        std::vector<double> other_walls;
        for (int n = 0; n < 3; ++n)
            other_walls.push_back(epoch(other, out));
        double r1 = shape_.threads == 1 ? rate(traced_walls_)
                                        : rate(other_walls);
        double rn = shape_.threads == 1 ? rate(other_walls)
                                        : rate(traced_walls_);
        out.metric("fleet.parallel_efficiency",
                   rn / (kParallelThreads * r1), "fraction");
        replayLayers(1e9 / r1, out);
    }

    out.metric("reports_per_s", rate(walls_), "1/s");
    out.repetitions(tag_, "epoch_s", walls_);
    if (shape_.kind == FleetKind::Stream) {
        out.metric("decode_us_p50", decode_us_.meanMedianUs(), "us");
        out.metric("decode_us_p99", decode_us_.pooledUs(0.99), "us");
        out.metric("decoded_mean_abs_err", abs_err_, "value");
        out.observe(tag_ + ".decode_samples",
                    std::to_string(decode_us_.count()));
    }
    out.metric("op_fail_ratio",
               static_cast<double>(fleet_failures_) /
                   static_cast<double>(std::max<uint64_t>(1,
                                                          fleet_reports_)),
               "ratio");
    out.observe(tag_ + ".op_fail_base",
                "failed reports (resample overflow, integrity detection, "
                "dropped agg report) per report");
    out.observe(tag_ + ".epochs",
                std::to_string(walls_.size() + traced_walls_.size()));
}

void
FleetPhase::replayLayers(double epoch1_ns_per_report, Results &out)
{
    const MechanismRegistry &reg = MechanismRegistry::instance();
    FleetSeeder seeder(config_.master_seed);
    constexpr size_t W = TausBank::kMaxLanes;

    double seed_s = 0.0, urng_s = 0.0, draw_s = 0.0, flush_s = 0.0;
    double merge_s = 0.0, table_s = 0.0, search_s = 0.0, decoder_s = 0.0;
    uint64_t nodes_total = 0, reports_total = 0, words_total = 0;
    uint64_t sink = 0;
    bool any_agg = false;
    size_t agg_index = 0;

    for (size_t c = 0; c < config_.cohorts.size(); ++c) {
        const CohortConfig &cc = config_.cohorts[c];
        const MechanismRegistry::Entry &entry = reg.at(registryName(cc));
        MechanismSpec spec;
        spec.params = cc.params;
        spec.loss_multiple = cc.loss_multiple;

        // Plan-time layers, cold (the runner pays them per build).
        FxpLaplacePmf::clearSharedCache();
        MechanismLowering low;
        {
            Span span("core.threshold_search");
            Clock::time_point t0 = Clock::now();
            low = entry.lower(spec);
            search_s += secondsSince(t0);
        }
        FxpLaplaceRng proto(low.params.rngConfig(), 1);
        std::shared_ptr<const LaplaceSampleTable> table;
        {
            Span span("rng.table_build");
            Clock::time_point t0 = Clock::now();
            table = proto.sharedTable();
            table_s += secondsSince(t0);
        }

        const uint64_t nodes = cc.nodes;
        const uint32_t R = cc.reports_per_node;
        const uint64_t fresh = fresh_per_node_.at(c);
        nodes_total += nodes;
        reports_total += nodes * R;

        std::vector<uint64_t> seeds(nodes);
        {
            Span span("fleet.seed");
            Clock::time_point t0 = Clock::now();
            for (uint64_t n = 0; n < nodes; ++n) {
                seeds[n] = seeder.nodeSeed(static_cast<uint32_t>(c), n);
                sink ^= FleetSeeder::subSeed(seeds[n], kDataSalt);
            }
            seed_s += secondsSince(t0);
        }

        // URNG words the draw layer consumes: magnitude + sign per
        // clamped draw, one rank word per truncated draw.
        const size_t steps = low.truncated ? fresh : 2 * fresh;
        {
            Span span("rng.urng");
            TausBank bank;
            uint32_t words[W];
            Clock::time_point t0 = Clock::now();
            for (uint64_t lo = 0; lo < nodes; lo += W) {
                size_t lanes = std::min<uint64_t>(W, nodes - lo);
                bank.seed(&seeds[lo], lanes);
                for (size_t s = 0; s < steps; ++s) {
                    bank.nextWords(words);
                    sink ^= words[0];
                }
                words_total += lanes * steps;
            }
            urng_s += secondsSince(t0);
        }

        // Table draws, windows from the cohort's own data and window.
        const double delta = proto.quantizer().delta();
        const int64_t lo_index = std::llround(cc.params.range.lo / delta);
        const int64_t hi_index = std::llround(cc.params.range.hi / delta);
        const double mu = cc.data_mean_set
            ? cc.data_mean
            : 0.5 * (cc.params.range.lo + cc.params.range.hi);
        const double sigma = cc.params.range.length() / 6.0;
        std::vector<BatchSampler::Window> windows(nodes);
        for (uint64_t n = 0; n < nodes; ++n) {
            double x = synthValue(seeds[n], mu, sigma, cc.params.range.lo,
                                  cc.params.range.hi);
            int64_t xi = std::clamp<int64_t>(std::llround(x / delta),
                                             lo_index, hi_index);
            windows[n] = {lo_index - low.threshold_index - xi,
                          hi_index + low.threshold_index - xi};
        }
        {
            Span span("rng.draw");
            BatchSampler bs(table, proto.config().uniform_bits,
                            proto.quantizer().maxIndex(),
                            proto.config().integrity_checks);
            std::vector<int64_t> rect(W * fresh);
            bool ok = true;
            Clock::time_point t0 = Clock::now();
            for (uint64_t lo = 0; lo < nodes; lo += W) {
                size_t lanes = std::min<uint64_t>(W, nodes - lo);
                bs.seedLanes(&seeds[lo], lanes);
                ok &= low.truncated
                    ? bs.sampleTruncatedRect(&windows[lo], rect.data(),
                                             fresh)
                    : bs.sampleRect(rect.data(), fresh);
                sink ^= static_cast<uint64_t>(rect[0]);
            }
            draw_s += secondsSince(t0);
            if (!ok)
                out.fail("draw replay: batch sampler bailed on cohort " +
                         cc.name);
        }

        if (!cc.agg.enabled)
            continue;
        any_agg = true;
        spec.threshold_index = low.threshold_index;
        std::unique_ptr<DiscreteOutputModel> model = entry.model(spec);
        std::unique_ptr<agg::FrequencyDecoder> decoder;
        {
            Span span("agg.decoder_build");
            Clock::time_point t0 = Clock::now();
            decoder = std::make_unique<agg::FrequencyDecoder>(*model);
            decoder_s += secondsSince(t0);
        }

        // Sketch at the runner's shape; one block's delta scaled from
        // the first epoch's merged per-trial slot counts.
        const size_t span_slots = decoder->numOutputs();
        const double slot0 =
            static_cast<double>(lo_index + model->outputLo()) * delta;
        auto makeSketch = [&] {
            return agg::CohortSketch(cc.agg, span_slots, R, slot0, delta);
        };
        const std::vector<uint64_t> &slots = first_slots_.at(agg_index++);
        const uint64_t block = config_.block_nodes;
        std::vector<uint64_t> block_delta(slots.size());
        for (size_t i = 0; i < slots.size(); ++i)
            block_delta[i] = slots[i] * block / nodes;
        const uint64_t blocks = (nodes + block - 1) / block;
        agg::CohortSketch worker = makeSketch();
        {
            Span span("agg.flush");
            Clock::time_point t0 = Clock::now();
            for (uint64_t b = 0; b < blocks; ++b)
                worker.ingestDelta(block_delta.data());
            flush_s += secondsSince(t0);
        }
        {
            Span span("agg.merge");
            Clock::time_point t0 = Clock::now();
            agg::CohortSketch merged = makeSketch();
            for (unsigned w = 0; w < shape_.threads; ++w)
                merged.merge(worker);
            merge_s += secondsSince(t0);
            sink ^= merged.total();
        }
    }

    const double per_report = 1e9 / static_cast<double>(reports_total);
    const double seed_pr = seed_s * per_report;
    const double draw_pr = draw_s * per_report;
    const double flush_pr = flush_s * per_report;
    const double urng_ns_per_word =
        urng_s * 1e9 / static_cast<double>(words_total);
    const double residual =
        epoch1_ns_per_report - seed_pr - draw_pr - flush_pr;

    out.metric("fleet.seed_ns_per_node",
               seed_s * 1e9 / static_cast<double>(nodes_total), "ns");
    out.metric("rng.urng_ns_per_word", urng_ns_per_word, "ns");
    out.metric("rng.draw_ns_per_report", draw_pr, "ns");
    out.metric("fleet.accumulate_ns_per_report", residual, "ns");
    out.metric("rng.table_build_ms", table_s * 1e3, "ms");
    out.metric("core.threshold_search_ms", search_s * 1e3, "ms");
    if (any_agg) {
        out.metric("agg.flush_ns_per_report", flush_pr, "ns");
        out.metric("agg.merge_us_per_epoch", merge_s * 1e6, "us");
        out.metric("agg.decoder_build_ms", decoder_s * 1e3, "ms");
    }

    char line[512];
    std::snprintf(line, sizeof line,
                  "1-thread epoch %.3f ns/report = seed %.3f + draw %.3f "
                  "(urng %.3f of it) + agg flush %.3f + accumulate "
                  "%.3f (computed residual)",
                  epoch1_ns_per_report, seed_pr, draw_pr,
                  urng_s * per_report,
                  flush_pr, residual);
    std::printf("layer split (%s): %s\n", tag_.c_str(), line);
    out.observe("layer_split", line);
    g_replay_sink = sink;
}

} // namespace perfbench
