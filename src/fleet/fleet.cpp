#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/worker_pool.h"
#include "core/budget.h"
#include "core/budget_ledger.h"
#include "core/mechanism_registry.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"
#include "rng/batch_sampler.h"
#include "rng/fxp_laplace.h"
#include "rng/ideal_laplace.h"
#include "rng/laplace_table.h"
#include "rng/tausworthe.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

// Checksum mix keys for the node and trial dimensions.
constexpr uint64_t kNodeKey = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kTrialKey = 0xc2b2ae3d27d4eb4fULL;

// Salt selecting the synthetic-data substream of a node seed.
constexpr uint64_t kDataSalt = 0x64617461ULL; // "data"

/** Digest one released report, order-independently (summed). */
uint64_t
reportDigest(uint64_t node, uint32_t trial, double released)
{
    return FleetSeeder::mix64((node + 1) * kNodeKey ^
                              (static_cast<uint64_t>(trial) + 1) *
                                  kTrialKey ^
                              std::bit_cast<uint64_t>(released));
}

/** Uniform double in (0, 1] from one 64-bit word. */
double
unitFromWord(uint64_t w)
{
    return (static_cast<double>(w >> 11) + 1.0) * 0x1p-53;
}

/** Fold a byte range into a running digest (merge-order fixed by the
 *  caller, so a plain chained hash is fine here). */
uint64_t
foldBytes(uint64_t acc, const void *data, size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i)
        acc = FleetSeeder::mix64(acc ^ (p[i] + 0xffULL * i));
    return acc;
}

uint64_t
foldStats(uint64_t acc, const RunningStats &s)
{
    uint64_t w[5] = {s.count(), std::bit_cast<uint64_t>(s.mean()),
                     std::bit_cast<uint64_t>(s.variance()),
                     std::bit_cast<uint64_t>(s.min()),
                     std::bit_cast<uint64_t>(s.max())};
    return foldBytes(acc, w, sizeof w);
}

/** Run-level fleet metrics. The per-cohort counters are registered
 *  lazily at publish time because their label sets depend on the
 *  cohort names in the configuration. */
struct FleetMetrics
{
    Counter &runs = telemetry::registry().counter(
        "ulpdp_fleet_runs_total",
        "Fleet epochs executed",
        "runs");
    Gauge &throughput = telemetry::registry().gauge(
        "ulpdp_fleet_reports_per_second",
        "Throughput of the most recent fleet epoch",
        "reports/s");
    Gauge &threads = telemetry::registry().gauge(
        "ulpdp_fleet_threads",
        "Worker threads of the most recent fleet epoch",
        "threads");
    LatencyHistogram &seconds = telemetry::registry().histogram(
        "ulpdp_fleet_epoch_seconds",
        "Wall-clock duration per fleet epoch",
        "seconds",
        {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0});
    Counter &batch_fallbacks = telemetry::registry().counter(
        "ulpdp_batch_scalar_fallbacks_total",
        "Blocks resumed on the scalar path after a batch-sampler bail",
        "blocks");
    Counter &rng_clones = telemetry::registry().counter(
        "ulpdp_fleet_rng_clones_total",
        "Prototype RNG clones made by fleet workers",
        "clones");
};

FleetMetrics &
fleetMetrics()
{
    static FleetMetrics m;
    return m;
}

/**
 * Publish one merged cohort's counters into the process registry.
 *
 * Runs on the main thread *after* the block-order merge: the worker
 * slabs (BlockAccum) already are the per-shard metric slabs, so
 * publishing their merged totals here keeps the hot path free of any
 * shared-cacheline traffic and cannot perturb the bit-identical
 * FleetReport the determinism contract promises.
 */
void
publishCohort(const CohortResult &res)
{
    MetricRegistry &reg = telemetry::registry();
    std::string labels = "cohort=\"" + res.name + "\"";
    reg.counter("ulpdp_fleet_reports_total",
                "Reports released across the fleet by cohort",
                "reports", labels)
        .inc(res.reports);
    reg.counter("ulpdp_fleet_fresh_reports_total",
                "Fresh (budget-charged) reports by cohort",
                "reports", labels)
        .inc(res.fresh_reports);
    reg.counter("ulpdp_fleet_cache_replays_total",
                "Budget-exhausted cache replays by cohort",
                "reports", labels)
        .inc(res.cache_replays);
    reg.counter("ulpdp_fleet_samples_drawn_total",
                "Laplace samples drawn by cohort",
                "samples", labels)
        .inc(res.samples_drawn);
    reg.counter("ulpdp_fleet_resample_overflows_total",
                "Resampling draws degraded to a window clamp",
                "draws", labels)
        .inc(res.resample_overflows);
    reg.counter("ulpdp_fleet_nodes_exhausted_total",
                "Node-epochs whose budget ran out mid-epoch",
                "nodes", labels)
        .inc(res.nodes_exhausted);
    reg.counter("ulpdp_fleet_rng_integrity_detections_total",
                "Sampler-table integrity faults detected",
                "faults", labels)
        .inc(res.rng_integrity_detections);
    if (res.agg) {
        reg.counter("ulpdp_agg_ingested_reports_total",
                    "Reports folded into the streaming sketches",
                    "reports", labels)
            .inc(res.agg->sketch.total());
        reg.gauge("ulpdp_agg_sketch_bytes",
                  "Merged sketch counter footprint",
                  "bytes", labels)
            .set(static_cast<double>(res.agg->sketch.bytes()));
        reg.gauge("ulpdp_agg_heavy_hitters",
                  "Heavy-hitter slots reported by the last epoch",
                  "slots", labels)
            .set(static_cast<double>(res.agg->heavy.size()));
        reg.gauge("ulpdp_agg_boundary_mass",
                  "Observed report fraction on the window-edge slots",
                  "fraction", labels)
            .set(res.agg->decoded.boundary_mass_observed);
        reg.histogram("ulpdp_agg_decode_seconds",
                      "Post-merge channel-inversion decode latency",
                      "seconds",
                      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0},
                      labels)
            .observe(res.agg->decode_seconds);
    }
}

/** Deterministic per-node true reading (clipped Gaussian via
 *  Box-Muller on the node's data substream). */
double
synthValue(uint64_t data_seed, double mu, double sigma, double lo,
           double hi)
{
    uint64_t a = FleetSeeder::mix64(data_seed + kNodeKey);
    uint64_t b = FleetSeeder::mix64(data_seed + 2 * kNodeKey);
    double u1 = unitFromWord(a);
    double u2 = unitFromWord(b);
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    return std::clamp(mu + sigma * z, lo, hi);
}

/** Nats charged for @p reports fresh reports at @p per_report quanta
 *  each: an exact 128-bit product whose conversion to a double rounds
 *  up whenever the double cannot hold it (never an undercharge). */
double
epochLoss(uint64_t reports, LossQuanta per_report)
{
    unsigned __int128 q =
        static_cast<unsigned __int128>(reports) * per_report;
    double charged = static_cast<double>(q);
    if (static_cast<unsigned __int128>(charged) < q)
        charged = std::nextafter(charged, HUGE_VAL);
    return std::ldexp(charged, -kLossFracBits);
}

} // anonymous namespace

const char *
cohortMechanismName(CohortMechanism m)
{
    switch (m) {
      case CohortMechanism::Ideal:
        return "Ideal Local DP";
      case CohortMechanism::Naive:
        return "FxP HW Baseline";
      case CohortMechanism::Resampling:
        return "Resampling";
      case CohortMechanism::Thresholding:
        return "Thresholding";
      case CohortMechanism::BoundedLaplace:
        return "Bounded Laplace";
      case CohortMechanism::DiscreteLaplace:
        return "Discrete Laplace";
    }
    panic("cohortMechanismName: invalid mechanism");
}

const char *
cohortMechanismRegistryName(CohortMechanism m)
{
    switch (m) {
      case CohortMechanism::Ideal:
      case CohortMechanism::Naive:
        return nullptr;
      case CohortMechanism::Resampling:
        return "resampling";
      case CohortMechanism::Thresholding:
        return "thresholding";
      case CohortMechanism::BoundedLaplace:
        return "bounded-laplace";
      case CohortMechanism::DiscreteLaplace:
        return "discrete-laplace";
    }
    panic("cohortMechanismRegistryName: invalid mechanism");
}

/**
 * Everything a worker needs about one cohort, resolved once on the
 * main thread: grid indices, window, threshold, affordable report
 * count, the prototype RNG whose enumerated table every per-block
 * copy shares read-only, and the exact loss verdict.
 */
struct FleetRunner::CohortPlan
{
    /**
     * The cohort's mechanism, resolved through the registry before
     * any member that depends on the resolved parameter block (the
     * prototype RNG is member-initialized from it, so bounded-Laplace
     * scale corrections and discrete-Laplace rounding modes are in
     * effect from the first enumeration).
     */
    struct Mech
    {
        /** Resolved parameters (lambda_scale / rounding applied). */
        FxpMechanismParams params;

        /** Registry name; empty for the two non-registered legacy
         *  settings (Ideal, Naive). */
        std::string registry_name;

        /** Display label for reports. */
        std::string label;

        /** Effective enum value (best effort for registry names
         *  without an enum mirror). */
        CohortMechanism mech_enum = CohortMechanism::Thresholding;

        /** Window half-extension T in Delta units. */
        int64_t threshold = 0;

        /** Hot-loop execution shape (MechanismLowering). */
        bool truncated = false;
        bool clamp = false;

        /** Legacy settings outside the registry. */
        bool ideal = false;
        bool naive = false;
    };

    static Mech resolveMechanism(const CohortConfig &c);

    CohortPlan(const CohortConfig &c, uint32_t cohort_index)
        : CohortPlan(c, cohort_index, resolveMechanism(c))
    {}

    CohortPlan(const CohortConfig &c, uint32_t cohort_index, Mech m)
        : cfg(c), index(cohort_index), mech(std::move(m)),
          proto(mech.params.rngConfig(), /*seed=*/1)
    {
        nodes = cfg.values.empty()
            ? cfg.nodes
            : static_cast<uint64_t>(cfg.values.size());
        if (nodes == 0)
            fatal("FleetRunner: cohort '%s' has no nodes (set nodes "
                  "or provide values)", cfg.name.c_str());
        if (cfg.reports_per_node == 0)
            fatal("FleetRunner: cohort '%s': reports_per_node must "
                  "be positive", cfg.name.c_str());

        delta = proto.quantizer().delta();
        lo_index = static_cast<int64_t>(
            std::llround(cfg.params.range.lo / delta));
        hi_index = static_cast<int64_t>(
            std::llround(cfg.params.range.hi / delta));
        // The pre-fresh replay is the DP-Box's grid midpoint (Ideal
        // has no grid).
        const double mid = 0.5 * (cfg.params.range.lo + cfg.params.range.hi);
        mid_index = (lo_index + hi_index) / 2;
        mid_value = mech.ideal ? mid : static_cast<double>(mid_index) * delta;
        lambda = mech.params.lambda();

        // Every registered mechanism guarantees the loss_multiple *
        // eps per-query bound (that is what certification enforces);
        // only the legacy uncontrolled settings charge plain eps.
        const bool controlled = !mech.ideal && !mech.naive;
        threshold = mech.threshold;
        win_lo = lo_index - threshold;
        win_hi = hi_index + threshold;
        span = static_cast<size_t>(win_hi - win_lo + 1);
        counted = controlled;

        // Worst-case flat charge per fresh report in quanta (never
        // undercharges; the affordable count needs no randomness).
        per_report_charge = quantaUp(controlled
            ? cfg.loss_multiple * cfg.params.epsilon
            : cfg.params.epsilon);
        fresh_per_node = cfg.reports_per_node;
        if (cfg.budget_per_node > 0.0)
            fresh_per_node = static_cast<uint32_t>(std::min<LossQuanta>(
                cfg.reports_per_node,
                quantaDown(cfg.budget_per_node) / per_report_charge));

        // Synthetic-data shape defaults: centered, range/6 std.
        data_mean = cfg.data_mean_set ? cfg.data_mean : mid;
        data_std = cfg.data_std > 0.0
            ? cfg.data_std
            : cfg.params.range.length() / 6.0;

        // Released-value histogram: the exact window for controlled
        // mechanisms, a generous +-2 lambda apron otherwise (the
        // under/overflow buckets catch the rest).
        double ext = controlled
            ? static_cast<double>(threshold) * delta
            : 2.0 * lambda;
        hist_lo = cfg.params.range.lo - ext;
        hist_hi = cfg.params.range.hi + ext;

        // Enumerate the sampling table once, before any worker copies
        // the prototype: every copy then shares it read-only. The
        // shared handle also feeds the batch sampling layer, so the
        // whole fleet references one enumeration.
        if (!mech.ideal)
            table = proto.sharedTable();
        batch_ok = table != nullptr && fresh_per_node > 0;

        // The exact output model feeds both the loss analysis and the
        // agg decoder; build it once, and only if either asks for it.
        // Ideal cohorts have no output grid.
        std::unique_ptr<DiscreteOutputModel> model;
        if (!mech.ideal && (cfg.analyze_loss || cfg.agg.enabled))
            model = outputModel();

        worst_loss = cfg.params.epsilon;
        ldp = true;
        if (cfg.analyze_loss && model) {
            LossReport rep = PrivacyLossAnalyzer::analyze(*model);
            worst_loss = rep.bounded
                ? rep.worst_case_loss
                : std::numeric_limits<double>::infinity();
            double bound =
                cfg.loss_multiple * cfg.params.epsilon + 1e-9;
            ldp = rep.bounded && rep.worst_case_loss <= bound;
        } else if (mech.naive) {
            worst_loss = std::numeric_limits<double>::infinity();
            ldp = false;
        }

        // Streaming aggregation: precompute the unbiased channel-
        // inversion decoder once, on the main thread. The sketch is
        // derived from the slot counts, so its window must be theirs.
        if (cfg.agg.enabled && counted) {
            decoder =
                std::make_shared<agg::FrequencyDecoder>(*model);
            ULPDP_ASSERT(lo_index + model->outputLo() == win_lo &&
                         decoder->numOutputs() == span);
            agg_rows = cfg.agg.per_trial ? cfg.reports_per_node : 1;
            agg_on = true;
        } else if (cfg.agg.enabled) {
            warn("FleetRunner: cohort '%s': streaming aggregation "
                 "has no bounded output window under the %s baseline; "
                 "disabled", cfg.name.c_str(),
                 mech.ideal ? "Ideal" : "Naive");
        }
    }

    /**
     * The exact conditional output model (never called for Ideal):
     * the registered factory's, or the Naive baseline's, which has no
     * registry entry. Passing the already-resolved threshold back
     * through the spec skips a second exact-index search.
     */
    std::unique_ptr<DiscreteOutputModel>
    outputModel() const
    {
        if (mech.naive) {
            ThresholdCalculator calc(cfg.params);
            return std::make_unique<NaiveOutputModel>(calc.pmf(),
                                                      calc.span());
        }
        MechanismSpec spec;
        spec.params = cfg.params;
        spec.loss_multiple = cfg.loss_multiple;
        spec.threshold_index = threshold;
        return MechanismRegistry::instance()
            .at(mech.registry_name).model(spec);
    }

    /** One node's stream seed, true reading (synthetic or from the
     *  dataset) and input grid index clamped into the range. */
    struct NodeInput
    {
        uint64_t seed;
        double x;
        int64_t xi;
    };

    NodeInput
    nodeInput(const FleetSeeder &seeder, uint64_t node) const
    {
        NodeInput in;
        in.seed = seeder.nodeSeed(index, node);
        in.x = cfg.values.empty()
            ? synthValue(FleetSeeder::subSeed(in.seed, kDataSalt),
                         data_mean, data_std, cfg.params.range.lo,
                         cfg.params.range.hi)
            : cfg.values[node];
        in.xi = std::clamp(
            static_cast<int64_t>(std::llround(in.x / delta)), lo_index,
            hi_index);
        return in;
    }

    /** Output grid index of input xi plus one unconfined noise draw,
     *  clamped into the window when the lowering says so. */
    int64_t
    noisyIndex(int64_t xi, int64_t noise) const
    {
        int64_t yi = xi + noise;
        return mech.clamp ? std::clamp(yi, win_lo, win_hi) : yi;
    }

    uint64_t
    numBlocks(uint32_t block_nodes) const
    {
        return (nodes + block_nodes - 1) / block_nodes;
    }

    CohortConfig cfg;
    uint32_t index;
    /** Registry-resolved mechanism (declared before `proto`: the
     *  prototype RNG is built from the resolved parameter block). */
    Mech mech;
    FxpLaplaceRng proto;
    /** Shared sampling-table handle (nullptr when no fast path). */
    std::shared_ptr<const LaplaceSampleTable> table;
    /** Whether blocks ride the 16-lane batch path. */
    bool batch_ok = false;
    uint64_t nodes = 0;
    double delta = 1.0;
    int64_t lo_index = 0;
    int64_t hi_index = 0;
    int64_t threshold = 0;
    int64_t win_lo = 0;
    int64_t win_hi = 0;
    /** Output window slots (count rows and sketch). */
    size_t span = 0;
    /** Registry-lowered: reports are slot x trial counts (the Ideal
     *  and Naive baselines accumulate doubles). */
    bool counted = false;
    /** Replay value before a node's first fresh report, and its index. */
    double mid_value = 0.0;
    int64_t mid_index = 0;
    double lambda = 1.0;
    double data_mean = 0.0;
    double data_std = 1.0;
    double hist_lo = 0.0;
    double hist_hi = 1.0;
    uint32_t fresh_per_node = 0;
    /** Worst-case loss one fresh report is metered at, in quanta
     *  (the epoch ledger journals the same bound). */
    LossQuanta per_report_charge = 0;
    double worst_loss = 0.0;
    bool ldp = false;

    /** Streaming aggregation (resolved from cfg.agg; counted only). */
    bool agg_on = false;
    /** Trial rows in the slot array (reports_per_node if per-trial). */
    uint32_t agg_rows = 1;
    /** Shared precomputed channel pseudo-inverse. */
    std::shared_ptr<const agg::FrequencyDecoder> decoder;
};

FleetRunner::CohortPlan::Mech
FleetRunner::CohortPlan::resolveMechanism(const CohortConfig &c)
{
    if (!(c.params.epsilon > 0.0))
        fatal("FleetRunner: cohort '%s': epsilon must be "
              "positive, got %g", c.name.c_str(),
              c.params.epsilon);

    Mech m;
    m.params = c.params;
    m.mech_enum = c.mechanism;

    // Name-based selection wins when set; otherwise the enum maps to
    // its registry name (Ideal/Naive have none and stay legacy).
    std::string name = c.mechanism_name;
    if (name.empty()) {
        const char *n = cohortMechanismRegistryName(c.mechanism);
        if (n == nullptr) {
            m.ideal = c.mechanism == CohortMechanism::Ideal;
            m.naive = c.mechanism == CohortMechanism::Naive;
            m.label = cohortMechanismName(c.mechanism);
            return m;
        }
        name = n;
    }

    const MechanismRegistry::Entry *entry =
        MechanismRegistry::instance().find(name);
    if (entry == nullptr) {
        std::string known;
        for (const std::string &k :
                 MechanismRegistry::instance().names()) {
            if (!known.empty())
                known += ", ";
            known += k;
        }
        fatal("FleetRunner: cohort '%s': unknown mechanism '%s' "
              "(registered: %s)", c.name.c_str(), name.c_str(),
              known.c_str());
    }
    if (!entry->lower)
        fatal("FleetRunner: cohort '%s': mechanism '%s' has no "
              "fleet lowering (it cannot run on the batch hot "
              "loop); pick one advertising the batch capability",
              c.name.c_str(), name.c_str());

    MechanismSpec spec;
    spec.params = c.params;
    spec.loss_multiple = c.loss_multiple;
    spec.threshold_index = c.threshold_index;
    MechanismLowering low = entry->lower(spec);
    m.params = low.params;
    m.registry_name = name;
    m.threshold = low.threshold_index;
    m.truncated = low.truncated;
    m.clamp = low.clamp;

    // Mirror known registry names back onto the enum so downstream
    // consumers switching on CohortResult::mechanism see the truth;
    // future names without an enum value keep the honest label.
    if (name == "resampling")
        m.mech_enum = CohortMechanism::Resampling;
    else if (name == "thresholding")
        m.mech_enum = CohortMechanism::Thresholding;
    else if (name == "bounded-laplace")
        m.mech_enum = CohortMechanism::BoundedLaplace;
    else if (name == "discrete-laplace")
        m.mech_enum = CohortMechanism::DiscreteLaplace;
    else
        m.mech_enum = c.mechanism;
    const char *canon = cohortMechanismRegistryName(m.mech_enum);
    m.label = (canon != nullptr && name == canon)
        ? cohortMechanismName(m.mech_enum)
        : name;
    return m;
}

namespace {
struct WorkItem;
} // anonymous namespace

/**
 * Worker-slot scratch that persists across blocks and epochs: the
 * steady-state hot loop allocates nothing and clones nothing.
 *
 * The cached FxpLaplaceRng clone and BatchSampler are keyed by cohort
 * index; both are rebuilt only on a cohort switch (or after an
 * integrity fault poisons the RNG clone). The BatchSampler is the
 * only object that holds the cohort table's shared_ptr -- taking that
 * copy once per cohort switch instead of once per block keeps the
 * control block's refcount line out of the cross-core traffic that
 * serialized PR 3's hot loop. A reused clone is indistinguishable
 * from a fresh one: streams are reseeded per node and counters are
 * read as per-block deltas.
 *
 * The 64-byte alignment keeps one worker's telemetry deltas
 * (fallbacks/clones, bumped per block) off its neighbours' lines.
 */
struct alignas(64) FleetRunner::WorkerScratch
{
    /** Epoch stages of the telemetry timers (merge: main thread). */
    enum Stage { kSeed, kDraw, kAccumulate, kMerge, kStages };

    /** Run one block, start to finish, into its private slab. Which
     *  worker runs it (and when) is irrelevant: the result depends
     *  only on (master seed, cohort, node id). */
    void processBlock(const CohortPlan &plan, const FleetSeeder &seeder,
                      const WorkItem &item);

    /** The 16-lane path; returns the first node it did not emit (the
     *  block's end, or the first node of the group that bailed). */
    uint64_t batchBlock(const CohortPlan &plan, const FleetSeeder &seeder,
                        const WorkItem &item);

    /** The per-draw path from node @p from: Ideal cohorts, fresh == 0
     *  cohorts, tableless configurations, and the rest of a block
     *  whose batch bailed. */
    void scalarBlock(const CohortPlan &plan, const FleetSeeder &seeder,
                     const WorkItem &item, uint64_t from);

    /** Telemetry only: charge the time since the last lap to @p s. */
    void lap(Stage s)
    {
        if (!timed)
            return;
        auto now = std::chrono::steady_clock::now();
        stage_seconds[s] += std::chrono::duration<double>(now - mark).count();
        mark = now;
    }

    std::vector<int64_t> noise;  // scalar path, one node's batch
    std::vector<int64_t> rect;   // batch path, trial-major noise
    std::optional<FxpLaplaceRng> rng;
    uint32_t rng_cohort = 0;
    std::optional<BatchSampler> sampler;
    uint32_t sampler_cohort = 0;
    /** Per-cohort slot x trial counts (trial-major over the output
     *  window; empty unless counted), zeroed by the worker each epoch;
     *  and the report sink's per-group slot buffer. */
    std::vector<std::vector<uint64_t>> counts;
    std::vector<uint32_t> group_slots;
    /** Per-epoch telemetry deltas, flushed by the main thread after
     *  the merge (never a shared atomic on the hot path). */
    uint64_t clones = 0;
    uint64_t fallbacks = 0;
    bool timed = false;
    std::chrono::steady_clock::time_point mark;
    double stage_seconds[kStages] = {};
};

namespace {

/** Private per-node accumulation slab of one block. One thread writes
 *  it; the main thread merges slabs in block-index order afterwards.
 *  The 64-byte alignment keeps the hot tail counters of adjacent slabs
 *  in a vector off each other's cache lines -- without it, two workers
 *  finishing neighbouring blocks ping-pong the boundary line on every
 *  counter bump. */
struct alignas(64) BlockAccum
{
    RunningStats error;
    RunningStats true_vals;
    uint64_t samples = 0;
    uint64_t overflows = 0;
    uint64_t fresh = 0;
    uint64_t replays = 0;
    uint64_t exhausted = 0;
    uint64_t integrity = 0;
    uint64_t checksum = 0;
};

/** A block's per-report double accumulators under the two uncertified
 *  baselines, whose releases have no bounded grid window. */
struct BaselineAccum
{
    BaselineAccum(double hist_lo, double hist_hi, size_t bins,
                  uint32_t reports_per_node)
        : hist(hist_lo, hist_hi, bins), trial_sum(reports_per_node, 0.0)
    {}

    Histogram hist;
    RunningStats released;
    std::vector<double> trial_sum;
};

/** One claimable unit of work: a block of consecutive nodes, its
 *  private slabs (no baseline slab when counted), and the cohort's
 *  report matrix (null unless materialized; each block writes
 *  disjoint columns). */
struct WorkItem
{
    uint32_t cohort;
    uint64_t node_lo;
    uint64_t node_hi;
    BlockAccum *accum;
    BaselineAccum *baseline;
    double *matrix;
};

/**
 * One worker's claimable range of block indices [next, end). Owners
 * claim adaptive chunks from their own queue (an uncontended RMW on a
 * line no other core touches in the common case); thieves claim
 * single blocks once their own queue is dry. fetch_add past `end` is
 * benign -- the claimer sees an out-of-range index and moves on.
 * Padded so queues in a vector never share a cache line (the shared
 * single claim counter was one of PR 3's serialization points).
 */
struct alignas(64) WorkQueue
{
    std::atomic<uint64_t> next{0};
    uint64_t end = 0;
    /** Owner's claim chunk: large enough to amortize the RMW, small
     *  enough to leave steals for ragged tails. */
    uint64_t chunk = 1;

    bool looksEmpty() const
    {
        return next.load(std::memory_order_relaxed) >= end;
    }
};

} // anonymous namespace

std::vector<double>
CohortResult::trialReports(uint32_t trial) const
{
    ULPDP_ASSERT(!matrix.empty());
    ULPDP_ASSERT(static_cast<uint64_t>(trial) * nodes + nodes <=
                 matrix.size());
    auto first = matrix.begin() +
                 static_cast<ptrdiff_t>(trial * nodes);
    return std::vector<double>(first,
                               first + static_cast<ptrdiff_t>(nodes));
}

double
FleetReport::reportsPerSecond() const
{
    return seconds > 0.0
        ? static_cast<double>(total_reports) / seconds
        : 0.0;
}

uint64_t
FleetReport::fingerprint() const
{
    uint64_t acc = 0x1ee75a7e5eedULL;
    for (const CohortResult &c : cohorts) {
        acc = FleetSeeder::mix64(acc ^ c.checksum);
        acc = foldStats(acc, c.released_stats);
        acc = foldStats(acc, c.error_stats);
        acc = foldStats(acc, c.true_stats);
        for (size_t i = 0; i < c.released_hist.numBins(); ++i)
            acc = FleetSeeder::mix64(acc ^ c.released_hist.count(i));
        acc = FleetSeeder::mix64(acc ^ c.released_hist.underflow());
        acc = FleetSeeder::mix64(acc ^ c.released_hist.overflow());
        for (double e : c.trial_estimate)
            acc = FleetSeeder::mix64(acc ^ std::bit_cast<uint64_t>(e));
        uint64_t counters[6] = {c.samples_drawn, c.resample_overflows,
                                c.fresh_reports, c.cache_replays,
                                c.nodes_exhausted,
                                c.rng_integrity_detections};
        acc = foldBytes(acc, counters, sizeof counters);
        // Streaming-aggregation state extends the fingerprint only
        // for cohorts that opted in, so agg-off runs keep their
        // committed baseline fingerprints bit for bit.
        if (c.agg) {
            for (uint64_t s : c.agg->sketch.slots())
                acc = FleetSeeder::mix64(acc ^ s);
            acc = FleetSeeder::mix64(acc ^ c.agg->sketch.total());
            acc = FleetSeeder::mix64(acc ^ c.agg->dropped);
            for (double v : c.agg->decoded.counts)
                acc = FleetSeeder::mix64(acc ^ std::bit_cast<uint64_t>(v));
            const agg::DecodedFrequencies &d = c.agg->decoded;
            uint64_t moments[5] = {
                std::bit_cast<uint64_t>(d.mean),
                std::bit_cast<uint64_t>(d.variance),
                std::bit_cast<uint64_t>(d.median),
                std::bit_cast<uint64_t>(d.boundary_mass_observed),
                std::bit_cast<uint64_t>(d.boundary_mass_expected)};
            acc = foldBytes(acc, moments, sizeof moments);
            for (const agg::HeavyHitter &h : c.agg->heavy) {
                acc = FleetSeeder::mix64(acc ^ h.item);
                acc = FleetSeeder::mix64(acc ^ h.estimate);
            }
        }
    }
    return acc;
}

FleetRunner::FleetRunner(FleetConfig config)
    : config_(std::move(config)), seeder_(config_.master_seed)
{
    if (config_.cohorts.empty())
        fatal("FleetRunner: configuration has no cohorts");
    if (config_.block_nodes == 0)
        fatal("FleetRunner: block_nodes must be positive");
    plans_.reserve(config_.cohorts.size());
    for (size_t i = 0; i < config_.cohorts.size(); ++i)
        plans_.emplace_back(config_.cohorts[i],
                            static_cast<uint32_t>(i));
    // Each cohort's epoch is one journaled spend: refuse a ledger
    // that cannot record the worst one before any report is out.
    if (config_.epoch_ledger != nullptr)
        for (const CohortPlan &plan : plans_)
            requireRecordable(
                config_.epoch_ledger,
                quantaUp(epochLoss(plan.nodes * plan.fresh_per_node,
                                   plan.per_report_charge)),
                "FleetRunner epoch");
}

FleetRunner::~FleetRunner() = default;

namespace {
std::atomic<bool> g_force_scalar_blocks{false};
} // anonymous namespace

void
FleetRunner::forceScalarBlocks(bool on)
{
    g_force_scalar_blocks.store(on, std::memory_order_relaxed);
}

LaplaceSampleTable *
FleetRunner::mutableTable(size_t cohort)
{
    return plans_.at(cohort).table ? plans_[cohort].proto.mutableTable()
                                   : nullptr;
}

/**
 * The one place a released report is accounted. Both execution paths
 * feed it the same stream -- per node, in node order: begin(), one
 * freshAt()/fresh() per fresh draw in trial order, then finish() --
 * the order the per-node Welford merges depend on. It owns the
 * fresh/replay rule and every per-report statistic; the paths only
 * supply draws. A counted cohort's report is one slot x trial count,
 * the node's integer sums and the checksum. The per-report methods
 * are forced inline: they sit on the hot loop, and with a call site
 * per path and draw kind the -O2 inliner would otherwise keep
 * out-of-line copies.
 */
struct FleetRunner::ReportSink
{
    /** Nodes counted together, row by row: each trial row's stores
     *  then hit lines and pages already hot. */
    static constexpr uint32_t kGroup = TausBank::kMaxLanes;

    /** Each path builds its own sink: a sink holds no state across
     *  nodes except counts it has yet to flush, so a bail undoes
     *  nothing. */
    ReportSink(const CohortPlan &p, const WorkItem &item,
               WorkerScratch &ws)
        : plan(p), acc(*item.accum), base(item.baseline),
          matrix(item.matrix),
          counts(p.counted ? ws.counts[item.cohort].data() : nullptr),
          span(p.span), win_lo(p.win_lo), delta(p.delta),
          trials(p.cfg.reports_per_node)
    {
        ws.group_slots.resize(size_t{trials} * kGroup);
        slots = ws.group_slots.data();
    }

    ~ReportSink() { flush(); }

    /** Open a node. Its replay value is the range's grid midpoint
     *  until a fresh report replaces it. */
    [[gnu::always_inline]] void begin(uint64_t node_id, double true_value)
    {
        node = node_id;
        x = true_value;
        t = 0;
        last = plan.mid_value;
        last_yi = plan.mid_index;
        sums = GridSums();
        digest = 0;
        acc.true_vals.add(x);
        if (plan.fresh_per_node < trials)
            ++acc.exhausted;
    }

    /** A fresh report at output grid index yi. */
    [[gnu::always_inline]] void freshAt(int64_t yi)
    {
        last_yi = yi;
        fresh(static_cast<double>(yi) * delta);
    }

    /** A fresh report off the grid (Ideal cohorts). */
    [[gnu::always_inline]] void fresh(double released)
    {
        last = released;
        emit();
    }

    /** Close the node: its budget is exhausted, so the remaining
     *  trials replay the last report (a function of already-released
     *  data; zero additional loss). A counted node folds its error
     *  moments, exact from its integer sums, into the slab. */
    [[gnu::always_inline]] void finish()
    {
        acc.fresh += t;
        acc.replays += trials - t;
        while (t < trials)
            emit();
        acc.checksum += digest;
        if (counts == nullptr)
            return;
        acc.error.merge(RunningStats::fromGrid(sums, win_lo, delta, x));
        if (++lane == kGroup)
            flush();
    }

  private:
    [[gnu::always_inline]] void emit()
    {
        if (counts != nullptr) {
            // The window is the certified output window: a report
            // outside it is a broken mechanism, never a drop.
            const uint64_t s = static_cast<uint64_t>(last_yi - win_lo);
            ULPDP_ASSERT(s < span);
            slots[t * kGroup + lane] = static_cast<uint32_t>(s);
            sums.add(s);
        } else {
            base->hist.add(last);
            base->released.add(last);
            acc.error.add(last - x);
            base->trial_sum[t] += last;
        }
        digest += reportDigest(node, t, last);
        if (matrix != nullptr)
            matrix[static_cast<uint64_t>(t) * plan.nodes + node] = last;
        ++t;
    }

    /** Count the slots of the nodes finished since the last flush. */
    void flush()
    {
        for (uint32_t r = 0; lane > 0 && r < trials; ++r)
            for (uint32_t l = 0; l < lane; ++l)
                ++counts[r * span + slots[r * kGroup + l]];
        lane = 0;
    }

    const CohortPlan &plan;
    BlockAccum &acc;
    BaselineAccum *const base;
    double *const matrix;
    uint64_t *const counts;
    const size_t span;
    const int64_t win_lo;
    const double delta;
    const uint32_t trials;
    /** Trial-major slots of the group's nodes: [t * kGroup + lane]. */
    uint32_t *slots;
    uint32_t lane = 0;

    // The open node.
    uint64_t node = 0;
    double x = 0.0;
    uint32_t t = 0;
    double last = 0.0;
    int64_t last_yi = 0;
    GridSums sums;
    uint64_t digest = 0;
};

void
FleetRunner::WorkerScratch::processBlock(const CohortPlan &plan,
                                         const FleetSeeder &seeder,
                                         const WorkItem &item)
{
    if (timed)
        mark = std::chrono::steady_clock::now();
    uint64_t from = item.node_lo;
    if (plan.batch_ok &&
        !g_force_scalar_blocks.load(std::memory_order_relaxed)) {
        from = batchBlock(plan, seeder, item);
        if (from == item.node_hi)
            return;
        // A comparator tripped, or a window holds no URNG state: the
        // scalar path finishes the block from the group that bailed
        // (the groups emitted are bit-identical to its own), with the
        // exact per-draw quarantine (or clamp) semantics.
        ++fallbacks;
    }
    scalarBlock(plan, seeder, item, from);
}

uint64_t
FleetRunner::WorkerScratch::batchBlock(const CohortPlan &plan,
                                       const FleetSeeder &seeder,
                                       const WorkItem &item)
{
    ReportSink sink(plan, item, *this);
    constexpr size_t W = TausBank::kMaxLanes;
    // Cohort-cached sampler: constructing one per block copied the
    // table's shared_ptr, and the refcount RMW on that shared
    // control-block line was cross-core traffic on every block claim.
    // The cached instance keeps a stable reference; the loop below
    // only ever reads the table through a plain pointer.
    if (!sampler || sampler_cohort != item.cohort) {
        sampler.emplace(plan.table, plan.proto.config().uniform_bits,
                        plan.proto.quantizer().maxIndex(),
                        plan.proto.config().integrity_checks);
        sampler_cohort = item.cohort;
    }
    // Registry-lowered execution shape: the loop never sees the
    // mechanism's name, only the truncated/clamp booleans.
    const bool truncated = plan.mech.truncated;
    const uint32_t fresh = plan.fresh_per_node;
    rect.resize(W * static_cast<size_t>(fresh));
    CohortPlan::NodeInput in[W];
    uint64_t seeds[W];
    BatchSampler::Window windows[W];

    // Fill the bank with consecutive nodes and draw every fresh report
    // of the group in one rect. Lane l is bit-identical to the scalar
    // stream of node lo + l, so the sink sees the scalar path's draws.
    for (uint64_t lo = item.node_lo; lo < item.node_hi; lo += W) {
        size_t lanes = static_cast<size_t>(
            std::min<uint64_t>(W, item.node_hi - lo));
        for (size_t l = 0; l < lanes; ++l) {
            in[l] = plan.nodeInput(seeder, lo + l);
            seeds[l] = in[l].seed;
            if (truncated)
                windows[l] = {plan.win_lo - in[l].xi,
                              plan.win_hi - in[l].xi};
        }
        sampler->seedLanes(seeds, lanes);
        lap(kSeed);
        bool ok = truncated
            ? sampler->sampleTruncatedRect(windows, rect.data(), fresh)
            : sampler->sampleRect(rect.data(), fresh);
        lap(kDraw);
        if (!ok)
            return lo;
        for (size_t l = 0; l < lanes; ++l) {
            sink.begin(lo + l, in[l].x);
            for (uint32_t t = 0; t < fresh; ++t)
                sink.freshAt(plan.noisyIndex(
                    in[l].xi, rect[static_cast<size_t>(t) * lanes + l]));
            sink.finish();
        }
        item.accum->samples += lanes * fresh;
        lap(kAccumulate);
    }
    return item.node_hi;
}

void
FleetRunner::WorkerScratch::scalarBlock(const CohortPlan &plan,
                                        const FleetSeeder &seeder,
                                        const WorkItem &item,
                                        uint64_t from)
{
    ReportSink sink(plan, item, *this);
    BlockAccum &acc = *item.accum;
    const uint32_t fresh = plan.fresh_per_node;
    const bool fxp = !plan.mech.ideal;
    // Unconfined lowerings draw a node's whole batch up front;
    // truncated ones confine draw by draw.
    const bool batched = plan.mech.naive || plan.mech.clamp;
    if (fxp && (!rng || rng_cohort != item.cohort ||
                rng->integrityFault())) {
        rng.emplace(plan.proto);
        rng_cohort = item.cohort;
        ++clones;
    }
    const uint64_t drawn_before = fxp ? rng->samplesDrawn() : 0;
    const uint64_t integ_before = fxp ? rng->integrityDetections() : 0;
    noise.resize(fresh);

    for (uint64_t node = from; node < item.node_hi; ++node) {
        const CohortPlan::NodeInput in = plan.nodeInput(seeder, node);
        sink.begin(node, in.x);
        if (!fxp) {
            IdealLaplace ideal(plan.lambda, in.seed);
            for (uint32_t t = 0; t < fresh; ++t)
                sink.fresh(in.x + ideal.sample());
            acc.samples += fresh;
        } else if (batched) {
            rng->urng() = Tausworthe(in.seed);
            if (fresh > 0)
                rng->sampleBatch(noise.data(), fresh);
            for (uint32_t t = 0; t < fresh; ++t)
                sink.freshAt(plan.noisyIndex(in.xi, noise[t]));
        } else {
            rng->urng() = Tausworthe(in.seed);
            for (uint32_t t = 0; t < fresh; ++t) {
                // drawConfinedOutput's samples out-param is
                // per-request (it assigns); the block total comes
                // from samplesDrawn() below.
                uint64_t scratch = 0;
                sink.freshAt(drawConfinedOutput(
                    *rng, RangeControl::Resampling, in.xi, plan.win_lo,
                    plan.win_hi, uint64_t{1} << 20, scratch,
                    acc.overflows, "FleetRunner"));
            }
        }
        sink.finish();
    }
    if (fxp) {
        acc.samples += rng->samplesDrawn() - drawn_before;
        acc.integrity += rng->integrityDetections() - integ_before;
    }
    lap(kDraw); // draws and sink interleave: all counts as draw time
}

FleetReport
FleetRunner::run(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = static_cast<unsigned>(hardwareJobs());

    // Per-cohort block slabs, pre-sized so workers never allocate
    // shared state; materialized matrices likewise.
    std::vector<std::vector<BlockAccum>> accums(plans_.size());
    std::vector<std::vector<BaselineAccum>> baselines(plans_.size());
    std::vector<std::vector<double>> matrices(plans_.size());
    std::vector<WorkItem> items;
    for (size_t c = 0; c < plans_.size(); ++c) {
        CohortPlan &plan = plans_[c];
        uint64_t nblocks = plan.numBlocks(config_.block_nodes);
        accums[c].resize(nblocks);
        if (!plan.counted)
            baselines[c].assign(nblocks, BaselineAccum(
                plan.hist_lo, plan.hist_hi, plan.cfg.histogram_bins,
                plan.cfg.reports_per_node));
        if (plan.cfg.materialize)
            matrices[c].assign(plan.nodes *
                                   plan.cfg.reports_per_node,
                               0.0);
        for (uint64_t b = 0; b < nblocks; ++b) {
            uint64_t lo = b * config_.block_nodes;
            uint64_t hi = std::min(plan.nodes,
                                   lo + config_.block_nodes);
            items.push_back(WorkItem{
                static_cast<uint32_t>(c), lo, hi, &accums[c][b],
                plan.counted ? nullptr : &baselines[c][b],
                plan.cfg.materialize ? matrices[c].data() : nullptr});
        }
    }

    unsigned spawn = static_cast<unsigned>(
        std::min<size_t>(num_threads, items.size()));
    if (spawn == 0)
        spawn = 1;

    // Per-worker work queues: contiguous block-index ranges, claimed
    // chunk-wise by their owner and block-wise by thieves. The
    // contiguous split keeps one worker walking consecutive slabs
    // (prefetch-friendly) and makes the common claim an RMW on a line
    // only the owner touches.
    std::vector<WorkQueue> queues(spawn);
    for (unsigned w = 0; w < spawn; ++w) {
        uint64_t lo = static_cast<uint64_t>(items.size()) * w / spawn;
        uint64_t hi =
            static_cast<uint64_t>(items.size()) * (w + 1) / spawn;
        queues[w].next.store(lo, std::memory_order_relaxed);
        queues[w].end = hi;
        queues[w].chunk = std::max<uint64_t>(1, (hi - lo) / 8);
    }

    auto job = [&](unsigned w) {
        WorkerScratch &ws = *scratch_[w];
        ws.counts.resize(plans_.size());
        for (size_t c = 0; c < plans_.size(); ++c)
            ws.counts[c].assign(plans_[c].counted ? plans_[c].span *
                                    plans_[c].cfg.reports_per_node : 0,
                                0);
        WorkQueue &own = queues[w];
        for (;;) {
            uint64_t i =
                own.next.fetch_add(own.chunk,
                                   std::memory_order_relaxed);
            if (i >= own.end)
                break;
            uint64_t hi = std::min(i + own.chunk, own.end);
            for (; i < hi; ++i)
                ws.processBlock(plans_[items[i].cohort], seeder_,
                                items[i]);
        }
        // Own queue dry: steal single blocks until a full sweep of
        // the other queues finds nothing. Stealing only moves blocks
        // between workers; the block -> slab mapping is untouched.
        for (bool stole = true; stole && spawn > 1;) {
            stole = false;
            for (unsigned v = 1; v < spawn; ++v) {
                WorkQueue &q = queues[(w + v) % spawn];
                if (q.looksEmpty())
                    continue;
                uint64_t i =
                    q.next.fetch_add(1, std::memory_order_relaxed);
                if (i >= q.end)
                    continue;
                ws.processBlock(plans_[items[i].cohort], seeder_,
                                items[i]);
                stole = true;
            }
        }
    };

    // Everything below this comment and above the t0 stamp is epoch
    // setup that must never be timed: growing the parked pool to the
    // requested width (first epoch only), growing the per-worker
    // scratch slots, and materializing the type-erased job the pool
    // dispatches.
    WorkerPool::shared().reserve(spawn - 1);
    while (scratch_.size() < spawn)
        scratch_.push_back(std::make_unique<WorkerScratch>());
    const bool timed = telemetry::enabled();
    for (unsigned w = 0; w < spawn; ++w) {
        WorkerScratch &ws = *scratch_[w];
        ws.fallbacks = 0;
        ws.clones = 0;
        ws.timed = timed;
        std::fill(std::begin(ws.stage_seconds),
                  std::end(ws.stage_seconds), 0.0);
    }
    std::function<void(unsigned)> job_fn = job;

    auto t0 = std::chrono::steady_clock::now();
    WorkerPool::shared().dispatch(spawn, job_fn);
    auto t1 = std::chrono::steady_clock::now();

    // Per-worker telemetry deltas, summed post-epoch on the main
    // thread (the pool's dispatch handshake orders the reads after
    // every worker's writes).
    uint64_t batch_fallbacks = 0;
    uint64_t rng_clones = 0;
    double stage_seconds[WorkerScratch::kStages] = {};
    for (unsigned w = 0; w < spawn; ++w) {
        batch_fallbacks += scratch_[w]->fallbacks;
        rng_clones += scratch_[w]->clones;
        for (int s = 0; s < WorkerScratch::kStages; ++s)
            stage_seconds[s] += scratch_[w]->stage_seconds[s];
    }

    // Merge the block slabs in block-index order -- the fixed merge
    // tree that makes the floating-point moments independent of which
    // thread ran which block.
    FleetReport report;
    report.threads = spawn;
    bool epoch_journaled = true;
    report.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    for (size_t c = 0; c < plans_.size(); ++c) {
        const CohortPlan &plan = plans_[c];
        CohortResult res(Histogram(plan.hist_lo, plan.hist_hi,
                                   plan.cfg.histogram_bins));
        res.name = plan.cfg.name;
        res.mechanism = plan.mech.mech_enum;
        res.mechanism_label = plan.mech.label;
        res.nodes = plan.nodes;
        const uint32_t trials = plan.cfg.reports_per_node;
        res.trial_estimate.assign(trials, 0.0);
        for (const BlockAccum &acc : accums[c]) {
            res.error_stats.merge(acc.error);
            res.true_stats.merge(acc.true_vals);
            res.samples_drawn += acc.samples;
            res.resample_overflows += acc.overflows;
            res.fresh_reports += acc.fresh;
            res.cache_replays += acc.replays;
            res.nodes_exhausted += acc.exhausted;
            res.rng_integrity_detections += acc.integrity;
            res.checksum += acc.checksum;
        }
        res.reports = res.fresh_reports + res.cache_replays;
        for (const BaselineAccum &b : baselines[c]) {
            res.released_hist.merge(b.hist);
            res.released_stats.merge(b.released);
            for (uint32_t t = 0; t < trials; ++t)
                res.trial_estimate[t] += b.trial_sum[t];
        }
        if (!plan.counted)
            for (double &e : res.trial_estimate)
                e /= static_cast<double>(plan.nodes);
        // Counted cohorts: add the worker counts into worker 0's (an
        // order-free integer merge), then derive the trial means,
        // histogram and released moments from exact integer sums.
        uint64_t *counts =
            plan.counted ? scratch_[0]->counts[c].data() : nullptr;
        std::vector<uint64_t> totals(plan.counted ? plan.span : 0, 0);
        for (uint32_t t = 0; plan.counted && t < trials; ++t) {
            uint64_t *row = counts + t * plan.span;
            for (unsigned w = 1; w < spawn; ++w) {
                const uint64_t *other =
                    scratch_[w]->counts[c].data() + t * plan.span;
                for (size_t s = 0; s < plan.span; ++s)
                    row[s] += other[s];
            }
            GridSums sums;
            for (size_t s = 0; s < plan.span; ++s) {
                sums.add(s, row[s]);
                totals[s] += row[s];
            }
            res.trial_estimate[t] =
                RunningStats::fromGrid(sums, plan.win_lo, plan.delta).mean();
        }
        GridSums all;
        for (size_t s = 0; s < totals.size(); ++s) {
            all.add(s, totals[s]);
            res.released_hist.add(
                static_cast<double>(plan.win_lo + static_cast<int64_t>(s)) *
                    plan.delta,
                totals[s]);
        }
        if (plan.counted)
            res.released_stats =
                RunningStats::fromGrid(all, plan.win_lo, plan.delta);

        RunningStats abs_err;
        for (double e : res.trial_estimate)
            abs_err.add(std::abs(e - res.trueMean()));
        res.mean_mae = abs_err.mean();
        res.mean_mae_std = abs_err.stddev();

        res.worst_loss = plan.worst_loss;
        res.ldp = plan.ldp;
        res.matrix = std::move(matrices[c]);
        report.total_reports += res.reports;

        // Streaming aggregation: one ingest of the merged counts
        // (every sketch component is linear in them), the heavy-hitter
        // scan, and the unbiased channel-inversion decode. Main
        // thread, post-parallel-section: none of it is on the hot loop.
        if (plan.agg_on) {
            auto ar = std::make_shared<CohortAggResult>();
            ar->sketch = agg::CohortSketch(
                plan.cfg.agg, plan.span, plan.agg_rows,
                static_cast<double>(plan.win_lo) * plan.delta,
                plan.delta);
            ar->sketch.ingestDelta(plan.agg_rows > 1 ? counts
                                                     : totals.data());
            if (plan.cfg.agg.heavy_hitters > 0) {
                ar->heavy = agg::topK(ar->sketch.cm(),
                                      ar->sketch.span(),
                                      plan.cfg.agg.heavy_hitters);
            }
            ar->decoder = plan.decoder;
            ar->input_value0 =
                static_cast<double>(plan.lo_index) * plan.delta;
            ar->delta = plan.delta;
            auto d0 = std::chrono::steady_clock::now();
            ar->decoded = plan.decoder->decode(
                ar->sketch.slotTotals(), ar->input_value0,
                plan.delta);
            ar->decode_seconds = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - d0).count();
            res.agg = std::move(ar);
        }
        if (telemetry::enabled())
            publishCohort(res);

        // Durable epoch accounting: journal the cohort's worst-case
        // loss (fresh reports x the flat metering bound -- never an
        // undercharge) and seal the epoch with a checkpoint. Main
        // thread, post-merge: the FleetReport and its fingerprint are
        // already final, so a ledger cannot move a bit of them.
        if (config_.epoch_ledger != nullptr && res.fresh_reports > 0 &&
            !config_.epoch_ledger->journalSpend(
                epochLoss(res.fresh_reports, plan.per_report_charge))) {
            warn("FleetRunner: epoch ledger lost the spend of cohort "
                 "'%s'; the epoch is left unsealed", res.name.c_str());
            epoch_journaled = false;
        }
        report.cohorts.push_back(std::move(res));
    }
    // A checkpoint seals remaining(), which leaves out a lost spend:
    // sealing it would hand that budget back at recovery.
    if (config_.epoch_ledger != nullptr && epoch_journaled)
        config_.epoch_ledger->commitCheckpoint(
            config_.epoch_ledger->remaining(),
            config_.epoch_ledger->cache());
    if (telemetry::enabled()) {
        FleetMetrics &m = fleetMetrics();
        m.runs.inc();
        m.threads.set(static_cast<double>(report.threads));
        m.throughput.set(report.reportsPerSecond());
        m.seconds.observe(report.seconds);
        // Batch-layer observability. Neither feeds the FleetReport or
        // its fingerprint: the determinism contract is about the
        // merged result, not about which path produced it.
        m.batch_fallbacks.inc(batch_fallbacks);
        m.rng_clones.inc(rng_clones);
        stage_seconds[WorkerScratch::kMerge] =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t1).count();
        const char *stages[] = {"seed", "draw", "accumulate", "merge"};
        for (int s = 0; s < WorkerScratch::kStages; ++s)
            telemetry::registry().histogram(
                "ulpdp_fleet_stage_seconds",
                "Seconds per fleet epoch stage, summed over workers",
                "seconds", {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0},
                std::string("stage=\"") + stages[s] + "\"")
                .observe(stage_seconds[s]);
    }
    return report;
}

} // namespace ulpdp
