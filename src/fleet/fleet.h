/**
 * @file
 * Parallel fleet engine: simulate N independent DP-Box nodes at
 * population scale.
 *
 * The paper's utility story (Tables II-V, Fig. 15) only exists in the
 * aggregate: an analyst averages millions of locally-noised reports
 * and the noise cancels. Every simulation path in this repo used to
 * be a single sequential loop; this engine is the fleet-scale runner
 * that every scaling experiment builds on.
 *
 * Determinism contract -- the merged FleetReport is bit-identical for
 * any thread count and any scheduling, because nothing in the result
 * depends on execution order:
 *
 *  - Every node owns an independent Tausworthe stream derived from
 *    (master seed, cohort, node id) by FleetSeeder, so which thread
 *    simulates a node cannot change what the node does.
 *  - A registry-lowered cohort releases every report on the Delta grid
 *    inside its output window: a report is one uint64 count in the
 *    worker's private slot x trial array. The main thread adds the
 *    arrays (integer sums: any order) and derives the histogram,
 *    released moments, trial means and agg sketch from them.
 *  - Work is sharded into fixed-size *blocks* of consecutive nodes.
 *    The block size is a configuration constant, not a function of
 *    the thread count; each block folds its nodes' true readings and
 *    error moments into its own private, cache-line-aligned slab (no
 *    locks, no atomics, no sharing on the hot path -- the only
 *    synchronisation is the relaxed claim RMW on a per-worker work
 *    queue, plus occasional steals from a drained worker).
 *  - At the end the main thread merges the block slabs in block-index
 *    order: Welford merges are *not* floating-point-associative, so
 *    this fixed merge tree, which serves only the per-node moments
 *    (and the Ideal and Naive baselines' doubles), never follows
 *    completion order.
 *
 * The hot path rides the batch sampling layer (rng/batch_sampler.h):
 * workers fill a 16-lane Tausworthe bank with consecutive nodes'
 * streams and draw every fresh report of the group in one rect --
 * SIMD-stepped URNG words feeding blocked, prefetched table lookups,
 * with the window-confined (resampling) variant hoisting the
 * acceptance mass out of the trial loop. Lane l is bit-identical to
 * node l's scalar stream, so the batched accumulation (still strictly
 * in (node, trial) order) produces the exact report values of the
 * scalar path; a batch-layer integrity bail resumes the block on the
 * per-draw scalar code from the group that bailed. The per-cohort
 * sampling table is enumerated once on the main thread and shared
 * read-only by every worker.
 */

#ifndef ULPDP_FLEET_FLEET_H
#define ULPDP_FLEET_FLEET_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agg/decode.h"
#include "agg/stream.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "core/fxp_params.h"
#include "fleet/seeder.h"

namespace ulpdp {

/** Which mechanism a cohort's nodes run. */
enum class CohortMechanism
{
    /** Continuous double-precision Laplace (the utility yardstick). */
    Ideal,

    /** Fixed-point noise, no range control (not LDP). */
    Naive,

    /** Fixed-point noise redrawn into the window (table-driven
     *  truncated inversion -- no redraw loop). */
    Resampling,

    /** Fixed-point noise clamped to the window. */
    Thresholding,

    /** Variance-corrected bounded Laplace (Holohan et al.): outputs
     *  confined to the sensor range itself, T = 0. */
    BoundedLaplace,

    /** Discrete Laplace (Floor-rounded pipeline) with resampling
     *  window control. */
    DiscreteLaplace,
};

/** Human-readable mechanism name. */
const char *cohortMechanismName(CohortMechanism m);

/** Registry lookup name for an enum value, or nullptr for the two
 *  legacy non-registered settings (Ideal, Naive). */
const char *cohortMechanismRegistryName(CohortMechanism m);

/**
 * One cohort: a group of nodes sharing a mechanism configuration.
 * Different cohorts of one fleet can run different mechanisms,
 * epsilons and budgets (e.g. an A/B experiment across the install
 * base).
 */
struct CohortConfig
{
    /** Cohort label for reports. */
    std::string name = "cohort";

    /** Mechanism every node of this cohort runs. */
    CohortMechanism mechanism = CohortMechanism::Thresholding;

    /**
     * Select the mechanism through the registry by name instead of
     * the enum (e.g. "bounded-laplace"). Empty keeps the enum
     * selection. The named mechanism must advertise a fleet lowering
     * (MechanismRegistry::Entry::lower); for the names that mirror
     * enum values the two selection paths resolve to bit-identical
     * plans, which the fingerprint-immunity test proves.
     */
    std::string mechanism_name;

    /** Fixed-point parameters (range, eps, Bu, By, Delta). The
     *  params.seed field is ignored: fleet nodes are seeded per node
     *  by the FleetSeeder. */
    FxpMechanismParams params;

    /** Loss bound multiple n for the exact threshold search (range-
     *  controlled mechanisms; must exceed 1). */
    double loss_multiple = 2.0;

    /** Explicit window extension in Delta units; >= 0 overrides the
     *  exact search (use for sweeps of mis-provisioned windows). */
    int64_t threshold_index = -1;

    /** Node count (ignored when @ref values is non-empty). */
    uint64_t nodes = 0;

    /** Reports each node releases per epoch ("trials" in the utility
     *  benches: trial t is every node's t-th report). */
    uint32_t reports_per_node = 1;

    /**
     * Explicit per-node true readings (dataset replay: node i holds
     * values[i]). Empty selects synthetic clipped-Gaussian data.
     */
    std::vector<double> values;

    /** Synthetic data mean; NaN/unset centers on the sensor range. */
    double data_mean = 0.0;

    /** Synthetic data std; <= 0 selects range length / 6. */
    double data_std = 0.0;

    /** Set when data_mean was explicitly chosen. */
    bool data_mean_set = false;

    /**
     * Per-node privacy budget for one epoch; 0 disables metering.
     * Metering is deliberately worst-case (every fresh report is
     * charged the full configured bound -- loss_multiple * eps for
     * range-controlled cohorts, eps otherwise) so the affordable
     * report count is a pure function of the budget: the halt check
     * never consumes randomness, matching the check-before-sample
     * ordering of BudgetController. Exhausted nodes replay their
     * cached previous report (zero additional loss).
     */
    double budget_per_node = 0.0;

    /** Bins of the released-value histogram. */
    size_t histogram_bins = 64;

    /**
     * Materialize the full report matrix (reports_per_node x nodes,
     * row-major) so per-trial order-statistic queries (median,
     * percentiles) can run after the fact. Each block writes its own
     * disjoint columns, so the matrix contents are thread-count
     * independent too. Intended for utility-table-sized cohorts;
     * streaming cohorts (millions of nodes) leave this off.
     */
    bool materialize = false;

    /** Skip the exact whole-support privacy-loss analysis (it scans
     *  every (input, output) pair once per cohort on the main thread;
     *  cheap for paper-sized spans, skippable for throughput runs). */
    bool analyze_loss = true;

    /**
     * Streaming aggregation (src/agg): the epoch's merged slot counts
     * feed one sketch, decoded by the unbiased channel-inversion
     * estimator. Off by default -- enabling it extends the fingerprint
     * with the sketch state. Ignored (with a warning) for the Ideal
     * and Naive baselines: no bounded output window to sketch.
     */
    agg::AggConfig agg;
};

class BudgetLedger;
class LaplaceSampleTable;

/** Fleet-wide configuration. */
struct FleetConfig
{
    /** Master seed every per-node stream derives from. */
    uint64_t master_seed = 1;

    /**
     * Nodes per scheduling/merge block. Results depend on this
     * constant (it fixes the merge tree of the per-node moments) but
     * never on the thread count. The default gives a 1M-node fleet
     * ~1000 blocks to balance across threads.
     */
    uint32_t block_nodes = 1024;

    /** The cohorts to simulate. */
    std::vector<CohortConfig> cohorts;

    /**
     * Optional durable epoch ledger (borrowed; must outlive the
     * runner and be mounted). After each epoch's merge the main
     * thread journals, per cohort, the worst-case privacy loss of its
     * fresh reports (fresh_reports x the same flat per-report bound
     * the budget metering uses -- never an undercharge) and commits a
     * checkpoint. Journaling happens entirely outside the parallel
     * section and after the merge, so it cannot move a bit of the
     * FleetReport: the fingerprint is identical with and without a
     * ledger attached on a fault-free run. Each cohort's epoch is one
     * record, so the ledger's max_record_loss must cover every
     * cohort's worst epoch charge; the runner's constructor calls
     * fatal() otherwise.
     */
    BudgetLedger *epoch_ledger = nullptr;
};

/**
 * Merged streaming-aggregation state of one cohort (present iff the
 * cohort enabled CohortConfig::agg). Everything except decode_seconds
 * is part of the determinism contract: the sketch is pure integer
 * counters merged shard-wise, and the decode is a deterministic
 * function of those integers, so every field is bit-identical across
 * thread counts.
 */
struct CohortAggResult
{
    /** Merged sketch state (exact slot counts, count-min, quantiles). */
    agg::CohortSketch sketch;

    /** Heavy-hitter slots by count-min estimate, deterministic order. */
    std::vector<agg::HeavyHitter> heavy;

    /** Unbiased channel-inversion decode of the merged slot totals. */
    agg::DecodedFrequencies decoded;

    /** The cohort's precomputed decoder; utility benches reuse it for
     *  per-trial decodes over sketch.trialSlots(t). */
    std::shared_ptr<const agg::FrequencyDecoder> decoder;

    /** Physical value of input grid index 0 and the grid step, for
     *  feeding decoder->decode() externally. */
    double input_value0 = 0.0;
    double delta = 0.0;

    /** Reports outside the sketch window: always 0 (the sketch window
     *  is the output window, and a report outside it is fatal). */
    uint64_t dropped = 0;

    /** Wall-clock seconds of the post-merge decode (not part of the
     *  determinism contract). */
    double decode_seconds = 0.0;
};

/** Merged per-cohort result. */
struct CohortResult
{
    explicit CohortResult(const Histogram &h) : released_hist(h) {}

    /** Cohort label. */
    std::string name;

    /** Mechanism the cohort ran. */
    CohortMechanism mechanism = CohortMechanism::Thresholding;

    /** Display name of the mechanism the cohort ran (authoritative
     *  for registry-selected cohorts; not part of the fingerprint). */
    std::string mechanism_label;

    /** Nodes simulated. */
    uint64_t nodes = 0;

    /** Reports released (nodes * reports_per_node). */
    uint64_t reports = 0;

    /** Histogram of every released value. */
    Histogram released_hist;

    /** Moments of every released value (from the integer slot counts;
     *  Welford for the Ideal and Naive baselines). */
    RunningStats released_stats;

    /** Moments of (released - true) per report (merged per node). */
    RunningStats error_stats;

    /** Welford moments of the true per-node readings. */
    RunningStats true_stats;

    /** Per-trial mean estimate: mean over nodes of trial t's
     *  reports (the analyst's population-mean estimate). */
    std::vector<double> trial_estimate;

    /** MAE of the trial mean estimates against the true mean, and
     *  its std over trials (the Fig. 15 / Tables II-V metric). */
    double mean_mae = 0.0;
    double mean_mae_std = 0.0;

    /** Laplace samples drawn (energy/latency proxy). */
    uint64_t samples_drawn = 0;

    /** Confined draws degraded to a window-edge clamp. */
    uint64_t resample_overflows = 0;

    /** Reports released with fresh noise. */
    uint64_t fresh_reports = 0;

    /** Reports served by replaying the node's cached report. */
    uint64_t cache_replays = 0;

    /** Nodes whose budget could not cover all reports. */
    uint64_t nodes_exhausted = 0;

    /** Sampler-table integrity faults detected across the fleet. */
    uint64_t rng_integrity_detections = 0;

    /**
     * Order-independent digest of every (node, trial, released bit
     * pattern) triple: two runs are report-for-report identical iff
     * their checksums match, which is how the determinism tests and
     * bench compare thread counts cheaply.
     */
    uint64_t checksum = 0;

    /** Exact worst-case privacy loss (analyze_loss cohorts; inf for
     *  the naive baseline). */
    double worst_loss = 0.0;

    /** Whether worst_loss <= loss_multiple * eps (the device's
     *  configured bound). */
    bool ldp = false;

    /** Materialized report matrix (reports_per_node x nodes,
     *  row-major); empty unless CohortConfig::materialize. */
    std::vector<double> matrix;

    /** Streaming-aggregation result; null unless CohortConfig::agg
     *  was enabled for this cohort. */
    std::shared_ptr<CohortAggResult> agg;

    /** True population mean. */
    double trueMean() const { return true_stats.mean(); }

    /** Fleet-aggregate mean estimate over all reports. */
    double estimatedMean() const { return released_stats.mean(); }

    /** One trial's reports (materialized cohorts only). */
    std::vector<double> trialReports(uint32_t trial) const;
};

/** Merged fleet-wide result of one epoch. */
struct FleetReport
{
    /** Per-cohort results, in configuration order. */
    std::vector<CohortResult> cohorts;

    /** Total reports released across cohorts. */
    uint64_t total_reports = 0;

    /** Wall-clock seconds of the parallel section (not part of the
     *  determinism contract). */
    double seconds = 0.0;

    /** Worker threads used. */
    unsigned threads = 0;

    /** Reports per second of the parallel section. */
    double reportsPerSecond() const;

    /**
     * Combined order-independent digest over every cohort's checksum,
     * histogram, moments and counters -- bitwise equal across runs
     * iff the merged reports are.
     */
    uint64_t fingerprint() const;
};

/**
 * Runs fleet epochs on the process-wide worker pool with per-worker
 * work-stealing block queues.
 *
 * Scheduling (all of it invisible to the merged result):
 *
 *  - A runner owns no threads. Each epoch dispatches on
 *    WorkerPool::shared() (common/worker_pool.h), grown to the
 *    epoch's width before its timer starts; the threads park between
 *    epochs and are shared with every other runner and parallel loop
 *    of the process. Spawning and joining threads inside every run()
 *    cost more than the bench epoch itself and flattened the scaling
 *    curve.
 *  - Each worker owns a contiguous, cache-line-padded queue of block
 *    indices and claims them in adaptive chunks from its own queue --
 *    no shared claim counter, so the common path has zero cross-core
 *    cache-line traffic. A worker that drains its queue steals single
 *    blocks from the fullest-looking victim, which balances ragged
 *    cohorts without perturbing the block-to-slab mapping.
 *  - Per-worker scratch (RNG clones, batch samplers holding a
 *    raw-pointer view of the cohort table, noise rects, slot counts)
 *    persists across blocks *and epochs*, so the hot loop never
 *    allocates and never touches the shared table's shared_ptr
 *    control block.
 *
 * None of this can move a bit of the FleetReport: block -> accumulator
 * slab is a static mapping, every block's content depends only on
 * (master seed, cohort, node id), the per-node slabs merge in block
 * index order, and the slot counts merge by integer addition.
 * Work-stealing changes *when* a block runs and on *which* thread --
 * two dimensions the result provably does not depend on.
 */
class FleetRunner
{
  public:
    /** Validates the configuration and enumerates per-cohort sampler
     *  tables (fatal on invalid cohorts, e.g. no valid threshold). */
    explicit FleetRunner(FleetConfig config);

    ~FleetRunner();

    /**
     * Simulate one epoch.
     *
     * @param num_threads Worker threads; 0 selects the hardware
     *        concurrency. The merged result is bit-identical for
     *        every value.
     */
    FleetReport run(unsigned num_threads = 0);

    /** The configuration in effect. */
    const FleetConfig &config() const { return config_; }

    /**
     * Process-wide test hook: route every block through the per-draw
     * scalar path instead of the batch sampling layer. The merged
     * FleetReport must be bit-identical either way -- that is the
     * batch layer's core contract, and the determinism tests prove it
     * by flipping this switch. Never set in production code.
     */
    static void forceScalarBlocks(bool on);

    /** Fault-injection surface: cohort @p cohort's shared sampling
     *  table (nullptr without one). Production code never calls it. */
    LaplaceSampleTable *mutableTable(size_t cohort);

  private:
    struct CohortPlan;
    struct WorkerScratch;
    struct ReportSink;

    FleetConfig config_;
    FleetSeeder seeder_;
    std::vector<CohortPlan> plans_;
    /** Per-worker-slot scratch (RNG clones, batch samplers, rects),
     *  reused across epochs; grown to the largest thread count seen. */
    std::vector<std::unique_ptr<WorkerScratch>> scratch_;
};

} // namespace ulpdp

#endif // ULPDP_FLEET_FLEET_H
