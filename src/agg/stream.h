/**
 * @file
 * Streaming cohort aggregation state: the mergeable sketch of one
 * cohort's released slot counts.
 *
 * The fleet counts each report of a cohort as one uint64 in a
 * per-worker slot x trial array over the mechanism's output window
 * (trial-major: [t * span + s]) and, after the epoch, feeds the merged
 * counts to one CohortSketch. Every piece of sketch state is an
 * unsigned 64-bit counter, so it is independent of how the reports
 * were partitioned and merged, and identical integer inputs into the
 * deterministic decode give bit-identical estimates at any thread
 * count.
 */

#ifndef ULPDP_AGG_STREAM_H
#define ULPDP_AGG_STREAM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "agg/sketch.h"

namespace ulpdp {
namespace agg {

/** Per-cohort streaming-aggregation knobs (off by default: the agg
 *  layer must not perturb existing fleet fingerprints). */
struct AggConfig
{
    /** Master switch; ignored for Ideal cohorts (no output grid). */
    bool enabled = false;

    /**
     * Keep per-trial slot counts (trial-major rows) so utility
     * benches can decode each trial independently. Costs trials x
     * span counters per worker; leave off for pure-throughput runs.
     */
    bool per_trial = false;

    /** Count-min shape (depth x 2^width_log2 counters). */
    uint32_t cm_depth = 4;
    uint32_t cm_width_log2 = 12;

    /** Row-hash seed; part of the sketch identity for merges. */
    uint64_t cm_seed = 0x5ce7c4a66b1ULL;

    /** Quantile sketch buckets over the output window. */
    uint32_t quantile_buckets = 256;

    /** Heavy hitters reported post-epoch (0 disables the scan). */
    uint32_t heavy_hitters = 8;
};

/**
 * One cohort's mergeable aggregation state.
 *
 * Holds the exact per-slot counts (the decoder input), a count-min
 * sketch keyed by slot (the heavy-hitter substrate), and a quantile
 * sketch over released values. All counters, no floats; see the file
 * comment for why that is the determinism load-bearing choice.
 */
class CohortSketch
{
  public:
    /** Unconfigured sketch; ingestDelta() invalid until assigned. */
    CohortSketch() = default;

    /**
     * @param cfg Sketch shapes.
     * @param span Output slots (outputHi - outputLo + 1).
     * @param trial_rows Trial rows in the slot array (1 unless
     *        cfg.per_trial; then the cohort's reports-per-node).
     * @param slot0_value Released value of slot 0.
     * @param delta Grid step between adjacent slot values.
     */
    CohortSketch(const AggConfig &cfg, size_t span, uint32_t trial_rows,
                 double slot0_value, double delta);

    bool configured() const { return span_ != 0; }

    /** Output slots per trial row. */
    size_t span() const { return span_; }

    /** Trial rows in the slot array. */
    uint32_t trialRows() const { return trial_rows_; }

    /** Slot-array length = span() * trialRows(); the length of the
     *  count array ingestDelta() takes. */
    size_t slotCells() const { return slots_.size(); }

    /** Released value of slot @p s. */
    double slotValue(size_t s) const
    {
        return slot0_value_ + static_cast<double>(s) * delta_;
    }

    /**
     * Fold a slot-count array (length slotCells(), trial-major) into
     * the sketch: exact slot counts cell-wise, count-min and quantile
     * buckets via per-slot totals summed across trial rows.
     */
    void ingestDelta(const uint64_t *delta);

    /** Cell-wise add. Fatal unless shapes match. */
    void merge(const CohortSketch &other);

    /** Zero all counters, keeping the shape (epoch reuse). */
    void clear();

    /** Exact slot counts, trial-major. */
    const std::vector<uint64_t> &slots() const { return slots_; }

    /** Per-slot totals summed over trial rows (the decode input). */
    std::vector<uint64_t> slotTotals() const;

    /** Slot counts of one trial row. */
    std::vector<uint64_t> trialSlots(uint32_t trial) const;

    const CountMinSketch &cm() const { return cm_; }
    const QuantileSketch &quantiles() const { return quantiles_; }

    /** Total reports ingested. */
    uint64_t total() const { return total_; }

    /** Counter footprint across all components, in bytes. */
    size_t bytes() const
    {
        return slots_.size() * sizeof(uint64_t) + cm_.bytes() +
               quantiles_.bytes();
    }

  private:
    size_t span_ = 0;
    uint32_t trial_rows_ = 1;
    double slot0_value_ = 0.0;
    double delta_ = 1.0;
    uint64_t total_ = 0;
    /** Exact counts, trial-major: slots_[t * span_ + s]. */
    std::vector<uint64_t> slots_;
    CountMinSketch cm_;
    QuantileSketch quantiles_;
};

} // namespace agg
} // namespace ulpdp

#endif // ULPDP_AGG_STREAM_H
