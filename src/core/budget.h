/**
 * @file
 * Privacy budget control for local DP on fixed-point hardware
 * (Section III-C, Algorithm 1, Fig. 8).
 *
 * Each noised report leaks privacy; sequential composition adds the
 * leaks up, so a device must meter them. The paper's insight is that
 * on FxP hardware the leak is *output dependent*: a report that lands
 * near the center of the window is consistent with every input (small
 * loss, the RNG's intrinsic eps_RNG), while a report near the clamp
 * boundary is only barely so (loss approaching the configured n*eps
 * bound). The controller therefore divides the output range into
 * segments with precomputed loss bounds (Fig. 8) and charges each
 * report the loss of the segment its output actually fell in --
 * strictly less total budget than charging the worst case every time.
 *
 * When the budget cannot cover a report, the controller replays the
 * cached previous report: a deterministic function of already-released
 * data, so it costs nothing (Section III-C). An optional replenishment
 * period restores the budget, matching the DP-Box hardware which
 * resets the budget timer while idle in the waiting phase.
 *
 * Every budget (controller, shared pool, DP-Box, fleet) is a
 * BudgetPool of integer loss quanta charged through a SegmentTable:
 * charges round up and budgets down, so every compare is exact.
 */

#ifndef ULPDP_CORE_BUDGET_H
#define ULPDP_CORE_BUDGET_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/fault.h"
#include "core/fxp_mechanism.h"
#include "core/threshold_calc.h"

namespace ulpdp {

class BudgetLedger;
class RngHealthMonitor;

/** Fraction bits of a loss quantum: one quantum is 2^-20 nats. */
constexpr int kLossFracBits = 20;

/** A privacy loss or budget in whole loss quanta. */
using LossQuanta = uint64_t;

/** Largest value, in nats, exact as quanta in a double: 2^53 quanta. */
constexpr double kMaxExactNats =
    static_cast<double>(uint64_t{1} << (53 - kLossFracBits));

/** @p nats in quanta rounded up (charges) or down (budgets and
 *  restored values); fatal() outside [0, kMaxExactNats]. */
LossQuanta quantaUp(double nats);
LossQuanta quantaDown(double nats);

/** Nats of @p q quanta; exact for q <= 2^53. */
inline double
nats(LossQuanta q)
{
    return static_cast<double>(q) / (1 << kLossFracBits);
}

/**
 * A privacy budget in loss quanta: where Algorithm 1 checks and
 * charges. A controller owns one, or several sensors share one
 * (Section IV: the *sum* of their losses is what must be bounded).
 */
class BudgetPool
{
  public:
    /** @param initial_budget Nats per period (rounded down, >= 1
     *         quantum). @param replenish_period Ticks; 0 disables. */
    explicit BudgetPool(double initial_budget,
                        uint64_t replenish_period = 0);

    bool covers(LossQuanta q) const { return q <= remaining_; }

    /** Charge @p q; false (pool untouched) when not covered. */
    bool tryCharge(LossQuanta q)
    {
        if (!covers(q))
            return false;
        remaining_ -= q;
        total_charged_ += q;
        return true;
    }

    /** True when a period elapsed and the pool refilled. */
    bool advanceTime(uint64_t ticks);

    void refill() { remaining_ = initial_; }

    /** Monotone restore: remaining = min(remaining, @p q), timer =
     *  min(timer, @p ticks); a stale record can never add budget. */
    void restoreAtMost(LossQuanta q, uint64_t ticks = UINT64_MAX)
    {
        remaining_ = std::min(remaining_, q);
        ticks_ = std::min(ticks_, ticks);
    }

    LossQuanta remaining() const { return remaining_; }
    LossQuanta initial() const { return initial_; }
    /** Total charged since construction, across periods. */
    LossQuanta totalCharged() const { return total_charged_; }
    uint64_t ticksSinceReplenish() const { return ticks_; }

  private:
    LossQuanta initial_;
    LossQuanta remaining_;
    LossQuanta total_charged_ = 0;
    uint64_t replenish_period_;
    uint64_t ticks_ = 0;
};

/**
 * Draw a noised output confined to [win_lo, win_hi] (grid indices)
 * for input index @p xi, the sampling step the budget controller,
 * the fleet and bounded Laplace share.
 *
 * Thresholding clamps one draw. Resampling serves the accept-reject
 * conditional distribution: through the table fast path when the RNG
 * supports it (one truncated-inversion lookup, no redraw loop), else
 * by redrawing up to @p attempt_limit times. When no sample can be
 * accepted -- a mis-provisioned window -- the draw degrades to
 * clamping at the window edge (still window-bounded, so still
 * privacy-classifiable) instead of aborting; @p overflows counts
 * those degradations and @p who names the caller in the warning.
 *
 * @param samples Out: samples drawn (energy/latency accounting).
 */
int64_t drawConfinedOutput(FxpLaplaceRng &rng, RangeControl kind,
                           int64_t xi, int64_t win_lo, int64_t win_hi,
                           uint64_t attempt_limit, uint64_t &samples,
                           uint64_t &overflows, const char *who);

/** One output segment: window extension and the loss charged for it. */
struct BudgetSegment
{
    /** Outputs within [m - t*Delta, M + t*Delta] fall in this segment
     *  (unless an inner segment already claimed them). */
    int64_t threshold_index = 0;

    /** Privacy loss charged for a report landing in this segment. */
    double loss = 0.0;
};

/**
 * The Fig. 8 segments of one device, validated once, charges rounded
 * up to quanta: the one map from an output's window extension to the
 * segment it is charged for.
 */
class SegmentTable
{
  public:
    struct Entry
    {
        int64_t threshold_index;
        LossQuanta charge;
    };

    /** @param segments Innermost first: non-empty, strictly
     *         increasing thresholds, non-decreasing losses. */
    explicit SegmentTable(const std::vector<BudgetSegment> &segments);

    /** Innermost segment covering @p ext; panic() beyond the last. */
    const Entry &classify(int64_t ext) const;

    /** Widest segment @p pool can pay for, or nullptr (the halt). */
    const Entry *widestAffordable(const BudgetPool &pool) const;

    const Entry &outermost() const { return entries_.back(); }

  private:
    std::vector<Entry> entries_;
};

/** fatal() when @p ledger (may be null) cannot journal one spend of
 *  @p loss quanta by @p who: recovery charges a torn record only the
 *  ledger's max_record_loss, so a larger one could come back short. */
void requireRecordable(const BudgetLedger *ledger, LossQuanta loss,
                       const char *who);

/**
 * Computes the Fig. 8 segmentation: for each requested loss level,
 * the widest window extension whose outputs all stay at or below it.
 */
class LossSegments
{
  public:
    /**
     * @param calc Threshold calculator for the mechanism parameters.
     * @param kind Range-control flavour the device runs.
     * @param loss_multiples Increasing loss levels as multiples of
     *        eps, e.g. {1.5, 2.0, 2.5, 3.0}; each must exceed 1.
     * @return Segments ordered innermost to outermost. The first
     *         entry is the central segment (threshold 0) charged the
     *         RNG's intrinsic central loss eps_RNG; the last entry's
     *         threshold is the device's clamp/resample window.
     */
    static std::vector<BudgetSegment>
    compute(const ThresholdCalculator &calc, RangeControl kind,
            const std::vector<double> &loss_multiples);

    /**
     * The RNG's intrinsic central loss eps_RNG: the worst loss over
     * outputs inside the sensor range itself. On ideal hardware this
     * would be exactly eps; quantization makes it slightly different.
     */
    static double centralLoss(const ThresholdCalculator &calc,
                              RangeControl kind);
};

/** Outcome of one data request served by the controller. */
struct BudgetResponse
{
    /** Value released to the requester. */
    double value = 0.0;

    /** Privacy loss charged: the segment's quantized charge in nats
     *  (0 when served from cache). */
    double charged = 0.0;

    /** True when the cached previous output was replayed. */
    bool from_cache = false;

    /** Laplace samples drawn (resampling latency accounting). A
     *  halted request is served before any sampling, so this is 0
     *  whenever from_cache is true. */
    uint64_t samples_drawn = 0;
};

/** Static configuration of a BudgetController. */
struct BudgetControllerConfig
{
    /** Total privacy budget B. */
    double initial_budget = 5.0;

    /** Budget replenishment period in device ticks; 0 disables. */
    uint64_t replenish_period = 0;

    /** Range-control flavour. */
    RangeControl kind = RangeControl::Thresholding;

    /** Output segments, innermost first (see LossSegments::compute). */
    std::vector<BudgetSegment> segments;

    /**
     * Redraw cap for the naive resampling loop before degrading to a
     * window-edge clamp (the table fast path needs no redraws and
     * ignores this).
     */
    uint64_t resample_attempt_limit = uint64_t{1} << 20;

    /**
     * Requests between CRC scrubs of the sampler table (0 disables
     * the periodic scrub; the lookup-time bounds checks remain).
     */
    uint64_t table_scrub_period = 256;

    /**
     * Fail-secure policy switch. When true (the default), any
     * detected fault -- a tripped URNG health test, a failed table
     * scrub, or a lookup-time integrity fault -- latches the
     * controller into cache-only service: every subsequent request
     * replays the cached report (zero additional privacy loss) and
     * no randomness is drawn from suspect state. When false the
     * device models unhardened silicon: detections are not acted on.
     */
    bool fail_secure = true;
};

/**
 * Algorithm 1: output-adaptive privacy budget metering wrapped around
 * the fixed-point noising datapath.
 */
class BudgetController
{
  public:
    /**
     * A controller that owns its budget pool.
     *
     * @param params Fixed-point mechanism parameters.
     * @param config Budget configuration (see SegmentTable).
     */
    BudgetController(const FxpMechanismParams &params,
                     const BudgetControllerConfig &config);

    /**
     * One sensor charging @p pool, shared with other sensors (Section
     * IV; must outlive the controller). Time and durability belong to
     * the pool's owner: advanceTime() and attachLedger() fatal()
     * here.
     */
    BudgetController(const FxpMechanismParams &params, RangeControl kind,
                     std::vector<BudgetSegment> segments,
                     BudgetPool &pool);

    /** Serve one sensor data request for true reading @p x. */
    BudgetResponse request(double x);

    /**
     * Serve the cached report without touching the budget or the
     * RNG -- the fail-secure degradation a caller invokes when the
     * *input* cannot be trusted (e.g. the sensor bus exhausted its
     * retries). Replaying already-released data costs zero budget.
     */
    BudgetResponse serveCached();

    /** Advance device time by @p ticks (drives replenishment). */
    void advanceTime(uint64_t ticks);

    /**
     * Attach a continuous health monitor on the noise URNG (borrowed
     * pointer; must outlive the controller). The controller checks
     * the alarm latch before every fresh draw and fails secure on a
     * trip. The caller is responsible for also attaching the monitor
     * to the URNG itself (rng().urng().attachHealthMonitor()).
     */
    void attachHealthMonitor(const RngHealthMonitor *monitor)
    {
        health_ = monitor;
    }

    /**
     * Attach the durable budget ledger, the one record of budget
     * state that survives a reset (borrowed pointer; must outlive the
     * controller and be mounted), and adopt its recovered state.
     * The restore is monotone: remaining budget becomes
     * min(current, ledger), so a stale record can never *increase*
     * spendable budget, and the cached report is the one of the
     * ledger's latest checkpoint. A halted (unrecoverable) ledger
     * restores zero remaining budget and an empty cache, counts a
     * checkpoint_restore_failures and returns false.
     *
     * From then on every fresh report's loss is journaled to flash
     * *before* the value is released: if the append cannot complete
     * (power dying, device dead, ledger halted) the transaction is
     * withheld -- the cached report is served instead and the
     * controller latches fail-secure. The persisted record is
     * therefore always at least as pessimistic as what left the
     * device. See requireRecordable().
     */
    bool attachLedger(BudgetLedger *ledger);

    /**
     * Commit the controller's authoritative state to the attached
     * ledger as a two-phase checkpoint (bounds journal replay length;
     * call at quiet points). False when no ledger is attached or the
     * commit was cut.
     */
    bool checkpointToLedger();

    /** True once a detected fault latched cache-only service. */
    bool faultLatched() const { return fault_latched_; }

    /** Detection/degradation counters of the hardening logic. */
    const FaultStats &faultStats() const { return fault_stats_; }

    /** Budget remaining right now, in nats (exact quanta). */
    double remainingBudget() const { return nats(pool_->remaining()); }

    /** Requests served from cache so far. */
    uint64_t cacheHits() const { return cache_hits_; }

    /** Requests served with fresh noise so far. */
    uint64_t freshReports() const { return fresh_reports_; }

    /** Total privacy loss charged since the last replenishment. */
    double spentSinceReplenish() const;

    /** The configuration in effect. */
    const BudgetControllerConfig &config() const { return config_; }

    /** The mechanism parameters in effect. */
    const FxpMechanismParams &params() const { return params_; }

    /** The noise RNG (tests assert halted requests never advance it). */
    const FxpLaplaceRng &rng() const { return rng_; }

    /** Mutable noise RNG, for wiring fault hooks and corrupting the
     *  sampler table in fault-injection experiments. */
    FxpLaplaceRng &rng() { return rng_; }

    /** Resampling draws degraded to a window-edge clamp. */
    uint64_t resampleOverflows() const { return resample_overflows_; }

  private:
    /** Latch fail-secure service and count the detection. */
    void latchFault(const char *what);

    /** Build the cache-replay response (shared by halt and faults). */
    BudgetResponse cachedResponse();

    /** fatal() unless the pool is owned: @p what is the owner's. */
    void requireOwnPool(const char *what) const;

    FxpMechanismParams params_;
    BudgetControllerConfig config_;
    SegmentTable table_;
    std::unique_ptr<BudgetPool> own_pool_;
    BudgetPool *pool_;
    FxpLaplaceRng rng_;
    int64_t lo_index_;
    int64_t hi_index_;
    std::optional<double> cache_;
    uint64_t cache_hits_ = 0;
    uint64_t fresh_reports_ = 0;
    uint64_t resample_overflows_ = 0;
    uint64_t overflows_reported_ = 0; // telemetry high-water mark

    // Hardening state.
    BudgetLedger *ledger_ = nullptr;
    const RngHealthMonitor *health_ = nullptr;
    bool fault_latched_ = false;
    uint64_t requests_since_scrub_ = 0;
    uint64_t rng_integrity_seen_ = 0;
    FaultStats fault_stats_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_BUDGET_H
