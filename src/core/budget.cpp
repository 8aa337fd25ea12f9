#include "core/budget.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/budget_ledger.h"
#include "core/privacy_loss.h"
#include "rng/health.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

/**
 * The controller's exported surface, registered once on first use
 * (function-local static) and shared by every BudgetController in
 * the process -- a deployment's Algorithm 1 aggregate. Hot-path cost
 * when telemetry is on: a handful of relaxed fetch_adds per request.
 */
struct BudgetMetrics
{
    Counter &fresh = telemetry::registry().counter(
        "ulpdp_budget_fresh_reports_total",
        "Reports released with fresh noise by BudgetController",
        "reports");
    Counter &halts = telemetry::registry().counter(
        "ulpdp_budget_halt_replays_total",
        "Requests the Algorithm 1 halt served from the cached report",
        "reports");
    Counter &fail_secure = telemetry::registry().counter(
        "ulpdp_budget_fail_secure_reports_total",
        "Requests served from cache because a fault was latched",
        "reports");
    Counter &overflows = telemetry::registry().counter(
        "ulpdp_budget_resample_overflows_total",
        "Confined draws degraded to a window-edge clamp",
        "draws");
    Counter &replenishments = telemetry::registry().counter(
        "ulpdp_budget_replenishments_total",
        "Replenishment periods that restored the budget",
        "events");
    Sum &spend = telemetry::registry().sum(
        "ulpdp_budget_spend_nats_total",
        "Privacy loss charged across all fresh reports",
        "nats");
    LatencyHistogram &samples = telemetry::registry().histogram(
        "ulpdp_budget_samples_per_request",
        "Laplace samples drawn per fresh request (resampling redraws)",
        "samples", {1, 2, 4, 8, 16, 64, 1024});
};

BudgetMetrics &
budgetMetrics()
{
    static BudgetMetrics m;
    return m;
}

/** Scale @p nats to quanta units, fatal() outside the exact range. */
double
scaledQuanta(double nats, const char *what)
{
    if (!(nats >= 0.0 && nats <= kMaxExactNats))
        fatal("%s: %g nats is outside [0, %g], the range loss quanta "
              "(2^-%d nats) represent exactly", what, nats,
              kMaxExactNats, kLossFracBits);
    return nats * (uint64_t{1} << kLossFracBits); // exact: a power of 2
}

} // anonymous namespace

int64_t
drawConfinedOutput(FxpLaplaceRng &rng, RangeControl kind, int64_t xi,
                   int64_t win_lo, int64_t win_hi,
                   uint64_t attempt_limit, uint64_t &samples,
                   uint64_t &overflows, const char *who)
{
    ULPDP_ASSERT(win_lo <= xi && xi <= win_hi);

    if (kind == RangeControl::Thresholding) {
        samples = 1;
        return std::clamp(xi + rng.sampleIndexFast(), win_lo, win_hi);
    }

    if (rng.fastPathEnabled()) {
        // Truncated direct inversion: one uniform rank over the URNG
        // states whose output lands inside the window -- the exact
        // accept-reject conditional distribution without the redraw
        // loop.
        samples = 1;
        int64_t k;
        if (rng.sampleIndexTruncated(win_lo - xi, win_hi - xi, k))
            return xi + k;
        if (!rng.integrityFault()) {
            warn("%s: resampling window [%lld, %lld] holds no URNG "
                 "state; clamping at the window edge", who,
                 static_cast<long long>(win_lo),
                 static_cast<long long>(win_hi));
            ++overflows;
            return std::clamp(xi + rng.sampleIndexFast(), win_lo,
                              win_hi);
        }
        // The truncated draw tripped an integrity check and the
        // table is now quarantined: fall through to the naive
        // accept-reject loop, which runs entirely on the log
        // datapath and never touches the suspect memory.
    }

    uint64_t attempts = 0;
    while (true) {
        ++attempts;
        int64_t yi = xi + rng.sampleIndex();
        if (yi >= win_lo && yi <= win_hi) {
            samples = attempts;
            return yi;
        }
        if (attempts >= attempt_limit) {
            // A mis-provisioned window must not hang the device:
            // report a still window-bounded value instead.
            warn("%s: no accepted sample after %llu redraws "
                 "(window [%lld, %lld]); clamping at the window edge",
                 who, static_cast<unsigned long long>(attempts),
                 static_cast<long long>(win_lo),
                 static_cast<long long>(win_hi));
            ++overflows;
            samples = attempts;
            return std::clamp(yi, win_lo, win_hi);
        }
    }
}

LossQuanta
quantaUp(double nats)
{
    return static_cast<LossQuanta>(
        std::ceil(scaledQuanta(nats, "loss charge")));
}

LossQuanta
quantaDown(double nats)
{
    return static_cast<LossQuanta>(
        std::floor(scaledQuanta(nats, "privacy budget")));
}

BudgetPool::BudgetPool(double initial_budget, uint64_t replenish_period)
    : initial_(quantaDown(initial_budget)), remaining_(initial_),
      replenish_period_(replenish_period)
{
    if (initial_ == 0)
        fatal("BudgetPool: budget must be at least one loss quantum "
              "(2^-%d nats), got %g", kLossFracBits, initial_budget);
}

bool
BudgetPool::advanceTime(uint64_t ticks)
{
    if (replenish_period_ == 0)
        return false;
    ticks_ += ticks;
    if (ticks_ < replenish_period_)
        return false;
    ticks_ %= replenish_period_;
    refill();
    return true;
}

SegmentTable::SegmentTable(const std::vector<BudgetSegment> &segments)
{
    if (segments.empty())
        fatal("SegmentTable: need at least one segment");
    for (size_t i = 0; i < segments.size(); ++i) {
        if (i > 0 && (segments[i].threshold_index <=
                          segments[i - 1].threshold_index ||
                      !(segments[i].loss >= segments[i - 1].loss)))
            fatal("SegmentTable: segments must have strictly "
                  "increasing thresholds and non-decreasing losses");
        entries_.push_back(
            {segments[i].threshold_index, quantaUp(segments[i].loss)});
    }
}

const SegmentTable::Entry &
SegmentTable::classify(int64_t ext) const
{
    for (const Entry &e : entries_) {
        if (ext <= e.threshold_index)
            return e;
    }
    // Callers clamp/resample into the outermost window before
    // classifying, so this indicates an internal bug.
    panic("SegmentTable: output extension %lld beyond outermost "
          "segment", static_cast<long long>(ext));
}

const SegmentTable::Entry *
SegmentTable::widestAffordable(const BudgetPool &pool) const
{
    // Charges are non-decreasing outward, so scan from the outermost
    // segment inward for the first the pool still covers.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (pool.covers(it->charge))
            return &*it;
    }
    return nullptr;
}

void
requireRecordable(const BudgetLedger *ledger, LossQuanta loss,
                  const char *who)
{
    if (ledger != nullptr &&
        nats(loss) > ledger->config().max_record_loss)
        fatal("%s: a spend of %g nats exceeds the ledger's "
              "max_record_loss %g (a torn record of it would be "
              "under-counted at recovery)", who, nats(loss),
              ledger->config().max_record_loss);
}

std::vector<BudgetSegment>
LossSegments::compute(const ThresholdCalculator &calc, RangeControl kind,
                      const std::vector<double> &loss_multiples)
{
    if (loss_multiples.empty())
        fatal("LossSegments: need at least one loss multiple");
    for (size_t i = 0; i < loss_multiples.size(); ++i) {
        if (!(loss_multiples[i] > 1.0))
            fatal("LossSegments: loss multiples must exceed 1, got %g",
                  loss_multiples[i]);
        if (i > 0 && !(loss_multiples[i] > loss_multiples[i - 1]))
            fatal("LossSegments: loss multiples must be strictly "
                  "increasing");
    }

    std::vector<BudgetSegment> segments;

    // Central segment: outputs inside [m, M] cost the RNG's intrinsic
    // loss.
    BudgetSegment central;
    central.threshold_index = 0;
    central.loss = centralLoss(calc, kind);
    segments.push_back(central);

    // Outer segments: widest extension whose outputs stay below each
    // level. The exact threshold search embodies precisely that.
    for (double n : loss_multiples) {
        int64_t t = calc.exactIndex(kind, n);
        if (t < 0) {
            warn("LossSegments: no window satisfies loss %g * eps; "
                 "segment skipped", n);
            continue;
        }
        BudgetSegment seg;
        seg.threshold_index = t;
        // Charge the exact loss of that window, not the level bound:
        // tighter metering at no extra hardware cost (the loss table
        // is precomputed at configuration time either way).
        seg.loss = std::max(calc.exactLossAt(kind, t), central.loss);
        if (seg.threshold_index <= segments.back().threshold_index)
            continue; // level too tight to widen the window further
        segments.push_back(seg);
    }
    return segments;
}

double
LossSegments::centralLoss(const ThresholdCalculator &calc,
                          RangeControl kind)
{
    // With extension 0 every output is inside [m, M]; for thresholding
    // the range endpoints become the clamp atoms, exactly as a
    // zero-extension device would behave.
    double loss = calc.exactLossAt(kind, 0);
    if (!std::isfinite(loss))
        fatal("LossSegments: central outputs already have unbounded "
              "loss; the RNG resolution is too coarse for this range");
    return loss;
}

BudgetController::BudgetController(const FxpMechanismParams &params,
                                   const BudgetControllerConfig &config)
    : params_(params), config_(config), table_(config.segments),
      own_pool_(std::make_unique<BudgetPool>(config.initial_budget,
                                             config.replenish_period)),
      pool_(own_pool_.get()), rng_(params.rngConfig(), params.seed)
{
    double delta = params.resolvedDelta();
    lo_index_ = static_cast<int64_t>(std::llround(params.range.lo /
                                                  delta));
    hi_index_ = static_cast<int64_t>(std::llround(params.range.hi /
                                                  delta));
}

BudgetController::BudgetController(const FxpMechanismParams &params,
                                   RangeControl kind,
                                   std::vector<BudgetSegment> segments,
                                   BudgetPool &pool)
    : BudgetController(params,
                       {nats(pool.initial()), 0, kind,
                        std::move(segments)})
{
    own_pool_.reset();
    pool_ = &pool;
}

BudgetResponse
BudgetController::request(double x)
{
    // Fail-secure gate, evaluated before Algorithm 1 even looks at
    // the budget: a latched fault, a tripped URNG health test, or a
    // failed periodic table scrub all mean the noise state cannot be
    // trusted, and an untrusted draw must never be released. The
    // cache is a function of already-released data, so replaying it
    // costs zero additional privacy regardless of how broken the
    // noise datapath is.
    if (config_.fail_secure) {
        if (fault_latched_)
            return serveCached();
        if (health_ != nullptr && health_->alarmed()) {
            ++fault_stats_.urng_health_alarms;
            latchFault("URNG continuous health test tripped");
            return serveCached();
        }
        if (config_.table_scrub_period > 0 &&
            ++requests_since_scrub_ >= config_.table_scrub_period) {
            requests_since_scrub_ = 0;
            if (!rng_.verifyTableIntegrity()) {
                ++fault_stats_.table_crc_failures;
                // The scrub already quarantined the table inside the
                // RNG; fold its detection into ours so the post-draw
                // check below does not double count it.
                rng_integrity_seen_ = rng_.integrityDetections();
                latchFault("sampler table CRC scrub failed");
                return serveCached();
            }
        }
    }

    // Algorithm 1 orders halt-then-serve: whether this request can be
    // afforded is decided from the budget alone, *before* any noise
    // is drawn. A halted request must not advance the URNG or burn
    // sampling energy -- and because the decision depends only on
    // already-public state (the budget is a function of previously
    // released outputs), the halt event itself leaks nothing about x.
    const SegmentTable::Entry *afford = table_.widestAffordable(*pool_);
    if (afford == nullptr) {
        // Replay the cache. Before any fresh report exists, the range
        // midpoint is returned -- a constant, so it carries no
        // information about x.
        if (telemetry::enabled()) {
            budgetMetrics().halts.inc();
            telemetry::event(EventKind::HaltReplay,
                             fresh_reports_ + cache_hits_, 0.0);
        }
        return cachedResponse();
    }

    double delta = params_.resolvedDelta();
    int64_t xi = static_cast<int64_t>(std::llround(x / delta));
    xi = std::clamp(xi, lo_index_, hi_index_);

    // Confine the output to the widest window the budget can pay
    // for: every reachable segment is then affordable by
    // construction, so the charge below can never fail.
    int64_t outer = afford->threshold_index;
    int64_t win_lo = lo_index_ - outer;
    int64_t win_hi = hi_index_ + outer;

    uint64_t samples = 0;
    int64_t yi = drawConfinedOutput(rng_, config_.kind, xi, win_lo,
                                    win_hi,
                                    config_.resample_attempt_limit,
                                    samples, resample_overflows_,
                                    "BudgetController");
    fault_stats_.resample_overflows = resample_overflows_;

    // A lookup-time integrity fault during *this* draw means the
    // value in hand passed through suspect table state at least once
    // (the RNG recomputes through the log datapath, but fail-secure
    // hardware discards the whole transaction rather than reason
    // about which intermediate was poisoned).
    if (rng_.integrityDetections() > rng_integrity_seen_) {
        fault_stats_.table_bounds_faults +=
            rng_.integrityDetections() - rng_integrity_seen_;
        rng_integrity_seen_ = rng_.integrityDetections();
        if (config_.fail_secure) {
            latchFault("sampler table lookup integrity fault");
            return serveCached();
        }
    }

    const LossQuanta charge = table_.classify(
        std::max({lo_index_ - yi, yi - hi_index_, int64_t{0}})).charge;
    const double loss = nats(charge);

    // Durability gate: the spend must be on flash before the value
    // leaves the device. A failed append means the power is dying (or
    // the ledger is halted) -- withhold the fresh draw and serve the
    // cache, which is already-released data. The draw consumed RNG
    // state but released nothing, so no privacy was spent.
    if (ledger_ != nullptr && !ledger_->journalSpend(loss)) {
        ++fault_stats_.ledger_append_failures;
        latchFault("ledger append failed before output release");
        return serveCached();
    }

    bool charged = pool_->tryCharge(charge);
    ULPDP_ASSERT(charged);
    BudgetResponse resp;
    resp.samples_drawn = samples;
    resp.value = static_cast<double>(yi) * delta;
    resp.charged = loss;
    cache_ = resp.value;
    ++fresh_reports_;
    if (telemetry::enabled()) {
        BudgetMetrics &m = budgetMetrics();
        m.fresh.inc();
        m.spend.add(loss);
        m.samples.observe(static_cast<double>(samples));
        if (resample_overflows_ > overflows_reported_) {
            m.overflows.inc(resample_overflows_ -
                            overflows_reported_);
            telemetry::event(EventKind::ResampleOverflow,
                             fresh_reports_ + cache_hits_,
                             static_cast<double>(samples));
        }
        telemetry::event(EventKind::BudgetSpend,
                         fresh_reports_ + cache_hits_, loss);
    }
    overflows_reported_ = resample_overflows_;
    return resp;
}

BudgetResponse
BudgetController::cachedResponse()
{
    BudgetResponse resp;
    resp.value = cache_.value_or(params_.range.mid());
    resp.from_cache = true;
    resp.charged = 0.0;
    resp.samples_drawn = 0;
    ++cache_hits_;
    return resp;
}

BudgetResponse
BudgetController::serveCached()
{
    ++fault_stats_.fail_secure_reports;
    if (telemetry::enabled())
        budgetMetrics().fail_secure.inc();
    return cachedResponse();
}

void
BudgetController::latchFault(const char *what)
{
    if (!fault_latched_) {
        warn("BudgetController: %s; latching cache-only service",
             what);
        telemetry::event(
            EventKind::FaultLatch, fresh_reports_ + cache_hits_,
            static_cast<double>(fault_stats_.detections()));
    }
    fault_latched_ = true;
}

void
BudgetController::requireOwnPool(const char *what) const
{
    if (own_pool_ == nullptr)
        fatal("BudgetController: %s on a shared BudgetPool; time and "
              "durability belong to the pool's owner", what);
}

bool
BudgetController::attachLedger(BudgetLedger *ledger)
{
    requireOwnPool("attachLedger");
    ULPDP_ASSERT(ledger != nullptr);
    requireRecordable(ledger, table_.outermost().charge,
                      "BudgetController");
    ledger_ = ledger;
    if (ledger_->halted()) {
        ++fault_stats_.checkpoint_restore_failures;
        warn("BudgetController: ledger unrecoverable; restoring to "
             "zero remaining budget");
        pool_->restoreAtMost(0, 0);
        cache_.reset();
        return false;
    }
    // min() with the live value: a stale record (power cut after a
    // spend it never recorded) can only *reduce* spendable budget,
    // never hand back what was already used.
    pool_->restoreAtMost(quantaDown(ledger_->remaining()));
    if (ledger_->cache().has_value())
        cache_ = ledger_->cache();
    return true;
}

bool
BudgetController::checkpointToLedger()
{
    if (ledger_ == nullptr)
        return false;
    return ledger_->commitCheckpoint(nats(pool_->remaining()), cache_);
}

void
BudgetController::advanceTime(uint64_t ticks)
{
    requireOwnPool("advanceTime");
    if (!pool_->advanceTime(ticks))
        return;
    // The refill is a policy event, not a spend: record it as a
    // checkpoint so recovery resumes from the replenished state
    // instead of replaying pre-refill spends against it.
    if (ledger_ != nullptr && !ledger_->halted())
        checkpointToLedger();
    if (telemetry::enabled()) {
        budgetMetrics().replenishments.inc();
        telemetry::event(EventKind::Replenish,
                         fresh_reports_ + cache_hits_,
                         nats(pool_->remaining()));
    }
}

double
BudgetController::spentSinceReplenish() const
{
    return nats(pool_->initial() - pool_->remaining());
}

} // namespace ulpdp
