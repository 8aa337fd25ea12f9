/**
 * @file
 * Ledger phase: the power-loss storm of bench_ext_fault_campaign
 * --ledger-storm (4 x 256 B NOR part, the cut swept over every record
 * program offset plus mid-erase cuts, 12 spends per cycle, a
 * checkpoint every 5th cycle), run in passes of a fixed cycle count.
 * Every BudgetLedger::mount(), journalSpend() and commitCheckpoint()
 * is timed around the public call; each pass is one repetition of
 * the latency logs (see LatencyLog).
 *
 * The traced run puts a forwarding FlashDevice between the ledger and
 * the NOR model; it counts (and times) every device call so reads per
 * mount, programs per spend and device busy time can be attributed.
 * A pass makes ~22 000 calls, so the span record holds one span per
 * pass, not one per call.
 */

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "core/budget_ledger.h"
#include "phases.h"
#include "sim/fault_injector.h"
#include "sim/nor_flash.h"
#include "trace.h"

namespace perfbench {

using namespace ulpdp;

namespace {

constexpr double kSpend = 0.01;
constexpr int kSpendsPerCycle = 12;

FlashGeometry
stormGeometry()
{
    FlashGeometry g;
    g.block_count = 4;
    g.block_size = 256;
    return g;
}

BudgetLedgerConfig
stormLedgerConfig()
{
    BudgetLedgerConfig c;
    c.initial_budget = 5.0;
    c.max_record_loss = 1.0;
    return c;
}

/** splitmix64 finalizer (the storm digest of bench_ext_fault_campaign). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Forwarding device: counts and times every call. */
class CountingFlash : public FlashDevice
{
  public:
    void bind(FlashDevice *inner) { inner_ = inner; }

    const FlashGeometry &geometry() const override
    {
        return inner_->geometry();
    }

    void read(uint64_t addr, void *dst, size_t len) const override
    {
        ++reads;
        read_bytes += len;
        Clock::time_point t0 = Clock::now();
        inner_->read(addr, dst, len);
        busy_s += secondsSince(t0);
    }

    bool program(uint64_t addr, const void *src, size_t len) override
    {
        ++programs;
        Clock::time_point t0 = Clock::now();
        bool ok = inner_->program(addr, src, len);
        busy_s += secondsSince(t0);
        return ok;
    }

    bool erase(uint32_t block) override
    {
        ++erases;
        Clock::time_point t0 = Clock::now();
        bool ok = inner_->erase(block);
        busy_s += secondsSince(t0);
        return ok;
    }

    uint64_t eraseCount(uint32_t block) const override
    {
        return inner_->eraseCount(block);
    }
    bool alive() const override { return inner_->alive(); }
    void powerCycle() override { inner_->powerCycle(); }

    mutable uint64_t reads = 0;
    mutable uint64_t read_bytes = 0;
    uint64_t programs = 0;
    uint64_t erases = 0;
    mutable double busy_s = 0.0;

  private:
    FlashDevice *inner_ = nullptr;
};

/** Latencies of every call of one kind, over a run's passes. */
struct StormLatencies
{
    LatencyLog mount_us;
    LatencyLog spend_us;
    LatencyLog checkpoint_us;
};

/** Outcome of one storm pass. */
struct StormPass
{
    uint64_t mounts = 0;
    uint64_t unrecoverable = 0;
    uint64_t resurrections = 0;
    uint64_t spends = 0;
    uint64_t journal_bytes = 0;
    uint64_t torn = 0;
    uint64_t cuts = 0;
    double stranded_nats = 0.0;
    uint64_t fingerprint = 0;
    double wall_s = 0.0;
    /** Device calls inside mount() and inside journalSpend(). */
    uint64_t mount_reads = 0;
    uint64_t mount_read_bytes = 0;
    uint64_t spend_programs = 0;
    uint64_t spend_erases = 0;
    double busy_s = 0.0;
};

/**
 * One storm pass: the --ledger-storm protocol verbatim (same cut
 * schedule, same halt handling, same digest), with every call timed
 * into @p lat. @p wrap routes the ledger through a CountingFlash.
 */
StormPass
stormPass(uint64_t seed, uint64_t cycles, bool wrap, StormLatencies &lat)
{
    const FlashGeometry geom = stormGeometry();
    const BudgetLedgerConfig lcfg = stormLedgerConfig();

    FaultCampaignConfig fc;
    fc.seed = seed;
    FaultInjector inj(fc);
    auto flash = std::make_unique<NorFlashModel>(geom);
    flash->attachFaultHook(&inj);
    CountingFlash counter;
    counter.bind(flash.get());
    FlashDevice *dev = wrap ? static_cast<FlashDevice *>(&counter)
                            : flash.get();

    StormPass r;
    uint64_t cycles_survived = 0, recoveries = 0, duplicates = 0;
    uint64_t checkpoints = 0, rotations = 0, max_erase = 0, wear = 0;
    double released = 0.0;
    uint64_t final_remaining_bits = 0;
    Span span("ledger.storm_pass");
    Clock::time_point pass_t0 = Clock::now();

    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
        BudgetLedger ledger(*dev, lcfg);
        uint64_t reads0 = counter.reads, bytes0 = counter.read_bytes;
        bool ok = timed(lat.mount_us, [&] { return ledger.mount(); });
        ++r.mounts;
        r.mount_reads += counter.reads - reads0;
        r.mount_read_bytes += counter.read_bytes - bytes0;

        const LedgerStats &ls = ledger.stats();
        recoveries += ls.recoveries;
        r.torn += ls.torn_records;
        duplicates += ls.duplicate_records;

        const double true_remaining =
            std::max(0.0, lcfg.initial_budget - released);
        if (!ok) {
            if (ledger.halted()) {
                ++r.unrecoverable;
                if (ledger.remaining() != 0.0)
                    ++r.resurrections;
                r.stranded_nats += true_remaining;
                flash = std::make_unique<NorFlashModel>(geom);
                flash->attachFaultHook(&inj);
                counter.bind(flash.get());
                if (!wrap)
                    dev = flash.get();
                released = 0.0;
            } else {
                flash->powerCycle();
            }
            continue;
        }
        ++cycles_survived;
        if (ledger.remaining() > true_remaining + 1e-6)
            ++r.resurrections;
        r.stranded_nats +=
            std::max(0.0, true_remaining - ledger.remaining());

        if (cycle % 7 == 3)
            inj.armEraseLossAt(cycle % geom.block_size);
        else
            inj.armProgramLossAt(cycle % BudgetLedger::kBodySize);

        bool cut_fired = false;
        for (int s = 0; s < kSpendsPerCycle && !cut_fired; ++s) {
            uint64_t programs0 = counter.programs;
            uint64_t erases0 = counter.erases;
            bool spent = timed(lat.spend_us,
                               [&] { return ledger.journalSpend(kSpend); });
            r.spend_programs += counter.programs - programs0;
            r.spend_erases += counter.erases - erases0;
            if (spent)
                released += kSpend;
            else
                cut_fired = true;
            if (cycle % 5 == 4 && !cut_fired) {
                cut_fired = !timed(lat.checkpoint_us, [&] {
                    return ledger.commitCheckpoint(ledger.remaining(),
                                                   ledger.cache());
                });
            }
        }
        r.spends += ledger.stats().spends_journaled;
        checkpoints += ledger.stats().checkpoints_committed;
        rotations += ledger.stats().rotations;
        r.journal_bytes += ledger.stats().journal_bytes_written;
        max_erase = std::max(max_erase,
                             static_cast<uint64_t>(flash->maxEraseCount()));
        wear = std::max(wear, static_cast<uint64_t>(ledger.wearSpread()));
        std::memcpy(&final_remaining_bits, &released, sizeof released);
        if (!flash->alive())
            flash->powerCycle();
    }
    r.wall_s = secondsSince(pass_t0);
    r.busy_s = counter.busy_s;
    r.cuts = inj.stats().flash_program_losses +
             inj.stats().flash_erase_losses;

    // The digest of bench_ext_fault_campaign --ledger-storm.
    uint64_t acc = 0x1ed6e45708aULL;
    for (uint64_t v :
         {cycles_survived, recoveries, r.unrecoverable, r.torn, duplicates,
          r.spends, checkpoints, rotations, r.journal_bytes,
          inj.stats().flash_program_losses,
          inj.stats().flash_erase_losses, max_erase, wear,
          r.resurrections, final_remaining_bits})
        acc = mix64(acc ^ v);
    r.fingerprint = acc;
    return r;
}

} // namespace

/** Set-up (a formatted, mounted part) and the accumulated samples. */
struct LedgerPhase::State
{
    NorFlashModel flash{stormGeometry()};
    BudgetLedger ledger{flash, stormLedgerConfig()};

    /** Every call of the untraced and of the traced passes. */
    StormLatencies latencies, traced_latencies;
    std::vector<double> walls, traced_walls;
    /** The first pass (every later pass must reproduce it). */
    StormPass first;
    bool have_first = false;
    /** Device-call counts summed over the traced passes. */
    StormPass traced;
};

LedgerPhase::LedgerPhase(uint64_t cycles, uint64_t seed, std::string tag)
    : cycles_(cycles), seed_(seed), tag_(std::move(tag)),
      state_(std::make_unique<State>())
{
    if (!state_->ledger.mount())
        fatal("perfbench: formatting a blank part failed");
}

LedgerPhase::~LedgerPhase() = default;

void
LedgerPhase::measure(double seconds, Results &out)
{
    State &st = *state_;
    const bool traced = Tracer::instance().enabled();
    setLoggingEnabled(false); // every torn mount warns
    Clock::time_point t0 = Clock::now();
    do {
        StormLatencies &lat = traced ? st.traced_latencies : st.latencies;
        StormPass p = stormPass(seed_, cycles_, traced, lat);
        lat.mount_us.endRepetition();
        lat.spend_us.endRepetition();
        lat.checkpoint_us.endRepetition();
        bool ok = p.resurrections == 0;
        if (!st.have_first) {
            st.first = p;
            st.have_first = true;
            out.observe(tag_ + ".fingerprint", hex64(p.fingerprint));
            out.observe(tag_ + ".budget_resurrections",
                        std::to_string(p.resurrections));
        } else if (p.fingerprint != st.first.fingerprint) {
            ok = false;
            out.fail(tag_ + ": storm fingerprint moved between passes");
        }
        if (p.resurrections != 0)
            out.fail(tag_ + ": budget resurrected after a power cut");
        out.attempt(1, ok ? 0 : 1);
        if (traced) {
            st.traced_walls.push_back(p.wall_s);
            st.traced.mount_reads += p.mount_reads;
            st.traced.mount_read_bytes += p.mount_read_bytes;
            st.traced.spend_programs += p.spend_programs;
            st.traced.spend_erases += p.spend_erases;
            st.traced.mounts += p.mounts;
            st.traced.spends += p.spends;
            st.traced.busy_s += p.busy_s;
            st.traced.wall_s += p.wall_s;
        } else {
            st.walls.push_back(p.wall_s);
        }
    } while (secondsSince(t0) < seconds);
    setLoggingEnabled(true);
}

void
LedgerPhase::report(bool trace, Results &out)
{
    const State &st = *state_;
    const StormPass &first = st.first;
    if (trace) {
        const double mounts = static_cast<double>(st.traced.mounts);
        const double spends = static_cast<double>(st.traced.spends);
        const double cuts = static_cast<double>(first.cuts);
        out.metric("trace.overhead_pct",
                   (mean(st.traced_walls) / mean(st.walls) - 1.0) * 100.0,
                   "%");
        out.metric("flash.reads_per_mount",
                   static_cast<double>(st.traced.mount_reads) / mounts,
                   "count");
        out.metric("flash.read_bytes_per_mount",
                   static_cast<double>(st.traced.mount_read_bytes) / mounts,
                   "B");
        out.metric("flash.programs_per_spend",
                   static_cast<double>(st.traced.spend_programs) / spends,
                   "count");
        out.metric("flash.erases_per_1k_spends",
                   static_cast<double>(st.traced.spend_erases) * 1e3 /
                       spends,
                   "count");
        out.metric("flash.busy_frac", st.traced.busy_s / st.traced.wall_s,
                   "fraction");
        out.metric("ledger.checkpoint_us_p50",
                   st.traced_latencies.checkpoint_us.meanMedianUs(), "us");
        out.metric("ledger.torn_per_1k_cuts",
                   static_cast<double>(first.torn) * 1e3 / cuts, "count");
        out.metric("ledger.stranded_nats_per_1k_cuts",
                   first.stranded_nats * 1e3 / cuts, "nats");
    }

    const StormLatencies &lat = st.latencies;
    out.metric("mount_us_p50", lat.mount_us.meanMedianUs(), "us");
    out.metric("mount_us_p99", lat.mount_us.pooledUs(0.99), "us");
    out.metric("spend_us_p50", lat.spend_us.meanMedianUs(), "us");
    out.metric("spend_us_p99", lat.spend_us.pooledUs(0.99), "us");
    out.repetitions(tag_, "pass_s", st.walls);
    out.metric("flash_bytes_per_spend",
               static_cast<double>(first.journal_bytes) /
                   static_cast<double>(first.spends),
               "B");
    out.metric("op_fail_ratio",
               static_cast<double>(first.unrecoverable) /
                   static_cast<double>(first.mounts),
               "ratio");
    out.observe(tag_ + ".op_fail_base", "unrecoverable mounts per mount");
    out.observe(tag_ + ".passes",
                std::to_string(st.walls.size() + st.traced_walls.size()));
    out.observe(tag_ + ".mount_samples",
                std::to_string(lat.mount_us.count()));
    out.observe(tag_ + ".spend_samples",
                std::to_string(lat.spend_us.count()));
}

} // namespace perfbench
