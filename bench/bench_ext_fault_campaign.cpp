/**
 * @file
 * Extension: fault-injection campaign report. Runs seeded 10k-
 * transaction chaos campaigns against the budget-controlled device
 * with every fault site firing (URNG bit flips and stuck-at faults,
 * sampler-table SEUs, sensor-bus NACK/timeout/corruption, power loss
 * between transactions and mid-program on the flash budget ledger)
 * and tabulates injected vs detected faults and the empirical
 * worst-case privacy loss of every released report, computed by
 * whole-support enumeration of the output model.
 * The same campaign with hardening disabled shows the invariant
 * violations the hardening exists to prevent.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/budget.h"
#include "core/budget_ledger.h"
#include "core/output_model.h"
#include "core/threshold_calc.h"
#include "rng/health.h"
#include "rng/laplace_table.h"
#include "sim/fault_injector.h"
#include "sim/nor_flash.h"
#include "sim/sensor_bus.h"

namespace {

using namespace ulpdp;

struct CampaignReport
{
    uint64_t injected = 0;
    uint64_t detected = 0;
    uint64_t fresh = 0;
    uint64_t cached = 0;
    uint64_t boots = 1;
    uint64_t violations = 0;
    double worst_loss = 0.0;
    double charged = 0.0;
    double spend_cap = 0.0;
};

CampaignReport
runCampaign(uint64_t seed, bool hardened, uint64_t transactions)
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    p.seed = seed;
    p.rng_integrity_checks = hardened;

    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = 20.0;
    cfg.replenish_period = 1000;
    cfg.kind = RangeControl::Resampling;
    cfg.segments =
        LossSegments::compute(calc, cfg.kind, {1.5, 2.0, 3.0});
    cfg.resample_attempt_limit = 4096;
    cfg.fail_secure = hardened;
    cfg.table_scrub_period = hardened ? 256 : 0;

    int64_t outer = cfg.segments.back().threshold_index;
    ResamplingOutputModel model(calc.pmf(), calc.span(), outer);
    double bound = 3.0 * p.epsilon + 1e-9;
    double delta = p.resolvedDelta();
    std::vector<double> loss;
    std::vector<double> row(static_cast<size_t>(model.span()) + 1);
    for (int64_t j = model.outputLo(); j <= model.outputHi(); ++j) {
        model.row(j, row.data());
        double mx = *std::max_element(row.begin(), row.end());
        double mn = *std::min_element(row.begin(), row.end());
        loss.push_back(mn > 0.0
                           ? std::log(mx / mn)
                           : std::numeric_limits<double>::infinity());
    }

    FaultCampaignConfig fc;
    fc.seed = seed * 7919 + 1;
    fc.urng_flip_rate = 0.01;
    fc.urng_stuck_rate = 0.0002;
    fc.table_seu_rate = 0.002;
    fc.bus_nack_rate = 0.02;
    fc.bus_timeout_rate = 0.01;
    fc.bus_corrupt_rate = 0.02;
    fc.power_loss_rate = 0.001;
    fc.flash_program_loss_rate = 0.005;
    FaultInjector injector(fc);

    // The hardened device journals its budget to a NOR part that
    // persists across boots; a cut program is a power loss.
    FlashGeometry geom;
    geom.block_count = 4;
    geom.block_size = 256;
    NorFlashModel flash(geom);
    flash.attachFaultHook(&injector);
    BudgetLedgerConfig lcfg;
    lcfg.initial_budget = cfg.initial_budget;
    lcfg.max_record_loss = 2.0; // >= the outermost segment charge
    BudgetLedger ledger(flash, lcfg);

    SensorBus bus(16e6, 400e3);
    RngHealthMonitor health;
    CampaignReport report;
    FaultStats device;

    auto boot = [&](uint64_t n) {
        FxpMechanismParams bp = p;
        bp.seed = seed + 1000 * n;
        auto ctrl = std::make_unique<BudgetController>(bp, cfg);
        health.reset();
        ctrl->rng().urng().setFaultHook(&injector);
        if (hardened) {
            ctrl->rng().urng().attachHealthMonitor(&health);
            ctrl->attachHealthMonitor(&health);
            // Remount until the mount itself survives (power can die
            // inside a format) or the journal halts fail-secure.
            flash.powerCycle();
            while (!ledger.mount() && !ledger.halted())
                flash.powerCycle();
            ctrl->attachLedger(&ledger);
        }
        return ctrl;
    };

    auto ctrl = boot(0);
    uint64_t refills_possible = 1;
    uint64_t ticks_accumulated = 0;
    // Budget the released reports left since the device's last
    // refill: no remount may restore more.
    double true_remaining = cfg.initial_budget;

    for (uint64_t t = 0; t < transactions; ++t) {
        injector.tick();

        // Unhardened silicon keeps its budget in volatile registers
        // and reboots at full budget; the hardened one remounts its
        // ledger, which must never come back richer than the truth.
        bool power_lost = injector.powerLossPending();
        power_lost |= !flash.alive();
        if (power_lost) {
            device += ctrl->faultStats();
            ++report.boots;
            ctrl = boot(report.boots);
            if (hardened && ctrl->remainingBudget() > true_remaining)
                ++report.violations; // budget resurrected by a reboot
        }

        LaplaceSampleTable *table = ctrl->rng().mutableTable();
        size_t seu_byte = 0;
        int seu_bit = 0;
        if (injector.tableSeuPending(
                seu_byte, seu_bit,
                table != nullptr ? table->faultableBytes() : 0)) {
            table->flipBit(seu_byte, seu_bit);
        }

        double x = static_cast<double>(t % 101) * 0.1;
        int64_t wire = std::llround(x / 10.0 * 8191.0);
        FaultStats bus_stats;
        BusReadResult read =
            bus.readSample(13, wire, &injector, {}, &bus_stats);
        device += bus_stats;

        BudgetResponse resp;
        try {
            if (read.ok) {
                double x_used = std::clamp(
                    static_cast<double>(read.value) / 8191.0 * 10.0,
                    0.0, 10.0);
                resp = ctrl->request(x_used);
            } else {
                resp = ctrl->serveCached();
            }
        } catch (const PanicError &) {
            ++report.violations; // escaped the analysed support
            continue;
        }
        true_remaining -= resp.charged;

        // Device time advances; one refill is legal per
        // replenish_period ticks. The unhardened device additionally
        // replays its budget on every reboot, which the spend cap
        // below exposes.
        const double before = ctrl->remainingBudget();
        ctrl->advanceTime(10);
        if (ctrl->remainingBudget() > before)
            true_remaining = ctrl->remainingBudget(); // refilled
        ticks_accumulated += 10;
        if (ticks_accumulated >= cfg.replenish_period) {
            ticks_accumulated -= cfg.replenish_period;
            ++refills_possible;
        }

        if (resp.from_cache) {
            ++report.cached;
            continue;
        }
        ++report.fresh;
        report.charged += resp.charged;
        int64_t j = std::llround(resp.value / delta);
        if (j < model.outputLo() || j > model.outputHi()) {
            ++report.violations;
            continue;
        }
        double l = loss[static_cast<size_t>(j - model.outputLo())];
        report.worst_loss = std::max(report.worst_loss, l);
        if (!(l <= bound))
            ++report.violations;
    }

    report.spend_cap =
        static_cast<double>(refills_possible) * cfg.initial_budget;
    if (report.charged > report.spend_cap + 1e-6)
        ++report.violations; // budget replayed across power loss

    device += ctrl->faultStats();
    report.injected = injector.stats().total();
    report.detected = device.detections();
    return report;
}

// ---------------------------------------------------------------------
// --ledger-storm: power-loss storm against the durable budget ledger.
// ---------------------------------------------------------------------

/** splitmix64 finalizer: deterministic digest of the storm outcome. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

struct StormReport
{
    uint64_t cycles = 0;
    uint64_t cycles_survived = 0; //!< mounts that recovered a journal
    uint64_t recoveries = 0;
    uint64_t unrecoverable_halts = 0;
    uint64_t torn_records = 0;
    uint64_t duplicate_records = 0;
    uint64_t spends_journaled = 0;
    uint64_t checkpoints_committed = 0;
    uint64_t rotations = 0;
    uint64_t journal_bytes = 0;
    uint64_t program_losses = 0;
    uint64_t erase_losses = 0;
    uint64_t max_erase_count = 0;
    uint64_t wear_spread = 0;
    uint64_t budget_resurrections = 0; //!< must stay exactly 0
    double ns_per_recovery = 0.0;
    double journal_bytes_per_spend = 0.0;
    uint64_t fingerprint = 0;
};

/**
 * The test-suite storm (LedgerStorm.PowerLossStormNeverResurrectsBudget)
 * at bench scale: crash/recover cycles with the power cut swept over
 * every distinct program offset of a record, counting how the ledger
 * holds up (torn records charged, recoveries, wear) and timing the
 * recovery scan. Resurrection -- a recovered remaining budget above
 * what the released spends allow -- is counted, not asserted: the gate
 * is this binary's exit status plus the --require-zero check in
 * tools/check_bench_regression.py.
 */
StormReport
runLedgerStorm(uint64_t seed, uint64_t cycles)
{
    FlashGeometry geom;
    geom.block_count = 4;
    geom.block_size = 256;
    BudgetLedgerConfig lcfg;
    lcfg.initial_budget = 5.0;
    lcfg.max_record_loss = 1.0;
    constexpr double kSpend = 0.01;

    FaultCampaignConfig fc;
    fc.seed = seed;
    FaultInjector inj(fc);
    auto flash = std::make_unique<NorFlashModel>(geom);
    flash->attachFaultHook(&inj);

    StormReport r;
    r.cycles = cycles;
    double released = 0.0;
    double mount_seconds = 0.0;
    uint64_t final_remaining_bits = 0;

    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
        BudgetLedger ledger(*flash, lcfg);
        auto c0 = std::chrono::steady_clock::now();
        bool ok = ledger.mount();
        auto c1 = std::chrono::steady_clock::now();
        mount_seconds += std::chrono::duration<double>(c1 - c0).count();

        const LedgerStats &ls = ledger.stats();
        r.recoveries += ls.recoveries;
        r.torn_records += ls.torn_records;
        r.duplicate_records += ls.duplicate_records;

        if (!ok) {
            if (ledger.halted()) {
                ++r.unrecoverable_halts;
                if (ledger.remaining() != 0.0)
                    ++r.budget_resurrections; // halt must strand at 0
                flash = std::make_unique<NorFlashModel>(geom);
                flash->attachFaultHook(&inj);
                released = 0.0;
            } else {
                flash->powerCycle(); // died inside mount; retry
            }
            continue;
        }
        ++r.cycles_survived;

        double true_remaining =
            std::max(0.0, lcfg.initial_budget - released);
        if (ledger.remaining() > true_remaining + 1e-6)
            ++r.budget_resurrections;

        if (cycle % 7 == 3)
            inj.armEraseLossAt(cycle % geom.block_size);
        else
            inj.armProgramLossAt(cycle % BudgetLedger::kBodySize);

        bool cut_fired = false;
        for (int s = 0; s < 12 && !cut_fired; ++s) {
            if (ledger.journalSpend(kSpend))
                released += kSpend;
            else
                cut_fired = true;
            if (cycle % 5 == 4 && !cut_fired &&
                !ledger.commitCheckpoint(ledger.remaining(),
                                         ledger.cache()))
                cut_fired = true;
        }
        r.spends_journaled += ledger.stats().spends_journaled;
        r.checkpoints_committed += ledger.stats().checkpoints_committed;
        r.rotations += ledger.stats().rotations;
        r.journal_bytes += ledger.stats().journal_bytes_written;
        r.max_erase_count =
            std::max(r.max_erase_count,
                     static_cast<uint64_t>(flash->maxEraseCount()));
        r.wear_spread = std::max(
            r.wear_spread, static_cast<uint64_t>(ledger.wearSpread()));
        std::memcpy(&final_remaining_bits, &released, sizeof released);
        if (!flash->alive())
            flash->powerCycle();
    }
    r.program_losses = inj.stats().flash_program_losses;
    r.erase_losses = inj.stats().flash_erase_losses;
    r.ns_per_recovery = r.cycles_survived > 0
        ? mount_seconds * 1e9 / static_cast<double>(r.cycles_survived)
        : 0.0;
    r.journal_bytes_per_spend = r.spends_journaled > 0
        ? static_cast<double>(r.journal_bytes) /
              static_cast<double>(r.spends_journaled)
        : 0.0;

    // Deterministic digest of everything the seed determines (timing
    // excluded): a storm that tears, recovers or halts differently
    // moves the fingerprint.
    uint64_t acc = 0x1ed6e45708aULL;
    for (uint64_t v :
         {r.cycles_survived, r.recoveries, r.unrecoverable_halts,
          r.torn_records, r.duplicate_records, r.spends_journaled,
          r.checkpoints_committed, r.rotations, r.journal_bytes,
          r.program_losses, r.erase_losses, r.max_erase_count,
          r.wear_spread, r.budget_resurrections, final_remaining_bits})
        acc = mix64(acc ^ v);
    r.fingerprint = acc;
    return r;
}

int
runLedgerStormMain(const std::string &json_path)
{
    bench::banner(
        "Extension: durable-ledger power-loss storm",
        "10k crash/recover cycles against the NOR-flash budget "
        "ledger; the power cut sweeps every distinct program offset "
        "of a journal record plus mid-erase cuts. Resurrected budget "
        "anywhere fails this binary.");

    setLoggingEnabled(false); // every torn mount warns
    StormReport r = runLedgerStorm(0x51ED5, 10000);
    setLoggingEnabled(true);

    TextTable table;
    table.setHeader({"metric", "value"});
    auto row = [&](const char *k, uint64_t v) {
        table.addRow({k, std::to_string(v)});
    };
    row("cycles", r.cycles);
    row("cycles survived", r.cycles_survived);
    row("recoveries", r.recoveries);
    row("unrecoverable halts", r.unrecoverable_halts);
    row("torn records charged", r.torn_records);
    row("duplicates absorbed", r.duplicate_records);
    row("spends journaled", r.spends_journaled);
    row("rotations", r.rotations);
    row("program cuts", r.program_losses);
    row("erase cuts", r.erase_losses);
    row("max erase count", r.max_erase_count);
    row("worst wear spread", r.wear_spread);
    row("budget resurrections", r.budget_resurrections);
    table.addRow({"ns per recovery",
                  TextTable::fmt(r.ns_per_recovery, 0)});
    table.addRow({"journal bytes/spend",
                  TextTable::fmt(r.journal_bytes_per_spend, 1)});
    table.print(std::cout);

    bench::JsonWriter json;
    json.beginObject();
    json.field("bench", "ledger storm");
    json.field("cycles", r.cycles);
    json.field("cycles_survived", r.cycles_survived);
    json.field("recoveries", r.recoveries);
    json.field("unrecoverable_halts", r.unrecoverable_halts);
    json.field("torn_records", r.torn_records);
    json.field("duplicate_records", r.duplicate_records);
    json.field("spends_journaled", r.spends_journaled);
    json.field("checkpoints_committed", r.checkpoints_committed);
    json.field("rotations", r.rotations);
    json.field("journal_bytes", r.journal_bytes);
    json.field("program_losses", r.program_losses);
    json.field("erase_losses", r.erase_losses);
    json.field("max_erase_count", r.max_erase_count);
    json.field("wear_spread", r.wear_spread);
    json.field("budget_resurrections", r.budget_resurrections);
    json.field("ns_per_recovery", r.ns_per_recovery);
    json.field("journal_bytes_per_spend", r.journal_bytes_per_spend);
    json.field("fingerprint", r.fingerprint);
    json.endObject();
    if (json.writeFile(json_path))
        std::printf("\nJSON written to %s\n", json_path.c_str());

    std::printf("\nReading: across %llu crash/recover cycles the "
                "recovered ledger was never richer than the spends it "
                "released (%llu resurrections); every ambiguity was "
                "charged (%llu torn records) and %llu unrecoverable "
                "journals stranded at zero remaining budget.\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.budget_resurrections),
                static_cast<unsigned long long>(r.torn_records),
                static_cast<unsigned long long>(r.unrecoverable_halts));
    return r.budget_resurrections == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace ulpdp;

    bool ledger_storm = false;
    for (int i = 1; i < argc; ++i)
        ledger_storm |= std::string(argv[i]) == "--ledger-storm";
    if (ledger_storm) {
        std::string storm_json = bench::jsonPathFromArgs(argc, argv);
        if (storm_json.empty())
            storm_json = "BENCH_fault.json";
        return runLedgerStormMain(storm_json);
    }

    bench::banner(
        "Extension: fault-injection campaign",
        "10k transactions per seed; URNG/table/bus/power/timer fault "
        "sites all firing; empirical worst-case loss by whole-support "
        "enumeration against the 3*eps bound (eps = 0.5).");

    std::string json_path = bench::jsonPathFromArgs(argc, argv);
    if (json_path.empty())
        json_path = "BENCH_fault_campaign.json";

    setLoggingEnabled(false); // the campaigns warn on every detection
    TextTable table;
    table.setHeader({"Config", "seed", "injected", "detected", "fresh",
                     "cached", "boots", "worst loss", "charged",
                     "cap", "violations"});

    bench::JsonWriter json;
    json.beginObject();
    json.field("bench", "fault campaign");
    json.beginArray("campaigns");
    uint64_t hardened_violations = 0;
    uint64_t unhardened_violations = 0;
    for (uint64_t seed : {1, 2, 3}) {
        for (bool hardened : {true, false}) {
            CampaignReport r = runCampaign(seed, hardened, 10000);
            (hardened ? hardened_violations : unhardened_violations) +=
                r.violations;
            json.beginObject();
            json.field("hardened", hardened);
            json.field("seed", seed);
            json.field("injected", r.injected);
            json.field("detected", r.detected);
            json.field("fresh", r.fresh);
            json.field("cached", r.cached);
            json.field("boots", r.boots);
            json.field("worst_loss", r.worst_loss);
            json.field("charged", r.charged);
            json.field("spend_cap", r.spend_cap);
            json.field("violations", r.violations);
            json.endObject();
            table.addRow({
                hardened ? "hardened" : "unhardened",
                std::to_string(seed),
                std::to_string(r.injected),
                std::to_string(r.detected),
                std::to_string(r.fresh),
                std::to_string(r.cached),
                std::to_string(r.boots),
                std::isinf(r.worst_loss) ? "inf"
                                         : TextTable::fmt(r.worst_loss, 3),
                TextTable::fmt(r.charged, 1),
                TextTable::fmt(r.spend_cap, 1),
                std::to_string(r.violations),
            });
        }
    }
    setLoggingEnabled(true);
    table.print(std::cout);

    json.endArray();
    json.field("hardened_violations", hardened_violations);
    json.field("unhardened_violations", unhardened_violations);
    json.endObject();
    if (json.writeFile(json_path))
        std::printf("\nJSON written to %s\n", json_path.c_str());

    std::printf("\nReading: the hardened device ends every campaign "
                "with zero invariant violations (%llu total) -- every "
                "detected fault degrades to cache replay, which leaks "
                "nothing new. The unhardened device racks up %llu "
                "violations from the very same fault stream.\n",
                static_cast<unsigned long long>(hardened_violations),
                static_cast<unsigned long long>(unhardened_violations));
    return hardened_violations == 0 ? 0 : 1;
}
