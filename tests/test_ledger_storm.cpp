/**
 * @file
 * Power-loss storms against the durable ledger: thousands of seeded
 * crash/recover cycles with the cut swept over every distinct program
 * offset, asserting the one invariant everything else exists for --
 * the recovered ledger is always at least as spent as reality. Budget
 * is never resurrected, whatever instant the power died; fleets of
 * controllers stay under n * eps across the whole storm; and on a
 * fault-free run an attached epoch ledger moves no bit of the merged
 * FleetReport.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/budget.h"
#include "core/budget_ledger.h"
#include "core/threshold_calc.h"
#include "fleet/fleet.h"
#include "sim/fault_injector.h"
#include "sim/nor_flash.h"

namespace ulpdp {
namespace {

FlashGeometry
stormGeom()
{
    FlashGeometry g;
    g.block_count = 4;
    g.block_size = 256;
    return g;
}

BudgetLedgerConfig
stormLedgerConfig(double initial, double max_loss)
{
    BudgetLedgerConfig cfg;
    cfg.initial_budget = initial;
    cfg.max_record_loss = max_loss;
    return cfg;
}

TEST(LedgerStorm, PowerLossStormNeverResurrectsBudget)
{
    // >= 10,000 crash/recover cycles. Each cycle arms one exact cut
    // offset (cycling over every byte a record body can be cut at,
    // plus the header/commit/supersede sites and periodic mid-erase
    // cuts), mounts, verifies fail-secure accounting, then spends
    // until the cut fires.
    constexpr int kCycles = 10000;
    constexpr double kInitial = 5.0;
    constexpr double kSpend = 0.01;
    constexpr double kMaxLoss = 1.0;

    FaultCampaignConfig fcfg;
    fcfg.seed = 0x51ED5;
    FaultInjector inj(fcfg);

    auto flash = std::make_unique<NorFlashModel>(stormGeom());
    flash->attachFaultHook(&inj);

    double released = 0.0; // loss of outputs that actually left
    uint64_t epochs = 0;   // fresh parts after unrecoverable halts
    uint64_t recoveries = 0;
    uint64_t torn_total = 0;
    std::set<size_t> offsets_cut; // distinct program offsets hit

    for (int cycle = 0; cycle < kCycles; ++cycle) {
        BudgetLedger ledger(*flash,
                            stormLedgerConfig(kInitial, kMaxLoss));
        bool ok = ledger.mount();
        recoveries += ledger.stats().recoveries;
        torn_total += ledger.stats().torn_records;

        if (!ok) {
            if (ledger.halted()) {
                // Unrecoverable resolves to the most conservative
                // state there is -- never to fresh budget.
                ASSERT_DOUBLE_EQ(ledger.remaining(), 0.0);
                ASSERT_FALSE(ledger.journalSpend(kSpend));
                // Start a new part (a bricked node gets re-fused in
                // the field); the storm keeps exercising the cuts.
                flash = std::make_unique<NorFlashModel>(stormGeom());
                flash->attachFaultHook(&inj);
                released = 0.0;
                ++epochs;
            } else {
                // Power died during mount itself (format/scrub).
                flash->powerCycle();
            }
            continue;
        }

        // THE invariant: what the journal recovered is at least as
        // pessimistic as the truth. remaining <= initial - released,
        // i.e. recovered-spent >= true-spent, on every single cycle.
        double true_remaining =
            std::max(0.0, kInitial - released);
        ASSERT_LE(ledger.remaining(), true_remaining + 1e-6)
            << "budget resurrected at cycle " << cycle;

        // Arm this cycle's cut: sweep the record-body offsets 0..35,
        // with every 7th cycle cutting an erase mid-block instead.
        size_t k = static_cast<size_t>(cycle) % 36;
        if (cycle % 7 == 3)
            inj.armEraseLossAt(static_cast<size_t>(cycle) % 256);
        else
            inj.armProgramLossAt(k);

        uint64_t losses_before = inj.stats().flash_program_losses;
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
        if (inj.stats().flash_program_losses > losses_before)
            offsets_cut.insert(k);
        if (!flash->alive())
            flash->powerCycle();
    }

    // The sweep hit every distinct program offset a record body has.
    for (size_t k = 0; k < 36; ++k)
        EXPECT_TRUE(offsets_cut.count(k)) << "offset " << k;
    EXPECT_GT(recoveries, 1000u);
    EXPECT_GT(torn_total, 0u);
    EXPECT_GT(inj.stats().flash_erase_losses, 0u);
    // Fail-secure halts are allowed (and exercised), but the storm
    // must not brick every part: most cycles recover.
    EXPECT_LT(epochs, static_cast<uint64_t>(kCycles) / 10);
}

TEST(LedgerStorm, ControllerFleetStaysUnderCompositionBound)
{
    // A fleet of n controllers, each metering against its own flash
    // ledger through thousands of crash/recover cycles: the total
    // privacy loss actually released by node i never exceeds its
    // budget B, so the fleet-level loss stays <= n * B -- with power
    // losses striking journal appends, checkpoint commits and erases
    // the whole time.
    constexpr int kNodes = 8;
    constexpr int kCyclesPerNode = 300;
    constexpr double kBudget = 10.0;

    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = kBudget;
    cfg.kind = RangeControl::Thresholding;
    cfg.segments = LossSegments::compute(
        calc, RangeControl::Thresholding, {1.5, 2.0, 3.0});
    double worst_seg = cfg.segments.back().loss;

    double fleet_released = 0.0;
    for (int node = 0; node < kNodes; ++node) {
        FaultCampaignConfig fcfg;
        fcfg.seed = 1000 + static_cast<uint64_t>(node);
        fcfg.flash_program_loss_rate = 0.02;
        fcfg.flash_erase_loss_rate = 0.1;
        FaultInjector inj(fcfg);
        NorFlashModel flash(stormGeom());
        flash.attachFaultHook(&inj);

        double node_released = 0.0;
        for (int cycle = 0; cycle < kCyclesPerNode; ++cycle) {
            BudgetLedger ledger(
                flash, stormLedgerConfig(kBudget, 2 * worst_seg));
            if (!ledger.mount()) {
                if (ledger.halted())
                    break; // bricked fail-secure: spends nothing more
                flash.powerCycle();
                continue;
            }
            p.seed = 1 + static_cast<uint64_t>(node) * 1000 +
                     static_cast<uint64_t>(cycle);
            BudgetController ctrl(p, cfg);
            ctrl.attachLedger(&ledger);
            for (int r = 0; r < 6; ++r) {
                BudgetResponse resp = ctrl.request(3.0 + r);
                if (!resp.from_cache)
                    node_released += resp.charged;
            }
            if (!flash.alive())
                flash.powerCycle();
            else
                ctrl.checkpointToLedger();
            if (!flash.alive())
                flash.powerCycle();
        }
        // Per-node composition: released loss never exceeds B.
        EXPECT_LE(node_released, kBudget + 1e-6) << "node " << node;
        fleet_released += node_released;
    }
    EXPECT_LE(fleet_released, kNodes * kBudget + 1e-6);
    EXPECT_GT(fleet_released, 0.0);
}

// ---------------------------------------------------------------------
// Fleet epoch ledger.
// ---------------------------------------------------------------------

FleetConfig
smallFleet()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 99;
    fc.block_nodes = 256;
    CohortConfig thr;
    thr.name = "thr";
    thr.mechanism = CohortMechanism::Thresholding;
    thr.params = p;
    thr.nodes = 1500;
    thr.reports_per_node = 3;
    thr.budget_per_node = 2.5;
    thr.analyze_loss = false;
    CohortConfig res;
    res.name = "res";
    res.mechanism = CohortMechanism::Resampling;
    res.params = p;
    res.nodes = 1500;
    res.reports_per_node = 3;
    res.analyze_loss = false;
    fc.cohorts = {thr, res};
    return fc;
}

TEST(LedgerFleet, FingerprintUnchangedWithEpochLedgerAttached)
{
    // The epoch ledger journals post-merge on the main thread; on a
    // fault-free run the merged report is bit-identical with and
    // without it. This is the determinism contract extended to the
    // durability layer.
    FleetConfig plain = smallFleet();
    FleetRunner bare(plain);
    FleetReport without = bare.run(2);

    NorFlashModel flash(stormGeom());
    BudgetLedger ledger(flash,
                        stormLedgerConfig(1e9, 1e6));
    ASSERT_TRUE(ledger.mount());
    FleetConfig wired = smallFleet();
    wired.epoch_ledger = &ledger;
    FleetRunner runner(wired);
    FleetReport with = runner.run(2);

    EXPECT_EQ(with.fingerprint(), without.fingerprint());

    // And the ledger durably accounted the epoch: one spend record
    // per cohort with fresh reports, at the worst-case metering bound.
    EXPECT_EQ(ledger.stats().spends_journaled, 2u);
    EXPECT_EQ(ledger.stats().checkpoints_committed, 2u); // genesis + epoch
    double charged = 1e9 - ledger.remaining();
    EXPECT_GT(charged, 0.0);

    // Cohort "thr" meters 2 fresh reports per node at 2 * eps (its
    // budget affords 2 of the 3); cohort "res" is unmetered, so all
    // 3 reports are fresh at loss_multiple * eps. The journal must
    // cover exactly that worst case.
    double expect_thr = 1500.0 * 2 * (2.0 * 0.5);
    double expect_res = 1500.0 * 3 * (2.0 * 0.5);
    EXPECT_EQ(charged, expect_thr + expect_res);

    // Recovery hands the same accounting to the next epoch.
    BudgetLedger recovered(flash, stormLedgerConfig(1e9, 1e6));
    ASSERT_TRUE(recovered.mount());
    EXPECT_EQ(recovered.remaining(), ledger.remaining());
}

TEST(LedgerFleet, EpochLedgerMustRecordEachCohortsWorstEpoch)
{
    // Each cohort's epoch is one spend record, and a torn record is
    // charged only max_record_loss at recovery. A ledger that cannot
    // record a cohort's worst epoch (here "res": 1500 x 3 x 1.0 =
    // 4500 nats) would refuse the spend after the reports are out,
    // so the runner refuses the ledger up front.
    FleetConfig wired = smallFleet();
    NorFlashModel flash(stormGeom());
    BudgetLedgerConfig defaults;
    defaults.initial_budget = 1e9;
    BudgetLedger narrow(flash, defaults);
    ASSERT_TRUE(narrow.mount());
    wired.epoch_ledger = &narrow;
    EXPECT_THROW(FleetRunner{wired}, FatalError);

    NorFlashModel flash2(stormGeom());
    BudgetLedger just_short(
        flash2, stormLedgerConfig(1e9, std::nextafter(4500.0, 0.0)));
    ASSERT_TRUE(just_short.mount());
    wired.epoch_ledger = &just_short;
    EXPECT_THROW(FleetRunner{wired}, FatalError);

    // At exactly the worst epoch charge, the epoch is journaled and
    // sealed, and recovery gives back none of it.
    NorFlashModel flash3(stormGeom());
    BudgetLedger exact(flash3, stormLedgerConfig(1e9, 4500.0));
    ASSERT_TRUE(exact.mount());
    wired.epoch_ledger = &exact;
    FleetRunner runner(wired);
    runner.run(1);
    EXPECT_EQ(exact.stats().spends_journaled, 2u);
    EXPECT_EQ(exact.remaining(), 1e9 - 3000.0 - 4500.0);
    BudgetLedger recovered(flash3, stormLedgerConfig(1e9, 4500.0));
    ASSERT_TRUE(recovered.mount());
    EXPECT_EQ(recovered.remaining(), exact.remaining());
}

} // namespace
} // namespace ulpdp
