/**
 * @file
 * Budget ledger tests: journaled spends and two-phase checkpoints on
 * the simulated NOR part, and a recovery scan that resolves every
 * ambiguity fail-secure. The torn-record corpus programs every proper
 * prefix of a valid record and asserts each one is detected and
 * charged -- never parsed; the wear test asserts the rotation policy
 * keeps the erase-count spread within its leveling bound. The meter
 * is exact integer quanta, and a controller attaching a ledger adopts
 * its recovered state monotonically.
 */

#include <array>
#include <bit>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/logging.h"
#include "core/budget.h"
#include "core/budget_ledger.h"
#include "core/threshold_calc.h"
#include "dpbox/dpbox.h"
#include "sim/fault_injector.h"
#include "sim/nor_flash.h"
#include "telemetry/telemetry.h"

namespace ulpdp {
namespace {

FlashGeometry
ledgerGeom()
{
    FlashGeometry g;
    g.block_count = 4;
    g.block_size = 256; // (256 - 16) / 40 = 6 record slots per block
    return g;
}

BudgetLedgerConfig
ledgerConfig(double initial = 5.0, double max_loss = 1.0)
{
    BudgetLedgerConfig cfg;
    cfg.initial_budget = initial;
    cfg.max_record_loss = max_loss;
    return cfg;
}

/** Cuts exactly one scripted program op at a scripted byte. */
struct ScriptedFlashHook : FlashFaultHook
{
    int64_t cut_program_op = -1;
    size_t cut_program_at = 0;
    int64_t program_ops = 0;

    size_t
    programPowerLoss(size_t len) override
    {
        int64_t op = program_ops++;
        if (op == cut_program_op && cut_program_at < len)
            return cut_program_at;
        return SIZE_MAX;
    }
};

void
put32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
put64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** A byte-exact valid spend record body (the on-flash layout of
 *  budget_ledger.cpp), for the torn-record corpus. */
std::array<uint8_t, BudgetLedger::kBodySize>
validSpendBody(uint64_t seq, double loss)
{
    std::array<uint8_t, BudgetLedger::kBodySize> body;
    body.fill(0xFF);
    put32(body.data(), 0x554C4452); // "ULDR"
    body[4] = 1;                    // spend
    body[5] = 0;                    // flags
    put64(body.data() + 8, seq);
    put64(body.data() + 16, std::bit_cast<uint64_t>(loss));
    put64(body.data() + 24, 0);
    put32(body.data() + 32, crc32(body.data(), 32));
    return body;
}

TEST(BudgetLedger, FormatsFreshPartWithGenesisCheckpoint)
{
    NorFlashModel flash(ledgerGeom());
    BudgetLedger ledger(flash, ledgerConfig());
    ASSERT_TRUE(ledger.mount());
    EXPECT_FALSE(ledger.halted());
    EXPECT_DOUBLE_EQ(ledger.remaining(), 5.0);
    EXPECT_EQ(ledger.stats().checkpoints_committed, 1u);
    EXPECT_EQ(ledger.stats().recoveries, 0u);
}

TEST(BudgetLedger, SpendsPersistAcrossRemount)
{
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        EXPECT_TRUE(ledger.journalSpend(0.5));
        EXPECT_TRUE(ledger.journalSpend(0.25));
        EXPECT_TRUE(ledger.journalSpend(0.125));
        EXPECT_DOUBLE_EQ(ledger.remaining(), 5.0 - 0.875);
    }
    // Power cycle: a new ledger instance over the same array.
    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0 - 0.875);
    EXPECT_EQ(recovered.stats().recoveries, 1u);
    EXPECT_EQ(recovered.stats().torn_records, 0u);
}

TEST(BudgetLedger, CheckpointRoundTripsRemainingAndCache)
{
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(1.0));
        ASSERT_TRUE(ledger.commitCheckpoint(4.0, 3.75));
    }
    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    EXPECT_DOUBLE_EQ(recovered.remaining(), 4.0);
    ASSERT_TRUE(recovered.cache().has_value());
    EXPECT_DOUBLE_EQ(*recovered.cache(), 3.75);
}

TEST(BudgetLedger, TornSpendIsChargedMaxRecordLoss)
{
    NorFlashModel flash(ledgerGeom());
    ScriptedFlashHook hook;
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        hook.cut_program_op = 0; // the next body program
        hook.cut_program_at = 20;
        flash.attachFaultHook(&hook);
        // The append was cut: the caller must not release the output.
        EXPECT_FALSE(ledger.journalSpend(0.25));
    }
    flash.attachFaultHook(nullptr);
    flash.powerCycle();
    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    // The torn record *might* have been a spend: charged the
    // fail-secure bound, which over-counts the 0.25 that never left.
    EXPECT_EQ(recovered.stats().torn_records, 1u);
    EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0 - 1.0);
}

TEST(BudgetLedger, UncommittedSpendIsStillCountedSpent)
{
    NorFlashModel flash(ledgerGeom());
    ScriptedFlashHook hook;
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        hook.cut_program_op = 1; // body completes, commit byte cut
        hook.cut_program_at = 0;
        flash.attachFaultHook(&hook);
        EXPECT_FALSE(ledger.journalSpend(0.25));
    }
    flash.attachFaultHook(nullptr);
    flash.powerCycle();
    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    // CRC-valid but uncommitted: accepted -- counting a spend whose
    // output never left the device only over-counts (safe direction).
    EXPECT_EQ(recovered.stats().uncommitted_accepted, 1u);
    EXPECT_EQ(recovered.stats().torn_records, 0u);
    EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0 - 0.25);
}

TEST(BudgetLedger, CutBetweenCheckpointPhasesResolvesToNewerState)
{
    NorFlashModel flash(ledgerGeom());
    ScriptedFlashHook hook;
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(0.5));
        // Checkpoint commit: body (op 0), commit byte (op 1), then
        // the supersede byte of the genesis checkpoint (op 2) -- cut
        // exactly between write-new and invalidate-old.
        hook.cut_program_op = 2;
        hook.cut_program_at = 0;
        flash.attachFaultHook(&hook);
        EXPECT_FALSE(ledger.commitCheckpoint(4.5, std::nullopt));
    }
    flash.attachFaultHook(nullptr);
    flash.powerCycle();
    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    // Two live checkpoints; the higher sequence number wins, which is
    // always the later (never richer) state.
    EXPECT_EQ(recovered.stats().dual_checkpoint_recoveries, 1u);
    EXPECT_DOUBLE_EQ(recovered.remaining(), 4.5);
}

TEST(BudgetLedger, TornRecordCorpusEveryPrefixDetectedNeverParsed)
{
    // Every proper prefix of a byte-exact valid spend record, as a
    // power loss at each distinct program offset would leave it.
    auto body = validSpendBody(/*seq=*/2, /*loss=*/0.625);
    for (uint32_t len = 1; len < BudgetLedger::kBodySize; ++len) {
        NorFlashModel flash(ledgerGeom());
        {
            BudgetLedger ledger(flash, ledgerConfig());
            ASSERT_TRUE(ledger.mount());
        }
        // Slot 1 of block 0 (slot 0 holds the genesis checkpoint).
        uint64_t addr = BudgetLedger::kHeaderSize +
                        BudgetLedger::kRecordSize;
        ASSERT_TRUE(flash.program(addr, body.data(), len));

        BudgetLedger recovered(flash, ledgerConfig());
        ASSERT_TRUE(recovered.mount()) << "prefix " << len;
        // Detected as torn and charged the fail-secure bound -- and
        // never parsed: the record's own 0.625 loss must not appear.
        EXPECT_EQ(recovered.stats().torn_records, 1u)
            << "prefix " << len;
        EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0 - 1.0)
            << "prefix " << len;
    }

    // Contrast: the full body (cut before the commit byte only) is
    // CRC-valid and parses as exactly its own loss.
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
    }
    uint64_t addr =
        BudgetLedger::kHeaderSize + BudgetLedger::kRecordSize;
    ASSERT_TRUE(
        flash.program(addr, body.data(), BudgetLedger::kBodySize));
    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    EXPECT_EQ(recovered.stats().torn_records, 0u);
    EXPECT_EQ(recovered.stats().uncommitted_accepted, 1u);
    EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0 - 0.625);
}

TEST(BudgetLedger, StuckBitInJournalRegionFailsSecure)
{
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(0.5));
    }
    // Oxide breakdown inside the spend record's payload: a bit stuck
    // high on the sense path flips a programmed 0 back to 1.
    uint64_t addr = BudgetLedger::kHeaderSize +
                    BudgetLedger::kRecordSize + 18;
    flash.stickBit(addr, 2, true);

    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    // The CRC catches the corrupted read-back; the record is charged
    // as torn, which can only over-count relative to the 0.5 spent.
    EXPECT_EQ(recovered.stats().torn_records, 1u);
    EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0 - 1.0);
}

TEST(BudgetLedger, WearLevelingSpreadStaysWithinBound)
{
    NorFlashModel flash(ledgerGeom());
    BudgetLedger ledger(flash, ledgerConfig(1000.0, 1.0));
    ASSERT_TRUE(ledger.mount());
    for (int i = 0; i < 600; ++i) {
        ASSERT_TRUE(ledger.journalSpend(0.001));
        // The min-wear victim policy bounds the spread at every
        // instant, not just at the end of a campaign.
        ASSERT_LE(ledger.wearSpread(), 2u) << "spend " << i;
    }
    EXPECT_GT(ledger.stats().rotations, 50u);
    EXPECT_GE(flash.maxEraseCount(), 20u);
    EXPECT_LE(ledger.wearSpread(), 2u);
    // Each spend is charged quantaUp(0.001) exactly.
    EXPECT_EQ(ledger.spentLifetime(), nats(600 * quantaUp(0.001)));

    // And the journal still recovers to the same state, bit for bit.
    BudgetLedger recovered(flash, ledgerConfig(1000.0, 1.0));
    ASSERT_TRUE(recovered.mount());
    EXPECT_EQ(recovered.remaining(), ledger.remaining());
}

TEST(BudgetLedger, UnrecoverableJournalHaltsAtZeroRemaining)
{
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(0.5));
    }
    // Shoot the only block header (programming zeros kills magic and
    // CRC): the journal now holds records no header can anchor.
    std::array<uint8_t, BudgetLedger::kHeaderSize> zeros;
    zeros.fill(0x00);
    ASSERT_TRUE(flash.program(0, zeros.data(), zeros.size()));

    BudgetLedger recovered(flash, ledgerConfig());
    EXPECT_FALSE(recovered.mount());
    EXPECT_TRUE(recovered.halted());
    EXPECT_DOUBLE_EQ(recovered.remaining(), 0.0);
    EXPECT_EQ(recovered.stats().unrecoverable_mounts, 1u);
    // Halted means halted: no spend, no checkpoint, no resurrection.
    EXPECT_FALSE(recovered.journalSpend(0.1));
    EXPECT_FALSE(recovered.commitCheckpoint(5.0, std::nullopt));
    EXPECT_DOUBLE_EQ(recovered.remaining(), 0.0);
}

TEST(BudgetLedger, FormatCrashRecoversWithoutResurrection)
{
    // Power loss while programming the very first block header: no
    // spend can exist yet, so the next mount may scrub and reformat.
    NorFlashModel flash(ledgerGeom());
    ScriptedFlashHook hook;
    hook.cut_program_op = 0; // the header program
    hook.cut_program_at = 7;
    flash.attachFaultHook(&hook);
    {
        BudgetLedger ledger(flash, ledgerConfig());
        EXPECT_FALSE(ledger.mount());
    }
    flash.attachFaultHook(nullptr);
    flash.powerCycle();

    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    EXPECT_FALSE(recovered.halted());
    EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0);
    EXPECT_EQ(recovered.stats().unrecoverable_mounts, 0u);
    EXPECT_TRUE(recovered.journalSpend(0.5));
}

TEST(BudgetLedger, GenesisCheckpointCrashChargesTheTornRecord)
{
    // Power loss while programming the genesis checkpoint: a valid
    // header with one torn record and zero spends is the benign
    // format-crash shape -- recovered, minus the fail-secure charge.
    NorFlashModel flash(ledgerGeom());
    ScriptedFlashHook hook;
    hook.cut_program_op = 1; // header ok, checkpoint body cut
    hook.cut_program_at = 10;
    flash.attachFaultHook(&hook);
    {
        BudgetLedger ledger(flash, ledgerConfig());
        EXPECT_FALSE(ledger.mount());
    }
    flash.attachFaultHook(nullptr);
    flash.powerCycle();

    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    EXPECT_FALSE(recovered.halted());
    EXPECT_EQ(recovered.stats().torn_records, 1u);
    EXPECT_DOUBLE_EQ(recovered.remaining(), 5.0 - 1.0);
}

TEST(BudgetLedger, RejectsBudgetsOutsideExactQuanta)
{
    // The meter is integer quanta: the budget rounds down like
    // BudgetPool's, must be at least one quantum and exact in a
    // double, and the torn-record charge must be positive.
    NorFlashModel flash(ledgerGeom());
    EXPECT_THROW(BudgetLedger(flash, ledgerConfig(2.0 * kMaxExactNats)),
                 FatalError);
    EXPECT_THROW(BudgetLedger(flash, ledgerConfig(1e-9)), FatalError);
    EXPECT_THROW(BudgetLedger(flash, ledgerConfig(5.0, 0.0)),
                 FatalError);
    BudgetLedger ledger(flash, ledgerConfig(5.0 + 1e-9));
    ASSERT_TRUE(ledger.mount());
    EXPECT_EQ(ledger.remaining(), nats(quantaDown(5.0 + 1e-9)));
}

TEST(BudgetLedger, RemountedMeterIsExactQuanta)
{
    // 0.01 nats is no whole number of quanta: every spend is charged
    // quantaUp(0.01), live and at replay, across rotations.
    constexpr int kSpends = 20;
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        for (int i = 0; i < kSpends; ++i)
            ASSERT_TRUE(ledger.journalSpend(0.01));
        ASSERT_GT(ledger.stats().rotations, 0u);
    }
    BudgetLedger recovered(flash, ledgerConfig());
    ASSERT_TRUE(recovered.mount());
    EXPECT_EQ(recovered.remaining(),
              nats(quantaDown(5.0) - kSpends * quantaUp(0.01)));
}

TEST(BudgetLedger, RecordCrcSealsEveryBodyBit)
{
    // Flip any one bit of the 32 bytes before the CRC -- magic, type,
    // flags, seq, payload, aux -- and mount charges the record as
    // torn: no field escapes the seal.
    const auto body = validSpendBody(/*seq=*/2, /*loss=*/0.625);
    const uint64_t addr =
        BudgetLedger::kHeaderSize + BudgetLedger::kRecordSize;
    for (uint32_t byte = 0; byte < 32; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            NorFlashModel flash(ledgerGeom());
            {
                BudgetLedger ledger(flash, ledgerConfig());
                ASSERT_TRUE(ledger.mount());
            }
            auto flipped = body;
            flipped[byte] ^= static_cast<uint8_t>(1u << bit);
            ASSERT_TRUE(
                flash.program(addr, flipped.data(), flipped.size()));

            BudgetLedger recovered(flash, ledgerConfig());
            ASSERT_TRUE(recovered.mount());
            EXPECT_EQ(recovered.stats().torn_records, 1u)
                << "bit " << bit << " of byte " << byte;
            EXPECT_EQ(recovered.remaining(), 5.0 - 1.0)
                << "bit " << bit << " of byte " << byte;
        }
    }
}

/** Value of ulpdp_ledger_unrecoverable_mounts_total{cause=@p cause}. */
double
unrecoverableMounts(const std::string &cause)
{
    for (const auto &s : telemetry::registry().snapshot()) {
        if (s.info.name == "ulpdp_ledger_unrecoverable_mounts_total" &&
            s.info.labels == "cause=\"" + cause + "\"")
            return s.value;
    }
    return 0.0;
}

TEST(BudgetLedger, UnrecoverableMountsAreLabelledByCause)
{
    telemetry::reset();
    telemetry::setEnabled(true);

    // No valid block header over record bits.
    NorFlashModel headless(ledgerGeom());
    {
        BudgetLedger ledger(headless, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(0.5));
    }
    std::array<uint8_t, BudgetLedger::kHeaderSize> zeros;
    zeros.fill(0x00);
    ASSERT_TRUE(headless.program(0, zeros.data(), zeros.size()));
    EXPECT_FALSE(BudgetLedger(headless, ledgerConfig()).mount());
    EXPECT_EQ(unrecoverableMounts("no_header"), 1.0);
    EXPECT_EQ(unrecoverableMounts("no_checkpoint"), 0.0);

    // A valid header and a spend, but the genesis checkpoint shot.
    NorFlashModel anchorless(ledgerGeom());
    {
        BudgetLedger ledger(anchorless, ledgerConfig());
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(0.5));
    }
    std::array<uint8_t, BudgetLedger::kBodySize> dead;
    dead.fill(0x00);
    ASSERT_TRUE(anchorless.program(BudgetLedger::kHeaderSize,
                                   dead.data(), dead.size()));
    BudgetLedger recovered(anchorless, ledgerConfig());
    EXPECT_FALSE(recovered.mount());
    EXPECT_TRUE(recovered.halted());
    EXPECT_EQ(unrecoverableMounts("no_header"), 1.0);
    EXPECT_EQ(unrecoverableMounts("no_checkpoint"), 1.0);

    telemetry::setEnabled(false);
    telemetry::reset();
}

// ---------------------------------------------------------------------
// BudgetController through the ledger.
// ---------------------------------------------------------------------

FxpMechanismParams
testParams(uint64_t seed = 1)
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    p.seed = seed;
    return p;
}

BudgetControllerConfig
testConfig(const FxpMechanismParams &p, double budget = 10.0)
{
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = budget;
    cfg.kind = RangeControl::Thresholding;
    cfg.segments = LossSegments::compute(
        calc, RangeControl::Thresholding, {1.5, 2.0, 3.0});
    cfg.resample_attempt_limit = 4096;
    return cfg;
}

TEST(BudgetLedger, ControllerJournalsEverySpendBeforeRelease)
{
    NorFlashModel flash(ledgerGeom());
    BudgetLedger ledger(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(ledger.mount());

    FxpMechanismParams p = testParams();
    auto cfg = testConfig(p);
    BudgetController ctrl(p, cfg);
    ASSERT_TRUE(ctrl.attachLedger(&ledger));

    double charged = 0.0;
    for (int i = 0; i < 5; ++i) {
        BudgetResponse r = ctrl.request(4.0 + i);
        ASSERT_FALSE(r.from_cache);
        charged += r.charged;
    }
    EXPECT_EQ(ledger.stats().spends_journaled, 5u);
    EXPECT_EQ(ledger.remaining(), 10.0 - charged);
    EXPECT_EQ(ctrl.remainingBudget(), ledger.remaining());

    // The recovered ledger hands the next boot the same state.
    ASSERT_TRUE(ctrl.checkpointToLedger());
    BudgetLedger recovered(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(recovered.mount());
    BudgetController next(p, cfg);
    ASSERT_TRUE(next.attachLedger(&recovered));
    EXPECT_EQ(next.remainingBudget(), ctrl.remainingBudget());
    EXPECT_EQ(next.faultStats().checkpoint_restore_failures, 0u);
}

TEST(BudgetLedger, RefusesSpendAboveMaxRecordLoss)
{
    // A torn record is charged max_record_loss at recovery; a larger
    // spend journaled and then torn would come back under-counted.
    NorFlashModel flash(ledgerGeom());
    BudgetLedger ledger(flash, ledgerConfig(5.0, 1.0));
    ASSERT_TRUE(ledger.mount());
    EXPECT_FALSE(ledger.journalSpend(1.5));
    EXPECT_EQ(ledger.stats().spends_journaled, 0u);
    EXPECT_EQ(ledger.remaining(), 5.0);
    EXPECT_TRUE(ledger.journalSpend(1.0));
    EXPECT_EQ(ledger.remaining(), 4.0);
}

TEST(BudgetLedger, AttachRefusesOutermostChargeAboveMaxRecordLoss)
{
    NorFlashModel flash(ledgerGeom());
    FxpMechanismParams p = testParams();
    auto cfg = testConfig(p);
    const double outer = cfg.segments.back().loss;

    // Below the outermost charge: the controller refuses the ledger.
    BudgetLedger narrow(flash, ledgerConfig(10.0, 0.5 * outer));
    ASSERT_TRUE(narrow.mount());
    BudgetController ctrl(p, cfg);
    EXPECT_THROW(ctrl.attachLedger(&narrow), FatalError);

    // The DP-Box budget logic applies the same rule.
    DpBoxConfig box;
    box.threshold_index = 300;
    box.budget_enabled = true;
    box.segments = {{0, 0.55}, {300, 1.0}};
    DpBox dev(box);
    BudgetLedger tight(flash, ledgerConfig(10.0, 0.75));
    EXPECT_THROW(dev.attachLedger(&tight), FatalError);
    BudgetLedger exact(flash, ledgerConfig(10.0, 1.0));
    dev.attachLedger(&exact);

    // At or above it, both attach.
    BudgetLedger wide(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(wide.mount());
    EXPECT_TRUE(ctrl.attachLedger(&wide));
}

TEST(BudgetLedger, FailedAppendWithholdsTheOutputAndLatches)
{
    NorFlashModel flash(ledgerGeom());
    BudgetLedger ledger(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(ledger.mount());

    FxpMechanismParams p = testParams();
    auto cfg = testConfig(p);
    BudgetController ctrl(p, cfg);
    ASSERT_TRUE(ctrl.attachLedger(&ledger));
    BudgetResponse first = ctrl.request(3.0);
    ASSERT_FALSE(first.from_cache);

    // The power dies during the next spend's journal append: the
    // fresh draw is withheld, the cache (already-released data) is
    // served, and the controller latches fail-secure.
    ScriptedFlashHook hook;
    hook.cut_program_op = 0;
    hook.cut_program_at = 12;
    flash.attachFaultHook(&hook);
    BudgetResponse r = ctrl.request(8.0);
    EXPECT_TRUE(r.from_cache);
    EXPECT_DOUBLE_EQ(r.value, first.value);
    EXPECT_DOUBLE_EQ(r.charged, 0.0);
    EXPECT_TRUE(ctrl.faultLatched());
    EXPECT_EQ(ctrl.faultStats().ledger_append_failures, 1u);

    // Latched means latched, even after power returns.
    flash.attachFaultHook(nullptr);
    flash.powerCycle();
    EXPECT_TRUE(ctrl.request(2.0).from_cache);
}

TEST(BudgetLedger, HaltedLedgerRestoresControllerToZero)
{
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig(10.0, 2.0));
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(1.0));
    }
    std::array<uint8_t, BudgetLedger::kHeaderSize> zeros;
    zeros.fill(0x00);
    ASSERT_TRUE(flash.program(0, zeros.data(), zeros.size()));

    BudgetLedger dead(flash, ledgerConfig(10.0, 2.0));
    EXPECT_FALSE(dead.mount());

    FxpMechanismParams p = testParams();
    BudgetController ctrl(p, testConfig(p));
    EXPECT_FALSE(ctrl.attachLedger(&dead));
    EXPECT_EQ(ctrl.faultStats().checkpoint_restore_failures, 1u);
    EXPECT_DOUBLE_EQ(ctrl.remainingBudget(), 0.0);
    // Zero budget, empty cache: only the constant midpoint leaves.
    BudgetResponse r = ctrl.request(7.0);
    EXPECT_TRUE(r.from_cache);
    EXPECT_DOUBLE_EQ(r.value, p.range.mid());
    EXPECT_DOUBLE_EQ(r.charged, 0.0);
}

TEST(BudgetLedger, AttachAdoptsTheLedgersStateBeforeAnyRequest)
{
    // A ledger that recovered R < initial: attaching a fresh
    // controller must adopt R on the spot. Otherwise request() and
    // checkpointToLedger() would seal the controller's full initial
    // budget over a journal that recorded earlier spends.
    NorFlashModel flash(ledgerGeom());
    {
        BudgetLedger ledger(flash, ledgerConfig(10.0, 2.0));
        ASSERT_TRUE(ledger.mount());
        ASSERT_TRUE(ledger.journalSpend(1.5));
        ASSERT_TRUE(ledger.journalSpend(1.25));
    }
    BudgetLedger ledger(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(ledger.mount());
    const double recovered = ledger.remaining();
    ASSERT_EQ(recovered, 10.0 - 2.75);

    FxpMechanismParams p = testParams();
    BudgetController ctrl(p, testConfig(p));
    ctrl.attachLedger(&ledger);
    EXPECT_EQ(ctrl.remainingBudget(), recovered);

    BudgetResponse r = ctrl.request(5.0);
    ASSERT_FALSE(r.from_cache);
    ASSERT_TRUE(ctrl.checkpointToLedger());
    BudgetLedger next(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(next.mount());
    EXPECT_EQ(next.remaining(), recovered - r.charged);
}

TEST(BudgetLedger, StaleRicherCheckpointCannotRaiseBudget)
{
    // A controller that spent, then attached to a ledger whose latest
    // checkpoint still holds the full budget (a stale record: the
    // power died before the spends were journaled). The restore is
    // min(current, ledger): the stale record hands nothing back.
    FxpMechanismParams p = testParams();
    auto cfg = testConfig(p);
    BudgetController ctrl(p, cfg);
    ctrl.request(4.0);
    ctrl.request(6.0);
    const double spent_remaining = ctrl.remainingBudget();
    ASSERT_LT(spent_remaining, cfg.initial_budget);

    NorFlashModel flash(ledgerGeom());
    BudgetLedger stale(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(stale.mount());
    ASSERT_EQ(stale.remaining(), cfg.initial_budget);
    EXPECT_TRUE(ctrl.attachLedger(&stale));
    EXPECT_EQ(ctrl.remainingBudget(), spent_remaining);
}

TEST(BudgetLedger, ZeroRemainingCheckpointRestoresTheHaltedState)
{
    // A checkpoint at exactly zero remaining is a valid record of a
    // halted device: it restores the halted state and replays the
    // persisted report, never the uninitialized-restore midpoint.
    FxpMechanismParams p = testParams();
    auto cfg = testConfig(p);
    NorFlashModel flash(ledgerGeom());
    BudgetResponse last;
    {
        BudgetLedger ledger(flash, ledgerConfig(10.0, 2.0));
        ASSERT_TRUE(ledger.mount());
        BudgetController a(p, cfg);
        ASSERT_TRUE(a.attachLedger(&ledger));
        last = a.request(4.0);
        ASSERT_FALSE(last.from_cache);
        ASSERT_TRUE(ledger.commitCheckpoint(0.0, last.value));
    }
    BudgetLedger ledger(flash, ledgerConfig(10.0, 2.0));
    ASSERT_TRUE(ledger.mount());
    BudgetController b(p, cfg);
    EXPECT_TRUE(b.attachLedger(&ledger)); // valid, not a failure
    EXPECT_EQ(b.faultStats().checkpoint_restore_failures, 0u);
    EXPECT_DOUBLE_EQ(b.remainingBudget(), 0.0);

    BudgetResponse r = b.request(9.0);
    EXPECT_TRUE(r.from_cache);
    EXPECT_DOUBLE_EQ(r.value, last.value);
    EXPECT_DOUBLE_EQ(r.charged, 0.0);
}

} // namespace
} // namespace ulpdp
