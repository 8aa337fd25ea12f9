/**
 * @file
 * Fault-injection tests: unit tests for every hardening primitive
 * (CRCs, URNG health tests, table integrity, bus retry) and seeded
 * chaos campaigns asserting the fail-secure policy end to end --
 * under every injected fault the released outputs keep their
 * enumerated privacy loss below the configured n * eps bound or the
 * device visibly degrades to cache replay. The same campaigns
 * with hardening disabled demonstrably violate the invariants, which
 * is what proves the hardening has teeth.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/logging.h"
#include "core/budget.h"
#include "core/budget_ledger.h"
#include "core/output_model.h"
#include "core/threshold_calc.h"
#include "dpbox/trace.h"
#include "rng/health.h"
#include "rng/laplace_table.h"
#include "sim/fault_injector.h"
#include "sim/nor_flash.h"
#include "sim/sensor_bus.h"

namespace ulpdp {
namespace {

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
testConfig(const FxpMechanismParams &p, RangeControl kind,
           double budget = 100.0)
{
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.initial_budget = budget;
    cfg.kind = kind;
    cfg.segments = LossSegments::compute(calc, kind, {1.5, 2.0, 3.0});
    cfg.resample_attempt_limit = 4096;
    return cfg;
}

/**
 * Whole-support per-output privacy loss of a model: for each output
 * index, ln(max_i P[y|i] / min_i P[y|i]). Unreachable outputs and
 * outputs only some inputs can produce map to +inf -- a device that
 * releases one has left the analysed support entirely.
 */
std::vector<double>
perOutputLoss(const DiscreteOutputModel &m)
{
    std::vector<double> loss;
    for (int64_t j = m.outputLo(); j <= m.outputHi(); ++j) {
        double mx = 0.0;
        double mn = std::numeric_limits<double>::infinity();
        for (int64_t i = 0; i <= m.span(); ++i) {
            double pr = m.prob(j, i);
            mx = std::max(mx, pr);
            mn = std::min(mn, pr);
        }
        if (mn <= 0.0)
            loss.push_back(std::numeric_limits<double>::infinity());
        else
            loss.push_back(std::log(mx / mn));
    }
    return loss;
}

std::unique_ptr<DiscreteOutputModel>
makeModel(const ThresholdCalculator &calc, RangeControl kind,
          int64_t threshold)
{
    if (kind == RangeControl::Resampling) {
        return std::make_unique<ResamplingOutputModel>(
            calc.pmf(), calc.span(), threshold);
    }
    return std::make_unique<ThresholdingOutputModel>(
        calc.pmf(), calc.span(), threshold);
}

// ---------------------------------------------------------------------
// Integrity-code known answers.
// ---------------------------------------------------------------------

TEST(FaultCrc, Crc32KnownAnswer)
{
    // The IEEE 802.3 check value for the ASCII digits "123456789".
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(FaultCrc, Crc32SeedChains)
{
    const char *msg = "123456789";
    uint32_t half = crc32(msg, 4);
    EXPECT_EQ(crc32(msg + 4, 5, half), crc32(msg, 9));
}

TEST(FaultCrc, Crc8MatchesSht3xVector)
{
    // The SHT3x datasheet example: CRC-8 of 0xBEEF is 0x92.
    uint8_t data[2] = {0xBE, 0xEF};
    EXPECT_EQ(crc8(data, 2), 0x92);
}

// ---------------------------------------------------------------------
// URNG continuous health tests.
// ---------------------------------------------------------------------

TEST(RngHealth, HealthyStreamNeverAlarms)
{
    Tausworthe urng(7);
    RngHealthMonitor monitor;
    urng.attachHealthMonitor(&monitor);
    for (int i = 0; i < 8192; ++i)
        urng.next32();
    EXPECT_FALSE(monitor.alarmed());
    EXPECT_EQ(monitor.observed(), 8192u);
}

TEST(RngHealth, StuckWordTripsRepetitionCount)
{
    RngHealthMonitor monitor;
    monitor.observe(0xDEADBEEF);
    monitor.observe(0xDEADBEEF);
    EXPECT_FALSE(monitor.alarmed()) << "cutoff is 3, not 2";
    monitor.observe(0xDEADBEEF);
    EXPECT_TRUE(monitor.alarmed());
    EXPECT_GE(monitor.repetitionAlarms(), 1u);
}

TEST(RngHealth, StuckBitTripsProportionTest)
{
    // Words keep changing (repetition test is blind), but bit 5 is
    // stuck at 1: the per-lane proportion test must catch it within
    // one window.
    Tausworthe urng(11);
    RngHealthMonitor monitor;
    uint32_t window = monitor.config().proportion_window;
    for (uint32_t i = 0; i < window && !monitor.alarmed(); ++i)
        monitor.observe(urng.next32() | (1u << 5));
    EXPECT_TRUE(monitor.alarmed());
    EXPECT_GE(monitor.proportionAlarms(), 1u);
    EXPECT_EQ(monitor.repetitionAlarms(), 0u);
}

TEST(RngHealth, ResetClearsTheLatch)
{
    RngHealthMonitor monitor;
    for (int i = 0; i < 3; ++i)
        monitor.observe(42);
    ASSERT_TRUE(monitor.alarmed());
    monitor.reset();
    EXPECT_FALSE(monitor.alarmed());
}

TEST(RngHealth, RejectsVacuousConfig)
{
    RngHealthConfig cfg;
    cfg.repetition_cutoff = 1;
    EXPECT_THROW(RngHealthMonitor{cfg}, FatalError);
}

// ---------------------------------------------------------------------
// Sampler-table integrity.
// ---------------------------------------------------------------------

TEST(TableIntegrity, FreshTableVerifies)
{
    FxpLaplaceRng rng(testParams().rngConfig(), 1);
    ASSERT_TRUE(rng.fastPathEnabled());
    EXPECT_TRUE(rng.table().verify());
    EXPECT_TRUE(rng.verifyTableIntegrity());
    EXPECT_FALSE(rng.integrityFault());
}

TEST(TableIntegrity, FlipBitBreaksAndRestoresTheCrc)
{
    FxpLaplaceRng rng(testParams().rngConfig(), 1);
    LaplaceSampleTable *table = rng.mutableTable();
    ASSERT_NE(table, nullptr);
    uint32_t reference = table->referenceCrc();

    table->flipBit(17, 3);
    EXPECT_FALSE(table->verify());
    table->flipBit(17, 3);
    EXPECT_TRUE(table->verify());
    EXPECT_EQ(table->referenceCrc(), reference);
}

TEST(TableIntegrity, ScrubQuarantinesACorruptedTable)
{
    FxpLaplaceRng rng(testParams().rngConfig(), 1);
    rng.mutableTable()->flipBit(1234, 6);

    EXPECT_FALSE(rng.verifyTableIntegrity());
    EXPECT_TRUE(rng.integrityFault());
    EXPECT_FALSE(rng.fastPathEnabled())
        << "a quarantined table must never serve another draw";
    EXPECT_GE(rng.integrityDetections(), 1u);

    // Draws keep flowing through the log datapath, and stay inside
    // the representable support.
    for (int i = 0; i < 256; ++i) {
        int64_t k = rng.sampleIndexFast();
        EXPECT_LE(std::llabs(k), rng.quantizer().maxIndex());
    }
}

TEST(TableIntegrity, LookupComparatorCatchesWildDirectEntries)
{
    FxpLaplaceRng rng(testParams().rngConfig(), 1);
    LaplaceSampleTable *table = rng.mutableTable();
    ASSERT_NE(table, nullptr);

    // Flip the top magnitude bit of every guide word: each lookup now
    // returns an index far past the support, which the comparator at
    // the table output port must catch.
    size_t guide_bytes = size_t{2} << table->guideBits();
    for (size_t off = 1; off < guide_bytes; off += 2)
        table->flipBit(off, 6);

    int64_t k = rng.sampleIndexFast();
    EXPECT_TRUE(rng.integrityFault());
    EXPECT_GE(rng.integrityDetections(), 1u);
    // The recovery draw ran through the log datapath: still sound.
    EXPECT_LE(std::llabs(k), rng.quantizer().maxIndex());
}

TEST(TableIntegrity, FlippedBoundaryCaughtByCrcScrub)
{
    // A boundary SEU moves acceptance masses and bin edges without
    // touching any guide entry; the periodic scrub is what sees it.
    FxpLaplaceRng rng(testParams().rngConfig(), 1);
    LaplaceSampleTable *table = rng.mutableTable();
    ASSERT_NE(table, nullptr);
    const size_t guide_bytes = size_t{2} << table->guideBits();
    ASSERT_GT(table->faultableBytes(), guide_bytes);

    // B_1, low bit: the smallest possible change to a live boundary.
    table->flipBit(guide_bytes + 8, 0);
    EXPECT_FALSE(table->verify());
    EXPECT_FALSE(rng.verifyTableIntegrity());
    EXPECT_TRUE(rng.integrityFault());
    EXPECT_FALSE(rng.fastPathEnabled());
}

TEST(TableIntegrity, GuideCorruptionCaughtInEitherDirection)
{
    // Every single-bit flip of a guide word moves its magnitude up or
    // down (bits 0..14) or breaks its parity bit (bit 15); the lookup
    // comparator must refuse it for every rank the word serves, and
    // no lookup -- checked or not, one-state or split bucket -- may
    // address past the boundary array (the sanitizer build watches
    // the reads).
    for (int bu : {14, 24}) {
        FxpMechanismParams p = testParams();
        p.uniform_bits = bu;
        FxpLaplaceRng rng(p.rngConfig(), 1);
        LaplaceSampleTable *table = rng.mutableTable();
        ASSERT_NE(table, nullptr);
        const int shift = bu - table->guideBits();
        const uint64_t span = uint64_t{1} << shift;
        const uint64_t buckets = uint64_t{1} << table->guideBits();

        uint64_t up = 0, down = 0;
        for (uint64_t j = 0; j < buckets; j += buckets / 64 + 1) {
            const uint64_t first = j << shift; // the bucket's first rank
            const int64_t k = table->lookupByRank(first);
            for (int bit = 0; bit < 16; ++bit) {
                table->flipBit(2 * j + bit / 8, bit % 8);
                int64_t served = bit < 15 ? k ^ (int64_t{1} << bit) : k;
                up += served > k;
                down += served < k;
                for (uint64_t r : {first, first + span / 2,
                                   first + span - 1}) {
                    bool ok = true;
                    int64_t got = table->view().lookupByRank(r, ok);
                    EXPECT_FALSE(ok) << "Bu=" << bu << " bucket " << j
                                     << " bit " << bit;
                    if (shift == 0) {
                        EXPECT_EQ(got, served);
                    }
                    EXPECT_GE(got, 0);
                    EXPECT_LE(got, LaplaceSampleTable::kMaxMagnitudeIndex);
                }
                table->flipBit(2 * j + bit / 8, bit % 8);
            }
        }
        EXPECT_GT(up, 0u);
        EXPECT_GT(down, 0u);
        EXPECT_TRUE(table->verify());
    }
}

// ---------------------------------------------------------------------
// Budget checkpoints across power loss. The checkpoint lives in the
// budget ledger's journal; a reboot restores it by attaching a
// controller to the remounted ledger.
// ---------------------------------------------------------------------

/** The hardened campaign device's journal part: 4 x 256 B NOR. */
FlashGeometry
campaignFlash()
{
    FlashGeometry g;
    g.block_count = 4;
    g.block_size = 256;
    return g;
}

BudgetLedgerConfig
checkpointLedgerConfig(double initial)
{
    BudgetLedgerConfig lcfg;
    lcfg.initial_budget = initial;
    lcfg.max_record_loss = 2.0; // >= the outermost segment charge
    return lcfg;
}

TEST(BudgetCheckpoint, RoundTripsThroughRestore)
{
    FxpMechanismParams p = testParams();
    auto cfg = testConfig(p, RangeControl::Thresholding, 10.0);
    NorFlashModel flash(campaignFlash());
    BudgetLedger ledger(flash, checkpointLedgerConfig(10.0));
    ASSERT_TRUE(ledger.mount());
    BudgetController a(p, cfg);
    ASSERT_TRUE(a.attachLedger(&ledger));
    a.request(4.0);
    a.request(6.0);
    double remaining = a.remainingBudget();
    ASSERT_LT(remaining, 10.0);
    ASSERT_TRUE(a.checkpointToLedger());

    BudgetLedger rebooted(flash, checkpointLedgerConfig(10.0));
    ASSERT_TRUE(rebooted.mount());
    BudgetController b(p, cfg);
    EXPECT_TRUE(b.attachLedger(&rebooted));
    EXPECT_DOUBLE_EQ(b.remainingBudget(), remaining);
    EXPECT_EQ(b.faultStats().checkpoint_restore_failures, 0u);
}

TEST(BudgetCheckpoint, CorruptionRestoresToZeroBudget)
{
    FxpMechanismParams p = testParams();
    auto cfg = testConfig(p, RangeControl::Thresholding, 10.0);
    NorFlashModel flash(campaignFlash());
    {
        BudgetLedger ledger(flash, checkpointLedgerConfig(10.0));
        ASSERT_TRUE(ledger.mount());
        BudgetController a(p, cfg);
        ASSERT_TRUE(a.attachLedger(&ledger));
        ASSERT_FALSE(a.request(4.0).from_cache);
    }
    // Bit 23 of the only checkpoint's payload (the genesis record in
    // the first slot of block 0: 10 nats = 0xA00000 quanta) clears.
    // Its CRC fails, and the journaled spend is left with no
    // checkpoint to anchor it.
    const uint64_t payload_byte = BudgetLedger::kHeaderSize + 16 + 2;
    uint8_t old_byte = 0;
    flash.read(payload_byte, &old_byte, 1);
    ASSERT_EQ(old_byte, 0xA0);
    const uint8_t flipped = 0x20;
    ASSERT_TRUE(flash.program(payload_byte, &flipped, 1));

    BudgetLedger corrupt(flash, checkpointLedgerConfig(10.0));
    EXPECT_FALSE(corrupt.mount());
    BudgetController b(p, cfg);
    EXPECT_FALSE(b.attachLedger(&corrupt));
    EXPECT_EQ(b.faultStats().checkpoint_restore_failures, 1u);
    EXPECT_DOUBLE_EQ(b.remainingBudget(), 0.0);

    // With zero budget and an empty cache the device can only serve
    // the range midpoint -- a constant, not a replay of the report.
    BudgetResponse r = b.request(9.0);
    EXPECT_TRUE(r.from_cache);
    EXPECT_DOUBLE_EQ(r.value, p.range.mid());
}

// ---------------------------------------------------------------------
// Sensor-bus faults, retry and degradation.
// ---------------------------------------------------------------------

struct ScriptedBusHook : FaultHook
{
    std::vector<BusFaultKind> script;
    size_t at = 0;

    BusFaultKind
    busFault() override
    {
        if (at >= script.size())
            return BusFaultKind::None;
        return script[at++];
    }

    uint8_t
    corruptBusByte(uint8_t byte) override
    {
        return byte ^ 0x40;
    }
};

TEST(SensorBusFaults, CleanReadDeliversTheSample)
{
    SensorBus bus(16e6, 400e3);
    BusReadResult r = bus.readSample(13, 0x1234, nullptr);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 0x1234);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(SensorBusFaults, CorruptionIsDetectedAndRetried)
{
    SensorBus bus(16e6, 400e3);
    ScriptedBusHook hook;
    hook.script = {BusFaultKind::CorruptByte};
    FaultStats stats;
    BusReadResult r = bus.readSample(13, 0x0ABC, &hook, {}, &stats);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 0x0ABC)
        << "the corrupted attempt must not leak through";
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(stats.bus_retries, 1u);
    EXPECT_EQ(stats.bus_degradations, 0u);
}

TEST(SensorBusFaults, PersistentFaultDegradesAfterRetryBudget)
{
    SensorBus bus(16e6, 400e3);
    ScriptedBusHook hook;
    hook.script = {BusFaultKind::Nack, BusFaultKind::Timeout,
                   BusFaultKind::Nack};
    FaultStats stats;
    BusRetryPolicy policy;
    BusReadResult r = bus.readSample(13, 0x0ABC, &hook, policy, &stats);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.attempts, policy.max_attempts);
    EXPECT_EQ(stats.bus_retries, 2u);
    EXPECT_EQ(stats.bus_degradations, 1u);
}

TEST(SensorBusFaults, BackoffDoublesBetweenAttempts)
{
    SensorBus bus(16e6, 400e3);
    ScriptedBusHook hook;
    hook.script = {BusFaultKind::Nack, BusFaultKind::Nack,
                   BusFaultKind::Nack};
    BusRetryPolicy policy;
    policy.backoff_base_cycles = 32;
    BusReadResult r = bus.readSample(13, 0, &hook, policy, nullptr);
    // 3 aborted address phases + backoffs of 32 and 64 cycles.
    EXPECT_EQ(r.cycles, 3 * bus.readCycles(0) + 32 + 64);
}

// ---------------------------------------------------------------------
// FaultInjector determinism.
// ---------------------------------------------------------------------

FaultCampaignConfig
noisyCampaign(uint64_t seed)
{
    FaultCampaignConfig cfg;
    cfg.seed = seed;
    cfg.urng_flip_rate = 0.05;
    cfg.urng_stuck_rate = 0.001;
    cfg.table_seu_rate = 0.05;
    cfg.bus_nack_rate = 0.1;
    cfg.bus_timeout_rate = 0.05;
    cfg.bus_corrupt_rate = 0.1;
    cfg.power_loss_rate = 0.02;
    cfg.timer_glitch_rate = 0.05;
    return cfg;
}

TEST(FaultInjector, EqualSeedsReplayEqualCampaigns)
{
    FaultInjector a(noisyCampaign(42));
    FaultInjector b(noisyCampaign(42));
    Tausworthe words(3);

    for (int i = 0; i < 2000; ++i) {
        uint32_t w = words.next32();
        EXPECT_EQ(a.urngWord(w), b.urngWord(w));
        EXPECT_EQ(a.busFault(), b.busFault());
        EXPECT_EQ(a.replenishGlitch(), b.replenishGlitch());
        a.tick();
        b.tick();
        EXPECT_EQ(a.powerLossPending(), b.powerLossPending());
        size_t byte_a = 0, byte_b = 0;
        int bit_a = 0, bit_b = 0;
        EXPECT_EQ(a.tableSeuPending(byte_a, bit_a, 4096),
                  b.tableSeuPending(byte_b, bit_b, 4096));
        EXPECT_EQ(byte_a, byte_b);
        EXPECT_EQ(bit_a, bit_b);
    }
    EXPECT_EQ(a.stats().total(), b.stats().total());
    EXPECT_GT(a.stats().total(), 0u);
}

TEST(FaultInjector, RejectsBadRates)
{
    FaultCampaignConfig cfg;
    cfg.urng_flip_rate = 1.5;
    EXPECT_THROW(FaultInjector{cfg}, FatalError);

    FaultCampaignConfig bus;
    bus.bus_nack_rate = 0.5;
    bus.bus_timeout_rate = 0.4;
    bus.bus_corrupt_rate = 0.2;
    EXPECT_THROW(FaultInjector{bus}, FatalError);
}

TEST(FaultInjector, StuckFaultLatchesTheOutputWord)
{
    FaultCampaignConfig cfg;
    cfg.seed = 5;
    cfg.urng_stuck_rate = 1.0;
    FaultInjector inj(cfg);
    uint32_t first = inj.urngWord(0x11111111);
    EXPECT_EQ(inj.urngWord(0x22222222), first);
    EXPECT_EQ(inj.urngWord(0x33333333), first);
    EXPECT_EQ(inj.stats().urng_stuck_events, 1u);
}

// ---------------------------------------------------------------------
// Whole-support loss enumeration: every configured segment window
// keeps its loss below the outermost n * eps level.
// ---------------------------------------------------------------------

TEST(FaultCampaign, EverySegmentWindowStaysWithinTheLossBound)
{
    FxpMechanismParams p = testParams();
    double bound = 3.0 * p.epsilon + 1e-9;
    for (RangeControl kind :
         {RangeControl::Thresholding, RangeControl::Resampling}) {
        ThresholdCalculator calc(p);
        auto cfg = testConfig(p, kind);
        for (const BudgetSegment &seg : cfg.segments) {
            auto model = makeModel(calc, kind, seg.threshold_index);
            auto loss = perOutputLoss(*model);
            for (size_t j = 0; j < loss.size(); ++j) {
                if (std::isinf(loss[j])) {
                    // Interior PMF gap: unreachable for every input,
                    // so a healthy device never emits it. Verify it
                    // really is unreachable rather than one-sided.
                    int64_t abs_j = model->outputLo() +
                                    static_cast<int64_t>(j);
                    for (int64_t i = 0; i <= model->span(); ++i)
                        EXPECT_EQ(model->prob(abs_j, i), 0.0);
                    continue;
                }
                EXPECT_LE(loss[j], bound);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The chaos campaign: 10k transactions against a hardened budget
// controller with every fault site firing.
// ---------------------------------------------------------------------

struct CampaignOutcome
{
    uint64_t transactions = 0;
    uint64_t fresh_reports = 0;
    uint64_t violations = 0;
    uint64_t boots = 1;
    double total_charged = 0.0;
    FaultStats device_stats;
    FaultInjectionStats injected;
};

/**
 * Run one seeded campaign against a BudgetController behind a faulty
 * sensor bus. The hardened device journals its budget to a flash
 * ledger that persists across boots and remounts it after every
 * power loss, including the ones that cut a journal write. Violations
 * counted: a fresh report outside the outermost window or with
 * enumerated loss above the bound, remaining budget growing across a
 * request, a reboot restoring more budget than the released reports
 * left, a panic escaping the controller, or total charged loss
 * exceeding the replenishment-adjusted budget.
 */

CampaignOutcome
runControllerCampaign(RangeControl kind, uint64_t seed, bool hardened,
                      uint64_t transactions)
{
    // Campaigns warn (or panic, unhardened) on every detection;
    // thousands of transactions of that would drown the test output.
    setLoggingEnabled(false);
    FxpMechanismParams p = testParams(seed);
    p.rng_integrity_checks = hardened;
    // Budget tight enough that most replenishment epochs exhaust it:
    // a reboot that replays spent budget then visibly overspends.
    auto cfg = testConfig(p, kind, 20.0);
    cfg.fail_secure = hardened;
    cfg.table_scrub_period = hardened ? 256 : 0;
    cfg.replenish_period = 1000;

    ThresholdCalculator calc(p);
    int64_t outer = cfg.segments.back().threshold_index;
    auto outer_model = makeModel(calc, kind, outer);
    auto loss = perOutputLoss(*outer_model);
    double bound = 3.0 * p.epsilon + 1e-9;
    double delta = p.resolvedDelta();
    int64_t out_lo = outer_model->outputLo();
    int64_t out_hi = outer_model->outputHi();

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

    NorFlashModel flash(campaignFlash());
    flash.attachFaultHook(&injector);
    BudgetLedgerConfig lcfg;
    lcfg.initial_budget = cfg.initial_budget;
    lcfg.max_record_loss = 2.0; // >= the outermost segment charge
    BudgetLedger ledger(flash, lcfg);

    SensorBus bus(16e6, 400e3);
    RngHealthMonitor health;
    CampaignOutcome outcome;
    outcome.transactions = transactions;

    auto boot = [&](uint64_t n) {
        FxpMechanismParams bp = p;
        bp.seed = seed + 1000 * n; // reseeded from a TRNG at boot
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
    // refill. The ledger's own live count is no bound: it includes
    // fail-secure charges for torn records, which drop out once a
    // checkpoint covers them and their block is recycled.
    double true_remaining = cfg.initial_budget;

    for (uint64_t t = 0; t < transactions; ++t) {
        injector.tick();

        // A cut journal write is a power loss too.
        bool power_lost = injector.powerLossPending();
        power_lost |= !flash.alive();
        if (power_lost) {
            outcome.device_stats += ctrl->faultStats();
            ++outcome.boots;
            ctrl = boot(outcome.boots);
            if (hardened && ctrl->remainingBudget() > true_remaining)
                ++outcome.violations; // a reboot resurrected budget
            // Unhardened silicon restores nothing: the budget lives
            // in volatile registers and reboots at its full initial
            // value -- the power-loss replay the ledger exists to
            // prevent. No refill is legal here, so the overspend
            // shows up against spend_cap below.
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
        outcome.device_stats += bus_stats;

        double prev_remaining = ctrl->remainingBudget();
        bool pre_latched = ctrl->faultLatched();
        BudgetResponse resp;
        bool panicked = false;
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
            panicked = true;
        }
        if (panicked) {
            ++outcome.violations;
            continue;
        }
        true_remaining -= resp.charged;

        if (ctrl->remainingBudget() > prev_remaining)
            ++outcome.violations; // budget grew across a request
        if (pre_latched && !resp.from_cache)
            ++outcome.violations; // fresh draw after fail-secure latch

        if (!resp.from_cache) {
            ++outcome.fresh_reports;
            outcome.total_charged += resp.charged;
            int64_t j = std::llround(resp.value / delta);
            if (j < out_lo || j > out_hi) {
                ++outcome.violations; // escaped the outermost window
            } else {
                double l = loss[static_cast<size_t>(j - out_lo)];
                if (!(l <= bound))
                    ++outcome.violations; // loss above n * eps
            }
        }

        // Device time advances; replenishment is legal every
        // replenish_period ticks.
        const double before = ctrl->remainingBudget();
        ctrl->advanceTime(10);
        if (ctrl->remainingBudget() > before)
            true_remaining = ctrl->remainingBudget(); // refilled
        ticks_accumulated += 10;
        if (ticks_accumulated >= cfg.replenish_period) {
            ticks_accumulated -= cfg.replenish_period;
            ++refills_possible;
        }
    }

    // Accounting invariant: the total charged loss can never exceed
    // one full budget per legal replenishment opportunity. The
    // hardened device stays under this cap because the ledger restore
    // is monotone; the unhardened device replays its budget on every
    // reboot and overspends it.
    double spend_cap =
        static_cast<double>(refills_possible) * cfg.initial_budget;
    if (outcome.total_charged > spend_cap)
        ++outcome.violations;

    outcome.device_stats += ctrl->faultStats();
    outcome.injected = injector.stats();
    setLoggingEnabled(true);
    return outcome;
}

TEST(FaultCampaign, HardenedControllerSurvives10kTransactions)
{
    for (RangeControl kind :
         {RangeControl::Thresholding, RangeControl::Resampling}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            CampaignOutcome o =
                runControllerCampaign(kind, seed, true, 10000);
            EXPECT_EQ(o.violations, 0u)
                << "kind=" << static_cast<int>(kind)
                << " seed=" << seed;
            EXPECT_GT(o.injected.total(), 100u)
                << "campaign must actually inject faults";
            EXPECT_GT(o.fresh_reports, 0u);
            inform("campaign kind=%d seed=%llu: %llu faults injected, "
                   "%llu detected, %llu fresh reports, %llu boots",
                   static_cast<int>(kind),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(o.injected.total()),
                   static_cast<unsigned long long>(
                       o.device_stats.detections()),
                   static_cast<unsigned long long>(o.fresh_reports),
                   static_cast<unsigned long long>(o.boots));
        }
    }
}

TEST(FaultCampaign, HardenedCampaignActuallyDetectsFaults)
{
    CampaignOutcome o = runControllerCampaign(
        RangeControl::Resampling, 1, true, 10000);
    EXPECT_GT(o.device_stats.detections(), 0u)
        << "a campaign that injects faults but detects none is not "
           "exercising the hardening";
}

TEST(FaultCampaign, UnhardenedCampaignViolatesInvariants)
{
    // Same sites, same rates, hardening off: at least one invariant
    // must demonstrably break (this is the proof that the hardened
    // run's zero-violation result is not vacuous).
    uint64_t violations = 0;
    for (uint64_t seed : {1u, 2u, 3u}) {
        CampaignOutcome o = runControllerCampaign(
            RangeControl::Resampling, seed, false, 10000);
        violations += o.violations;
    }
    EXPECT_GT(violations, 0u);
}

TEST(FaultCampaign, UnhardenedTableCorruptionEscapesTheWindow)
{
    // Deterministic teeth for the table-SEU site alone: corrupt the
    // guide wholesale with integrity checks off and watch an output
    // escape the analysed support (truncated draws read the guide at
    // the state of their rank).
    FxpMechanismParams p = testParams();
    p.rng_integrity_checks = false;
    auto cfg = testConfig(p, RangeControl::Resampling);
    cfg.fail_secure = false;
    cfg.table_scrub_period = 0;
    BudgetController ctrl(p, cfg);

    LaplaceSampleTable *table = ctrl.rng().mutableTable();
    ASSERT_NE(table, nullptr);
    size_t guide_bytes = size_t{2} << table->guideBits();
    for (size_t off = 1; off < guide_bytes; off += 2)
        table->flipBit(off, 6);

    int64_t outer = cfg.segments.back().threshold_index;
    double delta = p.resolvedDelta();
    uint64_t violations = 0;
    setLoggingEnabled(false); // every escaped output panics loudly
    for (int t = 0; t < 64; ++t) {
        try {
            BudgetResponse r = ctrl.request(5.0);
            if (r.from_cache)
                continue;
            int64_t j = std::llround(r.value / delta);
            if (j < -outer || j > 32 + outer)
                ++violations;
        } catch (const PanicError &) {
            ++violations; // output beyond the outermost segment
        }
    }
    setLoggingEnabled(true);
    EXPECT_GT(violations, 0u);
}

// ---------------------------------------------------------------------
// DpBox-level campaigns: timer glitches and stuck URNGs against the
// cycle-level device, audited by the trace invariant checker.
// ---------------------------------------------------------------------

DpBoxConfig
boxConfig(bool hardened, uint64_t seed)
{
    DpBoxConfig cfg;
    cfg.threshold_index = 64;
    cfg.budget_enabled = true;
    cfg.segments = {{0, 0.35}, {32, 0.7}, {64, 1.05}};
    cfg.harden_faults = hardened;
    cfg.seed = seed;
    return cfg;
}

void
bootBox(DpBoxTracer &tracer, DpBox &box, double budget,
        uint64_t period)
{
    tracer.step(DpBoxCommand::SetEpsilon,
                std::llround(budget * 256.0));
    tracer.step(DpBoxCommand::SetRangeUpper,
                static_cast<int64_t>(period));
    tracer.step(DpBoxCommand::StartNoising);
    tracer.step(DpBoxCommand::SetEpsilon, 1); // n_m = 1, eps = 0.5
    tracer.step(DpBoxCommand::SetRangeLower, box.toRaw(0.0));
    tracer.step(DpBoxCommand::SetRangeUpper, box.toRaw(10.0));
}

uint64_t
noiseOnce(DpBoxTracer &tracer, DpBox &box, double x)
{
    tracer.step(DpBoxCommand::SetSensorValue, box.toRaw(x));
    tracer.step(DpBoxCommand::StartNoising);
    uint64_t guard = 0;
    while (!box.ready()) {
        tracer.step(DpBoxCommand::DoNothing);
        ULPDP_ASSERT(++guard < (uint64_t{1} << 20));
    }
    return guard;
}

TEST(DpBoxFaults, HardenedBoxRejectsTimerGlitches)
{
    DpBox box(boxConfig(true, 9));
    DpBoxTracer tracer(box);
    FaultCampaignConfig fc;
    fc.seed = 9;
    fc.timer_glitch_rate = 0.02;
    FaultInjector injector(fc);
    box.attachFaultHook(&injector);

    bootBox(tracer, box, 20.0, 100000);
    for (int t = 0; t < 2000; ++t)
        noiseOnce(tracer, box, static_cast<double>(t % 11));

    EXPECT_GT(injector.stats().timer_glitches, 0u);
    EXPECT_GT(box.faultStats().timer_glitches_rejected, 0u);
    TraceCheckResult check = tracer.check();
    EXPECT_TRUE(check.ok) << check.violation;
}

TEST(DpBoxFaults, UnhardenedTimerGlitchReplenishesEarly)
{
    DpBox box(boxConfig(false, 9));
    DpBoxTracer tracer(box);
    FaultCampaignConfig fc;
    fc.seed = 9;
    fc.timer_glitch_rate = 0.02;
    FaultInjector injector(fc);
    box.attachFaultHook(&injector);

    bootBox(tracer, box, 20.0, 100000);
    for (int t = 0; t < 2000; ++t)
        noiseOnce(tracer, box, static_cast<double>(t % 11));

    TraceCheckResult check = tracer.check();
    EXPECT_FALSE(check.ok)
        << "the glitched timer must refill spent budget early, which "
           "the budget-soundness invariant catches";
}

struct StuckHighHook : FaultHook
{
    uint32_t
    urngWord(uint32_t) override
    {
        return 0xFFFFFFFFu;
    }
};

TEST(DpBoxFaults, UnhardenedStuckUrngRevealsTrueReadings)
{
    // A URNG stuck all-ones makes u ~= 1, so ln(u) ~= 0 and the
    // Laplace noise quantizes to exactly zero: the device releases
    // the true sensor readings. This is the catastrophic failure the
    // health tests exist for.
    DpBox box(boxConfig(false, 21));
    DpBoxTracer tracer(box);
    StuckHighHook hook;
    box.attachFaultHook(&hook);

    bootBox(tracer, box, 1000.0, 0);
    for (double x : {1.0, 3.7, 9.2, 5.5}) {
        noiseOnce(tracer, box, x);
        EXPECT_EQ(box.output(), box.toRaw(x))
            << "stuck URNG turned the mechanism into the identity";
    }
}

TEST(DpBoxFaults, HardenedStuckUrngLatchesWithinCutoff)
{
    DpBox box(boxConfig(true, 21));
    DpBoxTracer tracer(box);
    StuckHighHook hook;
    box.attachFaultHook(&hook);

    bootBox(tracer, box, 1000.0, 0);
    // The repetition-count test needs cutoff (3) identical words; the
    // first transaction's sample was drawn from only two, so at most
    // one suspect report escapes before the latch -- the detection
    // latency floor of any continuous health test.
    noiseOnce(tracer, box, 2.0);
    int64_t frozen = box.output();
    for (double x : {7.0, 9.9, 0.3}) {
        noiseOnce(tracer, box, x);
        EXPECT_EQ(box.output(), frozen);
    }
    EXPECT_TRUE(box.faultLatched());
    EXPECT_GE(box.faultStats().urng_health_alarms, 1u);
    EXPECT_GE(box.faultStats().fail_secure_reports, 3u);
    TraceCheckResult check = tracer.check();
    EXPECT_TRUE(check.ok) << check.violation;
}

TEST(DpBoxFaults, MixedCampaignKeepsTraceInvariants)
{
    // URNG flips + occasional stuck faults + timer glitches together
    // against the hardened box: whatever fires, the trace stays
    // invariant-clean (containment, budget soundness, fail-secure
    // discipline).
    for (uint64_t seed : {4u, 5u, 6u}) {
        DpBox box(boxConfig(true, seed));
        DpBoxTracer tracer(box);
        FaultCampaignConfig fc;
        fc.seed = seed;
        fc.urng_flip_rate = 0.01;
        fc.urng_stuck_rate = 0.0005;
        fc.timer_glitch_rate = 0.005;
        FaultInjector injector(fc);
        box.attachFaultHook(&injector);

        bootBox(tracer, box, 50.0, 20000);
        for (int t = 0; t < 3000; ++t)
            noiseOnce(tracer, box, static_cast<double>(t % 11));

        TraceCheckResult check = tracer.check();
        EXPECT_TRUE(check.ok)
            << "seed " << seed << ": " << check.violation;
    }
}

} // anonymous namespace
} // namespace ulpdp
