/**
 * @file
 * Tests of the batch sampling layer: the TausBank lane-determinism
 * rule (lane l bit-identical to the scalar Tausworthe twin, SIMD or
 * not), the BatchSampler rect contracts against the per-draw scalar
 * sampler, the degenerate-seed bump parity with the scalar
 * constructor, the integrity-bail fallback semantics, the mechanism
 * sampleBatch == looped noise() equivalence, and the fleet
 * fingerprint's immunity to every batch-layer switch.
 */

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/resampling_mechanism.h"
#include "core/thresholding_mechanism.h"
#include "fleet/fleet.h"
#include "rng/batch_sampler.h"
#include "rng/fxp_laplace.h"
#include "rng/fxp_laplace_pmf.h"
#include "rng/laplace_table.h"
#include "rng/taus_bank.h"
#include "rng/tausworthe.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace ulpdp {
namespace {

constexpr size_t kLanes = TausBank::kMaxLanes;

/** Pin (or unpin) the portable kernel for one scope; always restores
 *  the default so test order cannot leak state. */
struct ScopedScalarKernel
{
    explicit ScopedScalarKernel(bool force)
    {
        TausBank::forceScalarKernel(force);
    }
    ~ScopedScalarKernel() { TausBank::forceScalarKernel(false); }
};

/** Route fleet blocks through the scalar path for one scope. */
struct ScopedScalarBlocks
{
    ScopedScalarBlocks() { FleetRunner::forceScalarBlocks(true); }
    ~ScopedScalarBlocks() { FleetRunner::forceScalarBlocks(false); }
};

/** A table-path RNG configuration at the given URNG width. The
 *  paper-style scale (Lap(20) on Delta = 10/32) keeps the magnitude
 *  span well inside the 14-bit output word, so the saturation
 *  comparator only ever fires on genuine corruption. */
FxpLaplaceConfig
tableConfig(int uniform_bits)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = uniform_bits;
    cfg.output_bits = 14;
    cfg.delta = 10.0 / 32.0;
    cfg.lambda = 20.0;
    cfg.sample_path = FxpLaplaceConfig::SamplePath::Table;
    return cfg;
}

// ---------------------------------------------------------------------
// SplitMix64 finalizer inversion (same recipe as the seeder tests):
// crafting degenerate seeds beats the ~2^27-try random search.
// ---------------------------------------------------------------------

uint64_t
mulInverse(uint64_t a)
{
    uint64_t x = a;
    for (int i = 0; i < 6; ++i)
        x *= 2 - a * x;
    return x;
}

uint64_t
invXorShift(uint64_t z, int shift)
{
    uint64_t x = z;
    for (int i = 0; i < 7; ++i)
        x = z ^ (x >> shift);
    return x;
}

uint64_t
smFinalizeInverse(uint64_t z)
{
    z = invXorShift(z, 31);
    z *= mulInverse(0x94d049bb133111ebULL);
    z = invXorShift(z, 27);
    z *= mulInverse(0xbf58476d1ce4e5b9ULL);
    z = invXorShift(z, 30);
    return z;
}

constexpr uint64_t kSmGamma = 0x9e3779b97f4a7c15ULL;

// ---------------------------------------------------------------------
// TausBank: lane determinism
// ---------------------------------------------------------------------

TEST(TausBank, LanesBitIdenticalToScalarTwins)
{
    // The core contract: lane l of the bank reproduces the word
    // sequence of a scalar Tausworthe(seeds[l]) exactly -- on both the
    // portable kernel and whatever SIMD kernel this host runs.
    for (bool force : {false, true}) {
        ScopedScalarKernel guard(force);

        uint64_t seeds[kLanes];
        TausBank::deriveLaneSeeds(0xfeedULL, seeds, kLanes);
        TausBank bank(seeds, kLanes);

        std::vector<Tausworthe> twins;
        for (size_t l = 0; l < kLanes; ++l)
            twins.emplace_back(seeds[l]);

        uint32_t words[kLanes];
        uint64_t mismatches = 0;
        for (size_t step = 0; step < 100000; ++step) {
            bank.nextWords(words);
            for (size_t l = 0; l < kLanes; ++l)
                mismatches += words[l] != twins[l].next32();
        }
        EXPECT_EQ(mismatches, 0u) << "forced scalar: " << force;

        // Final component states line up too, so a stream handed back
        // to a scalar generator continues seamlessly.
        for (size_t l = 0; l < kLanes; ++l) {
            EXPECT_EQ(bank.s1(l), twins[l].s1());
            EXPECT_EQ(bank.s2(l), twins[l].s2());
            EXPECT_EQ(bank.s3(l), twins[l].s3());
        }
    }
}

TEST(TausBank, KernelSchedulesProduceIdenticalWords)
{
    // SIMD and portable kernels are alternative schedules of the same
    // arithmetic: same seeds, same words, bit for bit. (On hosts
    // without a compiled-in SIMD kernel both runs take the portable
    // path and the test is trivially green.)
    uint64_t seeds[kLanes];
    TausBank::deriveLaneSeeds(0x5eedULL, seeds, kLanes);

    std::vector<uint32_t> simd_words;
    {
        TausBank bank(seeds, kLanes);
        uint32_t w[kLanes];
        for (size_t step = 0; step < 65536; ++step) {
            bank.nextWords(w);
            simd_words.insert(simd_words.end(), w, w + kLanes);
        }
    }

    ScopedScalarKernel guard(true);
    TausBank bank(seeds, kLanes);
    uint32_t w[kLanes];
    uint64_t mismatches = 0;
    for (size_t step = 0; step < 65536; ++step) {
        bank.nextWords(w);
        for (size_t l = 0; l < kLanes; ++l)
            mismatches += w[l] != simd_words[step * kLanes + l];
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(TausBank, SeedAppliesScalarConstructorBumpsPerLane)
{
    // Crafted degenerate seeds (component word below its LFSR
    // minimum) must land each lane in the exact state the scalar
    // constructor's minimum-enforcement bumps produce -- the bank must
    // not invent its own seeding rule, or a lane would silently fork
    // from its scalar twin.
    uint64_t seeds[kLanes];
    TausBank::deriveLaneSeeds(0xabcULL, seeds, kLanes);
    seeds[0] = smFinalizeInverse(0xdeadbeef00000000ULL) - kSmGamma;
    seeds[1] = smFinalizeInverse(0x1234567800000005ULL) - 2 * kSmGamma;
    seeds[2] = smFinalizeInverse(0xcafef00d0000000fULL) - 3 * kSmGamma;
    seeds[3] = 0;
    ASSERT_TRUE(Tausworthe::seedDegenerate(seeds[0]));
    ASSERT_TRUE(Tausworthe::seedDegenerate(seeds[1]));
    ASSERT_TRUE(Tausworthe::seedDegenerate(seeds[2]));
    ASSERT_TRUE(Tausworthe::seedDegenerate(seeds[3]));

    TausBank bank(seeds, kLanes);
    std::vector<Tausworthe> twins;
    for (size_t l = 0; l < kLanes; ++l)
        twins.emplace_back(seeds[l]);

    for (size_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(bank.s1(l), twins[l].s1()) << "lane " << l;
        EXPECT_EQ(bank.s2(l), twins[l].s2()) << "lane " << l;
        EXPECT_EQ(bank.s3(l), twins[l].s3()) << "lane " << l;
    }

    uint32_t words[kLanes];
    uint64_t mismatches = 0;
    for (size_t step = 0; step < 10000; ++step) {
        bank.nextWords(words);
        for (size_t l = 0; l < kLanes; ++l)
            mismatches += words[l] != twins[l].next32();
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(TausBank, DeriveLaneSeedsCleanDistinctDeterministic)
{
    for (uint64_t master : {uint64_t{0}, uint64_t{1},
                            uint64_t{0xdeadbeefULL}, ~uint64_t{0}}) {
        uint64_t a[kLanes], b[kLanes];
        TausBank::deriveLaneSeeds(master, a, kLanes);
        TausBank::deriveLaneSeeds(master, b, kLanes);
        for (size_t i = 0; i < kLanes; ++i) {
            EXPECT_FALSE(Tausworthe::seedDegenerate(a[i]));
            EXPECT_EQ(a[i], b[i]);
            for (size_t j = i + 1; j < kLanes; ++j)
                EXPECT_NE(a[i], a[j]);
        }
    }
}

TEST(TausBank, AdoptStateAndLaneStepInterleaveWithLockstep)
{
    // Mid-stream adoption plus arbitrary interleaving of full-width
    // steps and single-lane fixup steps: every lane must observe the
    // same word sequence as its scalar twin no matter how the two
    // entry points mix (this is what the truncated-rect rejection
    // fixups lean on).
    std::vector<Tausworthe> twins;
    twins.emplace_back(11u);
    twins.emplace_back(22u);
    twins.emplace_back(33u);
    for (int i = 0; i < 1000; ++i)
        twins[0].next32();
    for (int i = 0; i < 77; ++i)
        twins[2].next32();

    uint32_t s1[3], s2[3], s3[3];
    for (size_t l = 0; l < 3; ++l) {
        s1[l] = twins[l].s1();
        s2[l] = twins[l].s2();
        s3[l] = twins[l].s3();
    }
    TausBank bank;
    bank.adoptState(s1, s2, s3, 3);

    uint32_t words[3];
    for (size_t step = 0; step < 5000; ++step) {
        if (step % 3 == 1) {
            size_t lane = step % bank.lanes();
            EXPECT_EQ(bank.next32Lane(lane), twins[lane].next32());
        } else {
            bank.nextWords(words);
            for (size_t l = 0; l < 3; ++l)
                EXPECT_EQ(words[l], twins[l].next32());
        }
    }
}

// ---------------------------------------------------------------------
// BatchSampler: rect contracts against the per-draw scalar sampler
// ---------------------------------------------------------------------

TEST(BatchSampler, RectMatchesScalarDrawsAcrossUniformBits)
{
    // Lane-vs-scalar sweep: Bu in {8, 12, 16}, >= 10^6 unbounded
    // draws per lane, every draw compared bit-for-bit against the
    // per-draw scalar fast path on the same stream.
    for (int bu : {8, 12, 16}) {
        FxpLaplaceConfig cfg = tableConfig(bu);
        FxpLaplaceRng proto(cfg, 1);
        auto table = proto.sharedTable();
        ASSERT_NE(table, nullptr) << "Bu " << bu;

        uint64_t seeds[kLanes];
        TausBank::deriveLaneSeeds(0xb00b5ULL + bu, seeds, kLanes);
        BatchSampler bs(table, bu, proto.quantizer().maxIndex());
        bs.seedLanes(seeds, kLanes);

        std::vector<FxpLaplaceRng> refs;
        for (size_t l = 0; l < kLanes; ++l)
            refs.emplace_back(cfg, seeds[l]);

        constexpr size_t kTrials = 512;
        constexpr size_t kChunks = 2048; // > 10^6 draws per lane
        std::vector<int64_t> rect(kTrials * kLanes);
        uint64_t mismatches = 0;
        for (size_t c = 0; c < kChunks; ++c) {
            ASSERT_TRUE(bs.sampleRect(rect.data(), kTrials));
            for (size_t t = 0; t < kTrials; ++t)
                for (size_t l = 0; l < kLanes; ++l)
                    mismatches += rect[t * kLanes + l] !=
                                  refs[l].sampleIndexFast();
        }
        EXPECT_EQ(mismatches, 0u) << "Bu " << bu;
    }
}

TEST(BatchSampler, TruncatedRectMatchesScalarDrawsAcrossUniformBits)
{
    // Same sweep for the window-confined path: lane l's column must
    // equal repeated sampleIndexTruncated(win[l]) on lane l's stream,
    // with a different window per lane so the hoisted per-lane
    // acceptance masses and rank widths all differ.
    for (int bu : {8, 12, 16}) {
        FxpLaplaceConfig cfg = tableConfig(bu);
        FxpLaplaceRng proto(cfg, 1);
        auto table = proto.sharedTable();
        ASSERT_NE(table, nullptr) << "Bu " << bu;

        uint64_t seeds[kLanes];
        TausBank::deriveLaneSeeds(0x7247ULL + bu, seeds, kLanes);
        BatchSampler bs(table, bu, proto.quantizer().maxIndex());
        bs.seedLanes(seeds, kLanes);

        BatchSampler::Window win[kLanes];
        for (size_t l = 0; l < kLanes; ++l) {
            win[l].lo = -static_cast<int64_t>(2 + 3 * l);
            win[l].hi = static_cast<int64_t>(1 + (5 * l) % 23);
        }

        std::vector<FxpLaplaceRng> refs;
        for (size_t l = 0; l < kLanes; ++l)
            refs.emplace_back(cfg, seeds[l]);

        constexpr size_t kTrials = 512;
        constexpr size_t kChunks = 2048; // > 10^6 draws per lane
        std::vector<int64_t> rect(kTrials * kLanes);
        uint64_t mismatches = 0;
        for (size_t c = 0; c < kChunks; ++c) {
            ASSERT_TRUE(
                bs.sampleTruncatedRect(win, rect.data(), kTrials));
            for (size_t t = 0; t < kTrials; ++t)
                for (size_t l = 0; l < kLanes; ++l) {
                    int64_t want = 0;
                    ASSERT_TRUE(refs[l].sampleIndexTruncated(
                        win[l].lo, win[l].hi, want));
                    mismatches += rect[t * kLanes + l] != want;
                }
        }
        EXPECT_EQ(mismatches, 0u) << "Bu " << bu;
    }
}

TEST(BatchSampler, RectsMatchScalarDrawsAtBu32)
{
    // Bu = 32: the magnitude index is the whole word, and a truncated
    // rank over plus + minus <= 2^33 states needs 33 bits, i.e. two
    // words per attempt. Odd lanes get windows holding more than 2^32
    // accepted states, even lanes narrow ones, so one rect mixes both
    // word counts.
    FxpLaplaceConfig cfg = tableConfig(32);
    FxpLaplaceRng proto(cfg, 1);
    auto table = proto.sharedTable();
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(Tausworthe::unitRankOf(0, 32), 0u); // m = 2^32
    EXPECT_EQ(table->lookup(uint64_t{1} << 32), 0);

    BatchSampler::Window win[kLanes];
    int two_word_lanes = 0;
    for (size_t l = 0; l < kLanes; ++l) {
        const int64_t j = static_cast<int64_t>(l);
        win[l] = l % 2 ? BatchSampler::Window{-60 - 7 * j, 50 + 5 * j}
                       : BatchSampler::Window{-4 - j, 3 + j};
        two_word_lanes +=
            table->rankWindow(win[l].lo, win[l].hi).words() == 2;
    }
    ASSERT_EQ(two_word_lanes, static_cast<int>(kLanes / 2));
    // A 33-bit rank is the first word then the top bit of the second.
    LaplaceSampleTable::RankWindow w33 = table->rankWindow(-100, 100);
    ASSERT_EQ(w33.width, 33);
    EXPECT_EQ(w33.rank(0u, 0x80000000u), 1u);
    EXPECT_EQ(w33.rank(0x80000000u, 0x7fffffffu), uint64_t{1} << 32);

    uint64_t seeds[kLanes];
    TausBank::deriveLaneSeeds(0x3232ULL, seeds, kLanes);
    constexpr size_t kTrials = 4096;
    std::vector<int64_t> rect(kTrials * kLanes);

    BatchSampler bs(table, 32, proto.quantizer().maxIndex());
    bs.seedLanes(seeds, kLanes);
    ASSERT_TRUE(bs.sampleRect(rect.data(), kTrials));
    uint64_t mismatches = 0;
    for (size_t l = 0; l < kLanes; ++l) {
        FxpLaplaceRng ref(cfg, seeds[l]);
        for (size_t t = 0; t < kTrials; ++t)
            mismatches += rect[t * kLanes + l] != ref.sampleIndexFast();
    }
    EXPECT_EQ(mismatches, 0u);

    bs.seedLanes(seeds, kLanes);
    ASSERT_TRUE(bs.sampleTruncatedRect(win, rect.data(), kTrials));
    for (size_t l = 0; l < kLanes; ++l) {
        FxpLaplaceRng ref(cfg, seeds[l]);
        for (size_t t = 0; t < kTrials; ++t) {
            int64_t want = 0;
            ASSERT_TRUE(
                ref.sampleIndexTruncated(win[l].lo, win[l].hi, want));
            mismatches += rect[t * kLanes + l] != want;
        }
    }
    EXPECT_EQ(mismatches, 0u);

    // The one-lane bank mirror behind FxpLaplaceRng::sampleBatch.
    FxpLaplaceRng batched(cfg, 99), scalar(cfg, 99);
    std::vector<int64_t> batch(kTrials);
    batched.sampleBatch(batch.data(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        mismatches += batch[i] != scalar.sampleIndexFast();
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(batched.urng().s1(), scalar.urng().s1());
}

TEST(BatchSampler, ForcedScalarKernelSamplesIdenticalRects)
{
    // Full sampling path (bank words -> table lookups -> signed
    // indices) under both kernel schedules: bit-identical rects.
    FxpLaplaceConfig cfg = tableConfig(12);
    FxpLaplaceRng proto(cfg, 1);
    auto table = proto.sharedTable();
    ASSERT_NE(table, nullptr);

    uint64_t seeds[kLanes];
    TausBank::deriveLaneSeeds(0xface5ULL, seeds, kLanes);

    constexpr size_t kTrials = 4096;
    std::vector<int64_t> simd_rect(kTrials * kLanes);
    {
        BatchSampler bs(table, 12, proto.quantizer().maxIndex());
        bs.seedLanes(seeds, kLanes);
        ASSERT_TRUE(bs.sampleRect(simd_rect.data(), kTrials));
    }

    ScopedScalarKernel guard(true);
    std::vector<int64_t> scalar_rect(kTrials * kLanes);
    BatchSampler bs(table, 12, proto.quantizer().maxIndex());
    bs.seedLanes(seeds, kLanes);
    ASSERT_TRUE(bs.sampleRect(scalar_rect.data(), kTrials));
    EXPECT_EQ(simd_rect, scalar_rect);
}

// ---------------------------------------------------------------------
// Integrity bail and scalar-redo semantics
// ---------------------------------------------------------------------

TEST(BatchSampler, CorruptedTableFailsBatchOnlyWhenChecksOn)
{
    FxpLaplaceConfig cfg = tableConfig(12);
    FxpLaplaceRng proto(cfg, 1);
    auto shared = proto.sharedTable();
    ASSERT_NE(shared, nullptr);
    LaplaceSampleTable *table = proto.mutableTable();
    ASSERT_NE(table, nullptr);

    // Flip the top magnitude bit of every guide word: each served
    // magnitude index jumps past the support, for direct and rank
    // lookups alike, so the very first draw meets a suspect word.
    const size_t guide_words = size_t{1} << table->guideBits();
    for (size_t i = 0; i < guide_words; ++i)
        table->flipBit(2 * i + 1, 6);

    uint64_t seeds[kLanes];
    TausBank::deriveLaneSeeds(0xc0ffeeULL, seeds, kLanes);
    BatchSampler::Window win[kLanes];
    for (size_t l = 0; l < kLanes; ++l)
        win[l] = {-4, 4};
    std::vector<int64_t> rect(64 * kLanes);

    {
        // Hardened: the batch reports the comparator trip and serves
        // nothing; the caller's scalar redo owns the quarantine.
        BatchSampler bs(shared, 12, proto.quantizer().maxIndex(),
                        true);
        bs.seedLanes(seeds, kLanes);
        EXPECT_FALSE(bs.sampleRect(rect.data(), 64));
        bs.seedLanes(seeds, kLanes);
        EXPECT_FALSE(bs.sampleTruncatedRect(win, rect.data(), 64));
    }
    {
        // Unhardened silicon: suspect entries are served like any
        // other, exactly as the scalar path with checks disabled.
        BatchSampler bs(shared, 12, proto.quantizer().maxIndex(),
                        false);
        bs.seedLanes(seeds, kLanes);
        EXPECT_TRUE(bs.sampleRect(rect.data(), 64));
    }
}

TEST(FxpLaplace, BatchedFallbackMatchesPerDrawQuarantine)
{
    // sampleBatch rides the one-lane bank mirror; when the table is
    // corrupted the bank bails and the scalar per-draw loop redoes the
    // batch from the untouched stream state, quarantining at the exact
    // draw the comparator trips. The whole episode must be
    // bit-identical to never having had a batch path at all.
    FxpLaplaceConfig cfg = tableConfig(12);
    FxpLaplaceRng batched(cfg, 77);
    FxpLaplaceRng per_draw(cfg, 77);

    // Corrupt the same guide span in both RNGs' private tables (half
    // the entries -- at Bu = 12 one per state: the stream
    // deterministically meets one within a couple of draws).
    for (FxpLaplaceRng *rng : {&batched, &per_draw}) {
        rng->table();
        LaplaceSampleTable *t = rng->mutableTable();
        ASSERT_NE(t, nullptr);
        for (size_t i = 1024; i < 3072; ++i)
            t->flipBit(2 * i + 1, 6);
    }

    constexpr size_t kDraws = 4096;
    std::vector<int64_t> batch_out(kDraws);
    batched.sampleBatch(batch_out.data(), kDraws);
    std::vector<int64_t> loop_out(kDraws);
    for (size_t i = 0; i < kDraws; ++i)
        loop_out[i] = per_draw.sampleIndexFast();

    EXPECT_EQ(batch_out, loop_out);
    EXPECT_TRUE(batched.integrityFault());
    EXPECT_TRUE(per_draw.integrityFault());
    EXPECT_EQ(batched.integrityDetections(),
              per_draw.integrityDetections());
    EXPECT_EQ(batched.samplesDrawn(), per_draw.samplesDrawn());
    EXPECT_EQ(batched.urng().s1(), per_draw.urng().s1());
    EXPECT_EQ(batched.urng().s2(), per_draw.urng().s2());
    EXPECT_EQ(batched.urng().s3(), per_draw.urng().s3());
}

TEST(FxpLaplace, RngCopiesShareOneTableEnumeration)
{
    // The fleet clones a prototype RNG per worker; every clone must
    // reference the prototype's enumeration rather than re-running or
    // copying it (the per-block allocation audit).
    FxpLaplaceConfig cfg = tableConfig(12);
    FxpLaplaceRng proto(cfg, 1);
    auto table = proto.sharedTable();
    ASSERT_NE(table, nullptr);

    FxpLaplaceRng clone = proto;
    EXPECT_EQ(clone.sharedTable().get(), table.get());
}

// ---------------------------------------------------------------------
// Mechanism batch entry points
// ---------------------------------------------------------------------

std::vector<double>
syntheticReadings(size_t n)
{
    std::vector<double> xs(n);
    for (size_t i = 0; i < n; ++i)
        xs[i] = static_cast<double>((i * 37) % 1000) * 0.01;
    return xs;
}

FxpMechanismParams
mechanismParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;
    p.seed = 7;
    return p;
}

TEST(MechanismBatch, ThresholdingMatchesLoopedNoise)
{
    constexpr size_t kReports = 4096;
    std::vector<double> xs = syntheticReadings(kReports);

    ThresholdingMechanism looped(mechanismParams(), 48);
    ThresholdingMechanism batched(mechanismParams(), 48);

    std::vector<double> want(kReports), got(kReports);
    for (size_t i = 0; i < kReports; ++i)
        want[i] = looped.noise(xs[i]).value;
    batched.sampleBatch(xs.data(), got.data(), kReports);

    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          kReports * sizeof(double)), 0);
    EXPECT_EQ(batched.clampedReports(), looped.clampedReports());
    EXPECT_GT(batched.clampedReports(), 0u); // window tight enough
    EXPECT_EQ(batched.totalReports(), looped.totalReports());
    EXPECT_EQ(batched.rng().samplesDrawn(),
              looped.rng().samplesDrawn());
}

TEST(MechanismBatch, ResamplingMatchesLoopedNoise)
{
    constexpr size_t kReports = 4096;
    std::vector<double> xs = syntheticReadings(kReports);

    ResamplingMechanism looped(mechanismParams(), 8);
    ResamplingMechanism batched(mechanismParams(), 8);

    std::vector<double> want(kReports), got(kReports);
    for (size_t i = 0; i < kReports; ++i)
        want[i] = looped.noise(xs[i]).value;
    batched.sampleBatch(xs.data(), got.data(), kReports);

    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          kReports * sizeof(double)), 0);
    EXPECT_EQ(batched.totalSamplesDrawn(),
              looped.totalSamplesDrawn());
    EXPECT_GT(batched.totalSamplesDrawn(),
              batched.totalReports()); // redraws actually happened
    EXPECT_EQ(batched.totalReports(), looped.totalReports());
    EXPECT_EQ(batched.rng().samplesDrawn(),
              looped.rng().samplesDrawn());
}

// ---------------------------------------------------------------------
// Fleet fingerprint immunity to every batch-layer switch
// ---------------------------------------------------------------------

/** Guide words of batchFleet()'s thresholding table that only node
 *  320 onward meets: the fifth 16-lane group of the block at node 256
 *  (block_nodes 256) bails. */
constexpr size_t kCorruptWordLo = 70000;
constexpr size_t kCorruptWords = 64;

FleetConfig
batchFleet()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 424242;
    fc.block_nodes = 256;
    CohortConfig thr;
    thr.name = "thr";
    thr.mechanism = CohortMechanism::Thresholding;
    thr.params = p;
    thr.nodes = 2000;
    thr.reports_per_node = 4;
    thr.budget_per_node = 2.5; // 2 fresh, 2 replayed
    thr.analyze_loss = false;
    CohortConfig res;
    res.name = "res";
    res.mechanism = CohortMechanism::Resampling;
    res.params = p;
    res.nodes = 2000;
    res.reports_per_node = 3;
    res.analyze_loss = false;
    CohortConfig naive;
    naive.name = "naive";
    naive.mechanism = CohortMechanism::Naive;
    naive.params = p;
    naive.nodes = 1000;
    naive.reports_per_node = 2;
    naive.analyze_loss = false;
    fc.cohorts = {thr, res, naive};
    return fc;
}

TEST(FleetBatch, FingerprintImmuneToScalarBlockFallback)
{
    // The batch layer's end-to-end contract: routing every block
    // through the per-draw scalar path instead must reproduce the
    // merged report bit for bit (this is also the path a batch
    // integrity bail falls back to, so the fallback is proven
    // lossless here).
    FleetRunner runner(batchFleet());
    FleetReport batched = runner.run(2);
    uint64_t scalar_fp = 0;
    {
        ScopedScalarBlocks guard;
        FleetReport scalar = runner.run(2);
        scalar_fp = scalar.fingerprint();
        ASSERT_EQ(batched.cohorts.size(), scalar.cohorts.size());
        for (size_t c = 0; c < batched.cohorts.size(); ++c) {
            EXPECT_EQ(batched.cohorts[c].checksum,
                      scalar.cohorts[c].checksum);
            EXPECT_EQ(batched.cohorts[c].samples_drawn,
                      scalar.cohorts[c].samples_drawn);
            EXPECT_EQ(batched.cohorts[c].resample_overflows,
                      scalar.cohorts[c].resample_overflows);
        }
    }
    EXPECT_EQ(batched.fingerprint(), scalar_fp);
}

/** One Bu = 32 cohort of @p mechanism on the table or naive path. */
FleetConfig
bu32Fleet(CohortMechanism mechanism, FxpLaplaceConfig::SamplePath path)
{
    FleetConfig fc = batchFleet();
    CohortConfig c = fc.cohorts[mechanism == CohortMechanism::Resampling
                                        ? 1
                                        : 0];
    c.params.uniform_bits = 32;
    c.params.sample_path = path;
    c.nodes = 1500;
    fc.cohorts = {c};
    return fc;
}

/** Same merged report, cohort by cohort and in the fingerprint. */
void
expectSameReport(const FleetReport &a, const FleetReport &b)
{
    ASSERT_EQ(a.cohorts.size(), b.cohorts.size());
    for (size_t c = 0; c < a.cohorts.size(); ++c) {
        EXPECT_EQ(a.cohorts[c].checksum, b.cohorts[c].checksum);
        EXPECT_EQ(a.cohorts[c].samples_drawn, b.cohorts[c].samples_drawn);
    }
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(FleetBatch, Bu32CohortsRideTheBatchPathBitExactly)
{
    // The certified Bu = 32 configuration has a table, so its cohorts
    // draw through the batch layer and must agree with the reference
    // paths: a thresholding cohort with the per-draw log datapath
    // (same words, no table), a resampling cohort with the scalar
    // block path (same truncated draws, one at a time).
    const auto table_path = FxpLaplaceConfig::SamplePath::Auto;
    const auto naive_path = FxpLaplaceConfig::SamplePath::Naive;
    FleetConfig thr = bu32Fleet(CohortMechanism::Thresholding, table_path);
    FxpLaplaceRng proto(thr.cohorts[0].params.rngConfig(), 1);
    ASSERT_TRUE(proto.fastPathEnabled());

    // The table's acceptance masses are the certifier's tail counts.
    auto pmf = FxpLaplacePmf::shared(proto.config());
    const LaplaceSampleTable &table = proto.table();
    for (int64_t k = 0; k <= table.maxIndex(); ++k)
        ASSERT_EQ(table.cumulativeCount(k),
                  (uint64_t{1} << 32) - pmf->tailCount(k + 1))
            << "k=" << k;

    // Count batch bails: a cohort that fell back on every block would
    // pass the comparisons below without ever batching.
    telemetry::reset();
    telemetry::setEnabled(true);
    Counter &fallbacks = telemetry::registry().counter(
        "ulpdp_batch_scalar_fallbacks_total", "");

    FleetRunner batched_thr(thr);
    FleetRunner naive_thr(
        bu32Fleet(CohortMechanism::Thresholding, naive_path));
    FleetRunner res(bu32Fleet(CohortMechanism::Resampling, table_path));
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        expectSameReport(batched_thr.run(threads),
                         naive_thr.run(threads));
        FleetReport batched = res.run(threads);
        ScopedScalarBlocks guard;
        expectSameReport(batched, res.run(threads));
    }
    EXPECT_EQ(fallbacks.value(), 0u);
    telemetry::setEnabled(false);
    telemetry::reset();
}

TEST(FleetBatch, MidBlockBailResumesScalarBitExactly)
{
    // Corrupt guide words of the thresholding cohort's shared table
    // that only a later 16-lane group of a block draws from: the batch
    // path emits the groups before it, bails at that group, and the
    // scalar path finishes the block (and quarantines). The result
    // must equal routing every block through the scalar path.
    FleetConfig fc = batchFleet();
    fc.cohorts.resize(2);
    for (CohortConfig &c : fc.cohorts) {
        c.agg.enabled = true;
        c.agg.per_trial = true;
    }
    FleetRunner runner(fc);
    LaplaceSampleTable *table = runner.mutableTable(0);
    ASSERT_NE(table, nullptr);
    for (size_t i = kCorruptWordLo; i < kCorruptWordLo + kCorruptWords;
         ++i)
        table->flipBit(2 * i + 1, 6);

    telemetry::reset();
    telemetry::setEnabled(true);
    Counter &fallbacks = telemetry::registry().counter(
        "ulpdp_batch_scalar_fallbacks_total", "");
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const uint64_t before = fallbacks.value();
        FleetReport batched = runner.run(threads);
        EXPECT_GE(fallbacks.value(), before + 1);
        FleetReport scalar = [&] {
            ScopedScalarBlocks guard;
            return runner.run(threads);
        }();
        expectSameReport(batched, scalar);
        EXPECT_GT(batched.cohorts[0].rng_integrity_detections, 0u);
        for (size_t c = 0; c < batched.cohorts.size(); ++c) {
            const CohortResult &a = batched.cohorts[c];
            const CohortResult &b = scalar.cohorts[c];
            EXPECT_EQ(a.fresh_reports, b.fresh_reports);
            EXPECT_EQ(a.cache_replays, b.cache_replays);
            EXPECT_EQ(a.rng_integrity_detections,
                      b.rng_integrity_detections);
            ASSERT_TRUE(a.agg && b.agg);
            EXPECT_EQ(a.agg->sketch.slots(), b.agg->sketch.slots());
        }
    }
    telemetry::setEnabled(false);
    telemetry::reset();
}

TEST(FleetBatch, FingerprintImmuneToKernelChoice)
{
    // Runtime analogue of building with ULPDP_SIMD=OFF: pinning the
    // portable kernel must not move a single bit of the merged
    // report, at more than one thread count.
    FleetRunner runner(batchFleet());
    FleetReport simd1 = runner.run(1);
    FleetReport simd4 = runner.run(4);
    EXPECT_EQ(simd1.fingerprint(), simd4.fingerprint());

    ScopedScalarKernel guard(true);
    FleetReport scalar1 = runner.run(1);
    FleetReport scalar4 = runner.run(4);
    EXPECT_EQ(scalar1.fingerprint(), simd1.fingerprint());
    EXPECT_EQ(scalar4.fingerprint(), simd1.fingerprint());
}

} // anonymous namespace
} // namespace ulpdp
