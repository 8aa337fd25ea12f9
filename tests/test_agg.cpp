/**
 * @file
 * Tests for the streaming aggregation layer (src/agg): sketch merge
 * algebra (associative, commutative, partition-independent), the
 * deterministic heavy-hitter scan, quantile grid exactness, the
 * channel-inversion frequency decoder (including the thresholding
 * boundary-mass correction), its maximum-likelihood (EM) decode, the
 * k-ary RR closed form, and the fleet integration's bit-identity
 * contract across thread counts and batch/scalar paths.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "agg/decode.h"
#include "agg/sketch.h"
#include "agg/stream.h"
#include "common/logging.h"
#include "core/kary_randomized_response.h"
#include "core/output_model.h"
#include "core/threshold_calc.h"
#include "core/thresholding_mechanism.h"
#include "rng/magnitude_icdf.h"
#include "fleet/fleet.h"

namespace ulpdp {
namespace {

uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (bits(a[i]) != bits(b[i]))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Count-min sketch
// ---------------------------------------------------------------------

TEST(AggSketch, CountMinNeverUndercounts)
{
    agg::CountMinSketch cm(4, 8);
    // 1000 items with true count = item index + 1.
    uint64_t total = 0;
    for (uint64_t item = 0; item < 1000; ++item) {
        cm.add(item, item + 1);
        total += item + 1;
    }
    EXPECT_EQ(cm.total(), total);
    for (uint64_t item = 0; item < 1000; ++item)
        EXPECT_GE(cm.estimate(item), item + 1);
    // The overcount bound: min over rows <= true + total / width is
    // a probabilistic statement per row; the deterministic guarantee
    // tested here is one-sidedness only.
}

TEST(AggSketch, CountMinExactWhenSparse)
{
    // Far fewer live items than counters per row: with 4 rows the
    // chance of a same-slot collision in every row is negligible, and
    // this fixed seed has none -- estimates are exact.
    agg::CountMinSketch cm(4, 12);
    for (uint64_t item = 0; item < 16; ++item)
        cm.add(item, 100 + item);
    for (uint64_t item = 0; item < 16; ++item)
        EXPECT_EQ(cm.estimate(item), 100 + item);
    EXPECT_EQ(cm.estimate(999), 0u);
}

TEST(AggSketch, CountMinMergeIsPartitionAndOrderIndependent)
{
    // One reference sketch ingests the whole stream; three shards
    // split it arbitrarily. Any merge order must reproduce the
    // reference counters byte for byte.
    const uint32_t depth = 4, width_log2 = 6;
    agg::CountMinSketch whole(depth, width_log2);
    agg::CountMinSketch s0(depth, width_log2);
    agg::CountMinSketch s1(depth, width_log2);
    agg::CountMinSketch s2(depth, width_log2);
    for (uint64_t i = 0; i < 3000; ++i) {
        uint64_t item = (i * 2654435761ULL) % 97;
        whole.add(item);
        (i % 3 == 0 ? s0 : i % 3 == 1 ? s1 : s2).add(item);
    }

    // Order A: ((s0 + s1) + s2); order B: (s2 + (s1 + s0)) built by
    // merging into different accumulators.
    agg::CountMinSketch a = s0;
    a.merge(s1);
    a.merge(s2);
    agg::CountMinSketch b = s2;
    b.merge(s1);
    b.merge(s0);

    EXPECT_EQ(a.counters(), whole.counters());
    EXPECT_EQ(b.counters(), whole.counters());
    EXPECT_EQ(a.total(), whole.total());
    EXPECT_EQ(b.total(), whole.total());
}

TEST(AggSketch, TopKRanksByEstimateThenItem)
{
    // Sparse sketch => estimates exact; counts force a tie between
    // items 5 and 9 that must break toward the smaller item id.
    agg::CountMinSketch cm(4, 12);
    cm.add(3, 50);
    cm.add(5, 20);
    cm.add(9, 20);
    cm.add(7, 10);

    auto top = agg::topK(cm, 16, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].item, 3u);
    EXPECT_EQ(top[0].estimate, 50u);
    EXPECT_EQ(top[1].item, 5u);
    EXPECT_EQ(top[1].estimate, 20u);
    EXPECT_EQ(top[2].item, 9u);
    EXPECT_EQ(top[2].estimate, 20u);
}

TEST(AggSketch, TopKSkipsZeroEstimatesAndCapsAtDomain)
{
    agg::CountMinSketch cm(2, 10);
    cm.add(1, 7);
    auto top = agg::topK(cm, 64, 8);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].item, 1u);
}

// ---------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------

TEST(AggSketch, QuantileExactOnBucketGrid)
{
    // 10 unit buckets over [0, 10]; mass at bucket centers via
    // addBucket. 100 samples in bucket 2, 100 in bucket 7: the median
    // must land inside bucket 2..7's CDF crossing, interpolated.
    agg::QuantileSketch qs(0.0, 10.0, 10);
    qs.addBucket(2, 100);
    qs.addBucket(7, 100);
    EXPECT_EQ(qs.total(), 200u);
    // q = 0.25 -> 50th sample, halfway through bucket 2: value 2.5.
    EXPECT_NEAR(qs.quantile(0.25), 2.5, 1e-9);
    // q = 0.75 -> halfway through bucket 7: value 7.5.
    EXPECT_NEAR(qs.quantile(0.75), 7.5, 1e-9);
}

TEST(AggSketch, QuantileMergeMatchesWholeStream)
{
    agg::QuantileSketch whole(-5.0, 5.0, 64);
    agg::QuantileSketch s0(-5.0, 5.0, 64);
    agg::QuantileSketch s1(-5.0, 5.0, 64);
    for (int i = 0; i < 2000; ++i) {
        double v = -6.0 + 12.0 * (i % 101) / 100.0; // incl. outliers
        whole.add(v);
        (i % 2 == 0 ? s0 : s1).add(v);
    }
    s0.merge(s1);
    EXPECT_EQ(s0.counts(), whole.counts());
    EXPECT_EQ(s0.underflow(), whole.underflow());
    EXPECT_EQ(s0.overflow(), whole.overflow());
    EXPECT_EQ(bits(s0.median()), bits(whole.median()));
}

TEST(AggSketch, QuantileUnderOverflowPinToEdges)
{
    agg::QuantileSketch qs(0.0, 1.0, 4);
    qs.add(-3.0, 10);
    qs.add(4.0, 10);
    EXPECT_EQ(qs.underflow(), 10u);
    EXPECT_EQ(qs.overflow(), 10u);
    EXPECT_NEAR(qs.quantile(0.1), 0.0, 1e-12);
    EXPECT_NEAR(qs.quantile(0.9), 1.0, 1e-12);
}

// ---------------------------------------------------------------------
// Cohort sketch (slot array + component sketches)
// ---------------------------------------------------------------------

TEST(AggSketch, CohortSketchDeltaIngestAndTrialRows)
{
    agg::AggConfig cfg;
    cfg.per_trial = true;
    cfg.quantile_buckets = 8;
    // span 4, 2 trial rows, slot 0 = value 0.0, delta 0.5.
    agg::CohortSketch cs(cfg, 4, 2, 0.0, 0.5);
    ASSERT_EQ(cs.slotCells(), 8u);

    std::vector<uint64_t> delta = {1, 0, 2, 0, /* trial 1: */ 0, 3, 0, 4};
    cs.ingestDelta(delta.data());
    EXPECT_EQ(cs.total(), 10u);
    EXPECT_EQ(cs.slotTotals(), (std::vector<uint64_t>{1, 3, 2, 4}));
    EXPECT_EQ(cs.trialSlots(0), (std::vector<uint64_t>{1, 0, 2, 0}));
    EXPECT_EQ(cs.trialSlots(1), (std::vector<uint64_t>{0, 3, 0, 4}));
    // Count-min sees slot ids weighted by per-slot totals.
    EXPECT_GE(cs.cm().estimate(3), 4u);
    EXPECT_EQ(cs.cm().total(), 10u);
}

TEST(AggSketch, CohortSketchMergeEqualsCombinedIngest)
{
    agg::AggConfig cfg;
    agg::CohortSketch whole(cfg, 6, 1, -1.0, 0.25);
    agg::CohortSketch a(cfg, 6, 1, -1.0, 0.25);
    agg::CohortSketch b(cfg, 6, 1, -1.0, 0.25);

    std::vector<uint64_t> d1 = {5, 0, 1, 2, 0, 9};
    std::vector<uint64_t> d2 = {0, 7, 1, 0, 3, 1};
    whole.ingestDelta(d1.data());
    whole.ingestDelta(d2.data());
    a.ingestDelta(d1.data());
    b.ingestDelta(d2.data());
    a.merge(b);

    EXPECT_EQ(a.slots(), whole.slots());
    EXPECT_EQ(a.total(), whole.total());
    EXPECT_EQ(a.cm().counters(), whole.cm().counters());
    EXPECT_EQ(a.quantiles().counts(), whole.quantiles().counts());
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

TEST(AggDecode, KaryRRMatchesBatchEstimatorBitForBit)
{
    // decodeKaryRR is the one k-ary RR inverse: the batch examples
    // and the streamed sketch counts both decode through it, so it
    // must be the textbook estimator c_hat_i = (r_i - n q') /
    // (p' - q') clamped to [0, n], over the mechanism's implemented
    // (p', q'), to the bit.
    for (int k : {2, 5, 16}) {
        KaryRandomizedResponse rr(k, 1.0);
        std::vector<uint64_t> observed(static_cast<size_t>(k));
        uint64_t n = 0;
        for (int c = 0; c < k; ++c) {
            observed[static_cast<size_t>(c)] =
                static_cast<uint64_t>(37 * (c + 1) % 101);
            n += observed[static_cast<size_t>(c)];
        }
        double p = rr.truthProbability();
        double q = rr.lieProbability();
        std::vector<double> batch;
        for (uint64_t r : observed) {
            double raw = (static_cast<double>(r) -
                          static_cast<double>(n) * q) /
                         (p - q);
            batch.push_back(std::clamp(raw, 0.0,
                                       static_cast<double>(n)));
        }
        EXPECT_TRUE(sameBits(batch, agg::decodeKaryRR(rr, observed)))
            << "k = " << k;
    }
}

/** Standard paper parameters on [0, 10], the probe configuration. */
FxpMechanismParams
standardParams()
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

TEST(AggDecode, RecoversInputCountsFromExactChannelPush)
{
    // Push a known input count vector c through the exact channel
    // (r_j = sum_i M[j][i] c_i, rounded to integers) and decode. The
    // pseudo-inverse must recover c up to the rounding perturbation:
    // per-slot rounding error <= 0.5 amplified by the pinv row norms,
    // orders of magnitude below the 0.1% tolerance at N = 1e8.
    FxpMechanismParams p = standardParams();
    ThresholdCalculator calc(p);
    int64_t thr = calc.exactIndex(RangeControl::Thresholding, 2.0);
    ASSERT_GE(thr, 0);
    ThresholdingOutputModel model(calc.pmf(), calc.span(), thr);
    agg::FrequencyDecoder dec(model);
    ASSERT_EQ(dec.numInputs(),
              static_cast<size_t>(calc.span()) + 1);

    const double kN = 1e8;
    std::vector<double> c(dec.numInputs(), 0.0);
    c[0] = 0.5 * kN;          // mass on the clamp-exposed edge
    c[dec.numInputs() / 2] = 0.3 * kN;
    c[dec.numInputs() - 1] = 0.2 * kN;

    std::vector<uint64_t> r(dec.numOutputs(), 0);
    for (size_t j = 0; j < dec.numOutputs(); ++j) {
        double e = 0.0;
        for (size_t i = 0; i < dec.numInputs(); ++i) {
            if (c[i] != 0.0)
                e += model.prob(model.outputLo() +
                                    static_cast<int64_t>(j),
                                static_cast<int64_t>(i)) *
                     c[i];
        }
        r[j] = static_cast<uint64_t>(std::llround(e));
    }

    auto d = dec.decode(r, 0.0, p.delta);
    for (size_t i = 0; i < dec.numInputs(); ++i)
        EXPECT_NEAR(d.counts[i], c[i], 1e-3 * kN) << "input " << i;
    // Channel-consistent counts: expected boundary mass matches the
    // observed clamp-atom mass.
    EXPECT_NEAR(d.boundary_mass_observed, d.boundary_mass_expected,
                1e-4);
    // Moments follow from the recovered counts.
    double mean = (0.5 * 0.0 +
                   0.3 * (dec.numInputs() / 2) * p.delta +
                   0.2 * (dec.numInputs() - 1) * p.delta);
    EXPECT_NEAR(d.mean, mean, 1e-3 * 10.0);
}

TEST(AggDecode, ThresholdingAtomsCorrectedNaiveUnbiasedToo)
{
    // The same exact-push round trip through the naive (no control)
    // channel: no clamp atoms, wider output span, still invertible.
    FxpMechanismParams p = standardParams();
    ThresholdCalculator calc(p);
    NaiveOutputModel model(calc.pmf(), calc.span());
    agg::FrequencyDecoder dec(model);

    const double kN = 1e8;
    std::vector<double> c(dec.numInputs(), 0.0);
    c[3] = kN;
    std::vector<uint64_t> r(dec.numOutputs(), 0);
    for (size_t j = 0; j < dec.numOutputs(); ++j)
        r[j] = static_cast<uint64_t>(std::llround(
            model.prob(model.outputLo() + static_cast<int64_t>(j), 3) *
            kN));
    auto d = dec.decode(r, 0.0, p.delta);
    for (size_t i = 0; i < dec.numInputs(); ++i)
        EXPECT_NEAR(d.counts[i], c[i], 1e-3 * kN) << "input " << i;
    EXPECT_NEAR(d.mean, 3 * p.delta, 1e-3 * 10.0);
}

TEST(AggDecode, CountAboveSumsGridTail)
{
    agg::DecodedFrequencies d;
    d.counts = {10.0, 20.0, 30.0, 40.0};
    // Grid 0, 1, 2, 3: threshold 1.5 keeps inputs 2 and 3.
    EXPECT_NEAR(agg::decodedCountAbove(d, 0.0, 1.0, 1.5), 70.0, 1e-12);
    // Threshold at a grid point is inclusive.
    EXPECT_NEAR(agg::decodedCountAbove(d, 0.0, 1.0, 3.0), 40.0, 1e-12);
    EXPECT_NEAR(agg::decodedCountAbove(d, 0.0, 1.0, -1.0), 100.0,
                1e-12);
}

// ---------------------------------------------------------------------
// Maximum-likelihood (EM) decode
// ---------------------------------------------------------------------

/** Light noise (eps = 2, Bu = 14) on [0, 10] keeps EM samples small. */
FxpMechanismParams
emParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 2.0;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    return p;
}

std::shared_ptr<const FxpLaplacePmf>
emPmf()
{
    return std::make_shared<FxpLaplacePmf>(emParams().rngConfig());
}

/** Count slot of report @p y of @p mech on @p decoder's window. */
size_t
reportSlot(const agg::FrequencyDecoder &decoder,
           const ThresholdingMechanism &mech, double y)
{
    int64_t yi = static_cast<int64_t>(std::llround(y / mech.delta()));
    return static_cast<size_t>(yi - decoder.outputLo());
}

/** FNV-1a over the bit patterns of @p v. */
uint64_t
hashBits(const std::vector<double> &v)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (double x : v) {
        uint64_t b = bits(x);
        for (int i = 0; i < 8; ++i) {
            h ^= (b >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(AggDecode, MaximumLikelihoodRejectsBadArgs)
{
    ThresholdingOutputModel model(emPmf(), 32, 50);
    agg::FrequencyDecoder dec(model);
    std::vector<uint64_t> counts(dec.numOutputs(), 1);
    EXPECT_THROW(dec.maximumLikelihood(counts, 0), FatalError);
    EXPECT_THROW(dec.maximumLikelihood({1, 2, 3}, 300), FatalError);
    std::vector<uint64_t> empty(dec.numOutputs(), 0);
    EXPECT_THROW(dec.maximumLikelihood(empty, 300), FatalError);
}

TEST(AggDecode, MaximumLikelihoodIsAProbabilityVector)
{
    ThresholdingOutputModel model(emPmf(), 32, 50);
    agg::FrequencyDecoder dec(model);
    std::vector<uint64_t> counts(dec.numOutputs(), 1);
    auto pi = dec.maximumLikelihood(counts, 50);
    ASSERT_EQ(pi.size(), 33u);
    double sum = 0.0;
    for (double v : pi) {
        EXPECT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AggDecode, MaximumLikelihoodRecoversPointMass)
{
    // All inputs equal: the ML histogram should concentrate near
    // that input even though every report is noised.
    int64_t t = 60;
    ThresholdingMechanism mech(emParams(), t);
    ThresholdingOutputModel model(emPmf(), 32, t);
    agg::FrequencyDecoder dec(model);

    std::vector<uint64_t> counts(dec.numOutputs(), 0);
    for (int i = 0; i < 60000; ++i)
        ++counts[reportSlot(dec, mech, mech.noise(5.0).value)];
    auto pi = dec.maximumLikelihood(counts, 400);

    // Mass within +-3 bins of the true input (index 16).
    double near = 0.0;
    for (int64_t i = 13; i <= 19; ++i)
        near += pi[static_cast<size_t>(i)];
    EXPECT_GT(near, 0.8);
}

TEST(AggDecode, MaximumLikelihoodRecoversBimodalShape)
{
    int64_t t = 60;
    ThresholdingMechanism mech(emParams(), t);
    ThresholdingOutputModel model(emPmf(), 32, t);
    agg::FrequencyDecoder dec(model);

    // True inputs: half at 2.5 (index 8), half at 7.5 (index 24).
    std::vector<uint64_t> counts(dec.numOutputs(), 0);
    for (int i = 0; i < 80000; ++i) {
        double x = (i % 2 == 0) ? 2.5 : 7.5;
        ++counts[reportSlot(dec, mech, mech.noise(x).value)];
    }
    auto pi = dec.maximumLikelihood(counts, 400);

    auto mass_near = [&](int64_t center) {
        double m = 0.0;
        for (int64_t i = center - 3; i <= center + 3; ++i)
            m += pi[static_cast<size_t>(i)];
        return m;
    };
    EXPECT_GT(mass_near(8), 0.3);
    EXPECT_GT(mass_near(24), 0.3);
    // Valley between the modes stays low.
    EXPECT_LT(pi[16], 0.1);
}

TEST(AggDecode, MaximumLikelihoodBeatsRawOutputHistogram)
{
    // The EM histogram must be closer to the truth than the raw
    // clipped output histogram is.
    int64_t t = 60;
    ThresholdingMechanism mech(emParams(), t);
    ThresholdingOutputModel model(emPmf(), 32, t);
    agg::FrequencyDecoder dec(model);

    std::mt19937_64 rng(5);
    std::uniform_int_distribution<int> pick(0, 2);
    std::vector<double> truth(33, 0.0);
    std::vector<uint64_t> counts(dec.numOutputs(), 0);
    std::vector<double> raw(33, 0.0);
    const int n = 80000;
    for (int i = 0; i < n; ++i) {
        int64_t xi = pick(rng) == 0 ? 6 : 26; // 1/3 low, 2/3 high
        truth[static_cast<size_t>(xi)] += 1.0 / n;
        double y = mech.noise(static_cast<double>(xi) *
                              mech.delta()).value;
        size_t slot = reportSlot(dec, mech, y);
        ++counts[slot];
        int64_t clipped = std::clamp<int64_t>(
            dec.outputLo() + static_cast<int64_t>(slot), 0, 32);
        raw[static_cast<size_t>(clipped)] += 1.0 / n;
    }
    auto pi = dec.maximumLikelihood(counts, 400);

    // Deconvolving wide Laplace noise is ill-posed bin-by-bin (the
    // ML solution smears point masses over nearby neighbours), so
    // ask the coarse question the analyst actually cares about: how
    // much mass sits in the lower vs upper half of the range? The
    // estimator must both beat the raw output histogram and land
    // near the true 1/3 : 2/3 split.
    auto lower_half = [](const std::vector<double> &v) {
        double m = 0.0;
        for (size_t i = 0; i < v.size() / 2; ++i)
            m += v[i];
        return m;
    };
    double true_low = lower_half(truth);
    EXPECT_LT(std::abs(lower_half(pi) - true_low),
              std::abs(lower_half(raw) - true_low) + 0.02);
    EXPECT_NEAR(lower_half(pi), true_low, 0.1);
}

TEST(AggDecode, MaximumLikelihoodWorksWithResamplingModel)
{
    ResamplingOutputModel model(emPmf(), 32, 60);
    agg::FrequencyDecoder dec(model);
    std::vector<uint64_t> counts(dec.numOutputs(), 0);
    counts[dec.numOutputs() / 2] = 1000;
    auto pi = dec.maximumLikelihood(counts, 100);
    double sum = 0.0;
    for (double v : pi)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AggDecode, MaximumLikelihoodPinnedBitForBit)
{
    // EM over three channels: eps = 2 thresholding and resampling at
    // T = 60, and eps = 1 Gaussian (sigma 3) thresholding at T = 40,
    // on a fixed count pattern with zero slots. The hashes were
    // recorded from the standalone EM estimator this method replaced,
    // so every estimate is unchanged by the move.
    auto pattern = [](size_t n) {
        std::vector<uint64_t> c(n);
        for (size_t j = 0; j < n; ++j)
            c[j] = (j * 7919 + 13) % 61;
        return c;
    };
    FxpMechanismParams g = emParams();
    g.epsilon = 1.0;
    g.icdf = std::make_shared<GaussianMagnitude>(3.0);
    auto gauss_pmf = std::make_shared<const FxpLaplacePmf>(g.rngConfig());

    agg::FrequencyDecoder thr(ThresholdingOutputModel(emPmf(), 32, 60));
    agg::FrequencyDecoder res(ResamplingOutputModel(emPmf(), 32, 60));
    agg::FrequencyDecoder gauss(
        ThresholdingOutputModel(gauss_pmf, 32, 40));
    EXPECT_EQ(hashBits(thr.maximumLikelihood(
                  pattern(thr.numOutputs()), 400)),
              0xfbc4f204afd24f84ull);
    EXPECT_EQ(hashBits(res.maximumLikelihood(
                  pattern(res.numOutputs()), 100)),
              0x6f5e217324848aa7ull);
    EXPECT_EQ(hashBits(gauss.maximumLikelihood(
                  pattern(gauss.numOutputs()), 300)),
              0xffa99cb5b7b65628ull);
}

// ---------------------------------------------------------------------
// Fleet integration
// ---------------------------------------------------------------------

/** Two-cohort fleet with streaming aggregation on. */
FleetConfig
aggFleet()
{
    FxpMechanismParams p = standardParams();
    FleetConfig fc;
    fc.master_seed = 4242;
    fc.block_nodes = 256;

    CohortConfig thr;
    thr.name = "thr";
    thr.mechanism = CohortMechanism::Thresholding;
    thr.params = p;
    thr.nodes = 3000;
    thr.reports_per_node = 3;
    thr.analyze_loss = false;
    thr.agg.enabled = true;
    thr.agg.per_trial = true;

    CohortConfig res;
    res.name = "res";
    res.mechanism = CohortMechanism::Resampling;
    res.params = p;
    res.nodes = 2000;
    res.reports_per_node = 2;
    res.analyze_loss = false;
    res.agg.enabled = true;

    fc.cohorts = {thr, res};
    return fc;
}

void
expectSameAgg(const FleetReport &x, const FleetReport &y)
{
    EXPECT_EQ(x.fingerprint(), y.fingerprint());
    ASSERT_EQ(x.cohorts.size(), y.cohorts.size());
    for (size_t c = 0; c < x.cohorts.size(); ++c) {
        const auto &a = x.cohorts[c];
        const auto &b = y.cohorts[c];
        ASSERT_EQ(a.agg != nullptr, b.agg != nullptr);
        if (!a.agg)
            continue;
        // Integer sketch state must be identical...
        EXPECT_EQ(a.agg->sketch.slots(), b.agg->sketch.slots());
        EXPECT_EQ(a.agg->sketch.cm().counters(),
                  b.agg->sketch.cm().counters());
        EXPECT_EQ(a.agg->sketch.quantiles().counts(),
                  b.agg->sketch.quantiles().counts());
        EXPECT_EQ(a.agg->dropped, b.agg->dropped);
        // ...and the decoded doubles identical to the BIT: same
        // integer inputs, deterministic decode.
        EXPECT_TRUE(sameBits(a.agg->decoded.counts,
                             b.agg->decoded.counts));
        EXPECT_EQ(bits(a.agg->decoded.mean), bits(b.agg->decoded.mean));
        EXPECT_EQ(bits(a.agg->decoded.median),
                  bits(b.agg->decoded.median));
        EXPECT_EQ(bits(a.agg->decoded.variance),
                  bits(b.agg->decoded.variance));
        ASSERT_EQ(a.agg->heavy.size(), b.agg->heavy.size());
        for (size_t h = 0; h < a.agg->heavy.size(); ++h) {
            EXPECT_EQ(a.agg->heavy[h].item, b.agg->heavy[h].item);
            EXPECT_EQ(a.agg->heavy[h].estimate,
                      b.agg->heavy[h].estimate);
        }
    }
}

TEST(AggFleet, DecodesBitIdenticallyAcrossThreadCounts)
{
    FleetRunner runner(aggFleet());
    FleetReport one = runner.run(1);
    FleetReport two = runner.run(2);
    FleetReport eight = runner.run(8);
    expectSameAgg(one, two);
    expectSameAgg(one, eight);
}

TEST(AggFleet, ForcedScalarMatchesBatchedIngest)
{
    // The delta buffer is flushed only on block completion, so the
    // batch path's integrity-bail redo must not change a single
    // counter relative to the scalar path.
    FleetRunner runner(aggFleet());
    FleetReport batched = runner.run(4);
    FleetRunner::forceScalarBlocks(true);
    FleetReport scalar = runner.run(4);
    FleetRunner::forceScalarBlocks(false);
    expectSameAgg(batched, scalar);
}

TEST(AggFleet, SketchAccountsEveryReport)
{
    FleetRunner runner(aggFleet());
    FleetReport report = runner.run(4);
    for (const CohortResult &c : report.cohorts) {
        ASSERT_TRUE(c.agg != nullptr) << c.name;
        // Resampling/thresholding confine every output to the window:
        // nothing may be dropped, and ingested must equal reports.
        EXPECT_EQ(c.agg->dropped, 0u) << c.name;
        EXPECT_EQ(c.agg->sketch.total(), c.reports) << c.name;
        // Per-trial rows, when kept, sum to the totals.
        if (c.agg->sketch.trialRows() > 1) {
            std::vector<uint64_t> sum(c.agg->sketch.span(), 0);
            for (uint32_t t = 0; t < c.agg->sketch.trialRows(); ++t) {
                auto row = c.agg->sketch.trialSlots(t);
                for (size_t s = 0; s < row.size(); ++s)
                    sum[s] += row[s];
            }
            EXPECT_EQ(sum, c.agg->sketch.slotTotals()) << c.name;
        }
    }
}

TEST(AggFleet, AggOffFingerprintUnchanged)
{
    // The agg layer must be invisible when disabled: same fleet, agg
    // on vs off, identical released aggregates; and the agg-off
    // fingerprint equals the no-agg-config fingerprint (the committed
    // BENCH_fleet baselines depend on this).
    FleetConfig on = aggFleet();
    FleetConfig off = aggFleet();
    for (auto &c : off.cohorts)
        c.agg = agg::AggConfig{};
    FleetReport r_on = FleetRunner(on).run(3);
    FleetReport r_off = FleetRunner(off).run(3);
    ASSERT_EQ(r_on.cohorts.size(), r_off.cohorts.size());
    for (size_t c = 0; c < r_on.cohorts.size(); ++c) {
        EXPECT_EQ(bits(r_on.cohorts[c].released_stats.mean()),
                  bits(r_off.cohorts[c].released_stats.mean()));
        EXPECT_EQ(r_on.cohorts[c].checksum, r_off.cohorts[c].checksum);
        EXPECT_TRUE(r_off.cohorts[c].agg == nullptr);
    }
}

TEST(AggFleet, IdealCohortSkipsAggregation)
{
    // Neither uncertified baseline has a bounded output window.
    FleetConfig fc = aggFleet();
    fc.cohorts[0].mechanism = CohortMechanism::Ideal;
    fc.cohorts.push_back(fc.cohorts[1]);
    fc.cohorts[2].mechanism = CohortMechanism::Naive;
    FleetReport report = FleetRunner(fc).run(2);
    EXPECT_TRUE(report.cohorts[0].agg == nullptr);
    EXPECT_TRUE(report.cohorts[1].agg != nullptr);
    EXPECT_TRUE(report.cohorts[2].agg == nullptr);
}

TEST(AggFleet, BoundaryUnbiasingBeatsRawMeanNearClamp)
{
    // Dataset replay pinned near the range top: thresholding's clamp
    // atoms pull the raw released mean down into the window, while the
    // decoder redistributes the atom mass back. The decoded mean must
    // sit strictly closer to the truth than the raw released mean.
    FxpMechanismParams p = standardParams();
    FleetConfig fc;
    fc.master_seed = 99;
    fc.block_nodes = 256;
    CohortConfig c;
    c.name = "edge";
    c.mechanism = CohortMechanism::Thresholding;
    c.params = p;
    c.values.assign(20000, 9.6875); // grid point near hi = 10
    c.reports_per_node = 2;
    c.analyze_loss = false;
    c.agg.enabled = true;
    fc.cohorts = {c};

    FleetReport report = FleetRunner(fc).run(4);
    const CohortResult &res = report.cohorts[0];
    ASSERT_TRUE(res.agg != nullptr);
    const double truth = 9.6875;
    double raw_err = std::abs(res.released_stats.mean() - truth);
    double dec_err = std::abs(res.agg->decoded.mean - truth);
    EXPECT_LT(dec_err, raw_err);
    // The clamp concentrates real mass on the atoms here, and the
    // decoder's channel expectation agrees with what it observed.
    EXPECT_GT(res.agg->decoded.boundary_mass_observed, 0.0005);
    EXPECT_NEAR(res.agg->decoded.boundary_mass_observed,
                res.agg->decoded.boundary_mass_expected, 0.01);
}

} // anonymous namespace
} // namespace ulpdp
