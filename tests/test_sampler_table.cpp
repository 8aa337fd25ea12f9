/**
 * @file
 * Tests for the table-driven sampling fast path: bit-exactness
 * against the naive pipeline, exact PMF equivalence across
 * configuration sweeps, and truncated direct inversion matching the
 * accept-reject conditional distribution.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "rng/fxp_laplace.h"
#include "rng/fxp_laplace_pmf.h"
#include "rng/laplace_table.h"
#include "rng/magnitude_icdf.h"
#include "pmf_oracle.h"

namespace ulpdp {
namespace {

FxpLaplaceConfig
sweepConfig(int uniform_bits, double delta,
            FxpLaplaceConfig::LogMode log_mode =
                FxpLaplaceConfig::LogMode::Reference)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = uniform_bits;
    cfg.output_bits = 12;
    cfg.delta = delta;
    cfg.lambda = 20.0;
    cfg.log_mode = log_mode;
    return cfg;
}

/** The (Bu, Delta) sweep the equivalence tests run over. */
const std::vector<std::pair<int, double>> kSweep = {
    {8, 10.0 / 8.0},  {10, 10.0 / 32.0}, {12, 10.0 / 32.0},
    {14, 10.0 / 32.0}, {14, 10.0 / 128.0}, {17, 10.0 / 32.0},
};

TEST(LaplaceSampleTable, StreamBitExactWithNaivePipeline)
{
    for (auto [bu, delta] : kSweep) {
        FxpLaplaceConfig naive = sweepConfig(bu, delta);
        naive.sample_path = FxpLaplaceConfig::SamplePath::Naive;
        FxpLaplaceConfig fast = sweepConfig(bu, delta);
        fast.sample_path = FxpLaplaceConfig::SamplePath::Table;

        FxpLaplaceRng a(naive, 42);
        FxpLaplaceRng b(fast, 42);
        ASSERT_FALSE(a.fastPathEnabled());
        ASSERT_TRUE(b.fastPathEnabled());
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.sampleIndex(), b.sampleIndexFast())
                << "Bu=" << bu << " delta=" << delta << " draw " << i;
    }
}

TEST(LaplaceSampleTable, CordicStreamBitExactWithNaivePipeline)
{
    // The table is enumerated from the actual datapath, so it must
    // reproduce the CORDIC log's LSB quirks too.
    FxpLaplaceConfig naive =
        sweepConfig(14, 10.0 / 32.0, FxpLaplaceConfig::LogMode::Cordic);
    naive.sample_path = FxpLaplaceConfig::SamplePath::Naive;
    FxpLaplaceConfig fast = naive;
    fast.sample_path = FxpLaplaceConfig::SamplePath::Table;

    FxpLaplaceRng a(naive, 7);
    FxpLaplaceRng b(fast, 7);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(a.sampleIndex(), b.sampleIndexFast());
}

TEST(LaplaceSampleTable, BatchMatchesScalarDraws)
{
    FxpLaplaceConfig cfg = sweepConfig(14, 10.0 / 32.0);
    FxpLaplaceRng scalar(cfg, 11);
    FxpLaplaceRng batched(cfg, 11);

    std::vector<int64_t> batch(512);
    batched.sampleBatch(batch.data(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        ASSERT_EQ(batch[i], scalar.sampleIndexFast()) << "draw " << i;
    EXPECT_EQ(batched.samplesDrawn(), scalar.samplesDrawn());

    // Naive-path batches fall back to the reference pipeline and
    // still consume the identical URNG stream.
    cfg.sample_path = FxpLaplaceConfig::SamplePath::Naive;
    FxpLaplaceRng naive_scalar(cfg, 11);
    FxpLaplaceRng naive_batched(cfg, 11);
    naive_batched.sampleBatch(batch.data(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        ASSERT_EQ(batch[i], naive_scalar.sampleIndex());
}

TEST(LaplaceSampleTable, CountsMatchExactPmfAcrossSweep)
{
    // The table's cumulative counts are exactly the enumerated PMF's
    // per-index state counts -- the table *is* the PMF, reorganised
    // for O(1) serving.
    for (auto [bu, delta] : kSweep) {
        FxpLaplaceConfig cfg = sweepConfig(bu, delta);
        FxpLaplaceRng rng(cfg);
        const LaplaceSampleTable &table = rng.table();
        FxpLaplacePmf pmf(cfg);

        ASSERT_EQ(table.maxIndex(), pmf.maxIndex());
        uint64_t cum = 0;
        for (int64_t k = 0; k <= table.maxIndex(); ++k) {
            cum += pmf.magnitudeCount(k);
            ASSERT_EQ(table.cumulativeCount(k), cum)
                << "Bu=" << bu << " delta=" << delta << " k=" << k;
        }
        ASSERT_EQ(table.cumulativeCount(table.maxIndex()),
                  uint64_t{1} << bu);

        // The rank table inverts the cumulative table run for run.
        for (int64_t k = 0; k <= table.maxIndex(); ++k) {
            uint64_t lo = table.cumulativeCount(k - 1);
            uint64_t hi = table.cumulativeCount(k);
            for (uint64_t r = lo; r < hi; ++r)
                ASSERT_EQ(table.lookupByRank(r), k);
        }
    }
}

TEST(LaplaceSampleTable, EmpiricalDistributionMatchesPmf)
{
    FxpLaplaceConfig cfg = sweepConfig(12, 10.0 / 32.0);
    FxpLaplaceRng rng(cfg, 3);
    FxpLaplacePmf pmf(cfg);

    const int n = 400000;
    std::map<int64_t, int> counts;
    for (int i = 0; i < n; ++i)
        ++counts[rng.sampleIndexFast()];

    // Total-variation distance between the empirical draw histogram
    // and the exact PMF; fixed seed keeps this deterministic.
    double tv = 0.0;
    for (int64_t k = -pmf.maxIndex(); k <= pmf.maxIndex(); ++k) {
        auto it = counts.find(k);
        double emp =
            it == counts.end()
                ? 0.0
                : static_cast<double>(it->second) / n;
        tv += std::abs(emp - pmf.pmf(k));
    }
    EXPECT_LT(0.5 * tv, 0.02);
}

TEST(LaplaceSampleTable, TruncatedInversionMatchesAcceptReject)
{
    // Accept-reject over a window is, by definition, uniform over the
    // URNG states whose output lands inside it. The truncated sampler
    // draws a uniform rank over those states, so enumerating every
    // rank must reproduce the accept-reject conditional state counts
    // exactly -- no statistics involved.
    FxpLaplaceConfig cfg = sweepConfig(12, 10.0 / 32.0);
    FxpLaplaceRng rng(cfg);
    const LaplaceSampleTable &table = rng.table();
    FxpLaplacePmf pmf(cfg);

    const std::vector<std::pair<int64_t, int64_t>> windows = {
        {-5, 5}, {-80, 3}, {-1, 200}, {0, 0}, {-2, 0},
    };
    for (auto [lo, hi] : windows) {
        uint64_t plus = table.cumulativeCount(hi);
        uint64_t minus = table.cumulativeCount(-lo);
        uint64_t total = plus + minus;
        ASSERT_GT(total, 0u);

        // Tally every rank through the same mapping the sampler uses.
        std::map<int64_t, uint64_t> tally;
        for (uint64_t r = 0; r < total; ++r) {
            int64_t k = r < plus ? table.lookupByRank(r)
                                 : -table.lookupByRank(r - plus);
            ++tally[k];
        }

        // Accept-reject state counts: one sign per nonzero index,
        // both signs collapse onto zero.
        for (int64_t j = lo; j <= hi; ++j) {
            uint64_t expected =
                pmf.magnitudeCount(j >= 0 ? j : -j);
            if (j == 0)
                expected *= 2;
            uint64_t got = tally.count(j) ? tally[j] : 0;
            ASSERT_EQ(got, expected)
                << "window [" << lo << ", " << hi << "] j=" << j;
            tally.erase(j);
        }
        // Nothing outside the window is reachable.
        ASSERT_TRUE(tally.empty());
    }
}

TEST(LaplaceSampleTable, TruncatedEmpiricalMatchesAcceptRejectDraws)
{
    // End-to-end: the actual truncated sampler against an actual
    // accept-reject loop, same window, independent streams.
    FxpLaplaceConfig cfg = sweepConfig(12, 10.0 / 32.0);
    const int64_t lo = -10, hi = 25;
    const int n = 200000;

    FxpLaplaceRng fast(cfg, 5);
    std::map<int64_t, int> fast_counts;
    for (int i = 0; i < n; ++i) {
        int64_t k;
        ASSERT_TRUE(fast.sampleIndexTruncated(lo, hi, k));
        ASSERT_GE(k, lo);
        ASSERT_LE(k, hi);
        ++fast_counts[k];
    }

    cfg.sample_path = FxpLaplaceConfig::SamplePath::Naive;
    FxpLaplaceRng naive(cfg, 6);
    std::map<int64_t, int> naive_counts;
    for (int i = 0; i < n; ++i) {
        int64_t k;
        do {
            k = naive.sampleIndex();
        } while (k < lo || k > hi);
        ++naive_counts[k];
    }

    double tv = 0.0;
    for (int64_t k = lo; k <= hi; ++k) {
        double a = fast_counts.count(k)
                       ? static_cast<double>(fast_counts[k]) / n
                       : 0.0;
        double b = naive_counts.count(k)
                       ? static_cast<double>(naive_counts[k]) / n
                       : 0.0;
        tv += std::abs(a - b);
    }
    EXPECT_LT(0.5 * tv, 0.02);
}

TEST(LaplaceSampleTable, AutoPathResolvesAgainstLimits)
{
    FxpLaplaceConfig cfg = sweepConfig(14, 10.0 / 32.0);
    EXPECT_TRUE(FxpLaplaceRng(cfg).fastPathEnabled());

    // Every URNG width the PMF engine counts has a table.
    cfg.uniform_bits = 30;
    EXPECT_TRUE(FxpLaplaceRng(cfg).fastPathEnabled());
    EXPECT_TRUE(LaplaceSampleTable::supports(30, 100));
    EXPECT_TRUE(LaplaceSampleTable::supports(32, 100));
    EXPECT_FALSE(LaplaceSampleTable::supports(33, 100));

    // An output word whose indices overflow a guide entry falls back
    // to the naive pipeline...
    cfg.uniform_bits = 14;
    cfg.output_bits = 18;
    ASSERT_GT(FxpLaplaceRng(cfg).quantizer().maxIndex(),
              LaplaceSampleTable::kMaxMagnitudeIndex);
    EXPECT_FALSE(FxpLaplaceRng(cfg).fastPathEnabled());

    // ...and demanding the table for it is a configuration error.
    cfg.sample_path = FxpLaplaceConfig::SamplePath::Table;
    FxpLaplaceRng rng(cfg);
    EXPECT_THROW(rng.table(), FatalError);
}

TEST(LaplaceSampleTable, ReportsMemoryFootprint)
{
    FxpLaplaceConfig cfg = sweepConfig(14, 10.0 / 32.0);
    FxpLaplaceRng rng(cfg);
    const LaplaceSampleTable &table = rng.table();
    EXPECT_EQ(table.states(), uint64_t{1} << 14);
    EXPECT_EQ(table.guideBits(), 14);
    // A two-byte guide word per state, plus one eight-byte boundary
    // per bin and the closing B_{max+1} = 0; no rank or cumulative
    // array.
    EXPECT_EQ(table.memoryBytes(),
              2 * table.states() +
                      8 * static_cast<size_t>(table.maxIndex() + 2));
}

TEST(LaplaceSampleTable, GuideWidthIsAFixedRuleOfBu)
{
    for (int bu : {8, 20, 21, 32}) {
        FxpLaplaceRng rng(sweepConfig(bu, 10.0 / 32.0));
        EXPECT_EQ(rng.table().guideBits(),
                  std::min(bu, LaplaceSampleTable::kMaxGuideBits))
            << "Bu=" << bu;
    }
}

/** A named full-state oracle configuration. */
struct OracleCase
{
    std::string name;
    FxpLaplaceConfig config;
};

/** Reference and CORDIC log, Nearest and Floor rounding, and the
 *  Gaussian and staircase magnitude ICDFs, at URNG width @p bu. */
std::vector<OracleCase>
oracleCases(int bu)
{
    std::vector<OracleCase> cases;
    for (bool cordic : {false, true}) {
        for (bool floor : {false, true}) {
            FxpLaplaceConfig cfg = sweepConfig(
                    bu, 10.0 / 32.0,
                    cordic ? FxpLaplaceConfig::LogMode::Cordic
                           : FxpLaplaceConfig::LogMode::Reference);
            if (floor)
                cfg.rounding = FxpLaplaceConfig::Rounding::Floor;
            cases.push_back({std::string(cordic ? "Cordic" : "Reference") +
                                     (floor ? "/Floor" : "/Nearest"),
                             cfg});
        }
    }
    // The distribution bench's ICDF stages: range d = 10, By = 14.
    const double d = 10.0;
    for (double eps : {0.5, 1.0}) {
        FxpLaplaceConfig gauss = sweepConfig(bu, 10.0 / 32.0);
        gauss.output_bits = 14;
        gauss.icdf = std::make_shared<GaussianMagnitude>(
                d / eps * std::sqrt(2.0));
        cases.push_back({"Gaussian eps=" + std::to_string(eps), gauss});
        FxpLaplaceConfig stair = gauss;
        stair.icdf = std::make_shared<StaircaseMagnitude>(
                d, eps, StaircaseMagnitude::optimalGamma(eps));
        cases.push_back({"Staircase eps=" + std::to_string(eps), stair});
    }
    return cases;
}

TEST(LaplaceSampleTable, EveryLookupMatchesFullStateOracle)
{
    // The table is built from boundaries alone, so its agreement with
    // the pipeline rests on the pipeline's monotonicity. Walk every
    // URNG state: each lookup must equal the pipeline, and the rank
    // and cumulative views must equal the walked PMF sorted by
    // magnitude. A failure here is a certifier bug as much as a
    // sampler bug: both read the same boundaries.
    for (int bu : {8, 12, 17, 20}) {
        for (const OracleCase &c : oracleCases(bu)) {
            FxpLaplaceRng rng(c.config);
            const LaplaceSampleTable &table = rng.table();
            uint64_t mismatches = 0;
            NoisePmf walk = walkPmf(bu, [&](uint64_t m) {
                int64_t k = rng.pipeline(m, 1);
                mismatches += table.lookup(m) != k;
                return k;
            });
            ASSERT_EQ(mismatches, 0u) << c.name << " Bu=" << bu;
            ASSERT_EQ(table.maxIndex(), walk.maxIndex()) << c.name;

            uint64_t cum = 0;
            uint64_t rank_mismatches = 0;
            for (int64_t k = 0; k <= walk.maxIndex(); ++k) {
                uint64_t next = cum + walk.magnitudeCount(k);
                ASSERT_EQ(table.cumulativeCount(k), next)
                    << c.name << " Bu=" << bu << " k=" << k;
                for (uint64_t r = cum; r < next; ++r)
                    rank_mismatches += table.lookupByRank(r) != k;
                cum = next;
            }
            ASSERT_EQ(cum, uint64_t{1} << bu);
            ASSERT_EQ(rank_mismatches, 0u) << c.name << " Bu=" << bu;
        }
    }
}

TEST(LaplaceSampleTable, SplitBucketsMatchPipelineAboveGuideWidth)
{
    // Above Bu = 20 a guide bucket spans 2^(Bu - 20) states and the
    // straddling ones finish with a climb over the boundaries. Check
    // every state within two of each boundary, where a climb off by
    // one would show, and a stride through the rest.
    for (int bu : {24, 32}) {
        for (auto log_mode : {FxpLaplaceConfig::LogMode::Reference,
                              FxpLaplaceConfig::LogMode::Cordic}) {
            FxpLaplaceConfig cfg = sweepConfig(bu, 10.0 / 32.0, log_mode);
            FxpLaplaceRng rng(cfg);
            const LaplaceSampleTable &table = rng.table();
            const uint64_t states = table.states();
            auto pmf = FxpLaplacePmf::shared(cfg);
            uint64_t checked = 0, mismatches = 0;
            auto check = [&](uint64_t m) {
                if (m < 1 || m > states)
                    return;
                bool ok = true;
                mismatches += table.view().lookupByRank(states - m, ok) !=
                              rng.pipeline(m, 1);
                mismatches += !ok;
                ++checked;
            };
            for (int64_t k = 1; k <= table.maxIndex(); ++k) {
                uint64_t b = pmf->tailCount(k);
                for (uint64_t m = b < 2 ? 1 : b - 2; m <= b + 2; ++m)
                    check(m);
            }
            for (uint64_t m = 1; m <= states; m += states / 4099 + 7)
                check(m);
            check(states);
            EXPECT_EQ(mismatches, 0u)
                << "Bu=" << bu << " log=" << static_cast<int>(log_mode);
            EXPECT_GT(checked, 4000u);
        }
    }
}

} // anonymous namespace
} // namespace ulpdp
