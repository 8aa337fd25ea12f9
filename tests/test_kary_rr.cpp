/**
 * @file
 * Tests for k-ary (generalized) randomized response.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "agg/decode.h"
#include "common/logging.h"
#include "core/kary_randomized_response.h"

namespace ulpdp {
namespace {

TEST(KaryRR, RejectsBadConfig)
{
    EXPECT_THROW(KaryRandomizedResponse(1, 1.0), FatalError);
    EXPECT_THROW(KaryRandomizedResponse(4, 0.0), FatalError);
    EXPECT_THROW(KaryRandomizedResponse(4, 1.0, 2), FatalError);
    EXPECT_THROW(KaryRandomizedResponse(4, 1.0, 40), FatalError);
}

TEST(KaryRR, RejectsRoundedTruthNotAboveLie)
{
    // Too few URNG bits for so small an eps: rounding the truth
    // threshold to 2^-4 leaves p' = q' = 1/2 (k = 2, whose loss would
    // read 0 and whose decode would divide by zero) or p' = 5/16 <
    // q' = 11/32 (k = 3, whose log(p'/q') would read negative while
    // the real loss is positive).
    EXPECT_THROW(KaryRandomizedResponse(2, 0.1, 4), FatalError);
    EXPECT_THROW(KaryRandomizedResponse(3, 0.01, 4), FatalError);
    // More bits resolve both.
    EXPECT_GT(KaryRandomizedResponse(2, 0.1, 17).exactLoss(), 0.0);
    EXPECT_GT(KaryRandomizedResponse(3, 0.01, 17).exactLoss(), 0.0);
}

TEST(KaryRR, ProbabilitiesMatchGrrFormula)
{
    for (int k : {2, 4, 10}) {
        for (double eps : {0.5, 1.0, 2.0}) {
            KaryRandomizedResponse rr(k, eps, 20);
            double p = std::exp(eps) /
                       (std::exp(eps) + static_cast<double>(k) - 1.0);
            EXPECT_NEAR(rr.truthProbability(), p, 1e-5)
                << "k=" << k << " eps=" << eps;
            EXPECT_NEAR(rr.lieProbability(),
                        (1.0 - p) / (k - 1), 1e-5);
        }
    }
}

TEST(KaryRR, ExactLossNearEpsilon)
{
    for (double eps : {0.25, 0.5, 1.0, 2.0}) {
        KaryRandomizedResponse rr(5, eps, 20);
        // Threshold quantization perturbs the implemented loss by at
        // most a few 2^-20 units of probability.
        EXPECT_NEAR(rr.exactLoss(), eps, 1e-4) << "eps=" << eps;
    }
}

TEST(KaryRR, BinaryCaseMatchesClassicRr)
{
    KaryRandomizedResponse rr(2, 1.0, 20);
    double p = std::exp(1.0) / (std::exp(1.0) + 1.0);
    EXPECT_NEAR(rr.truthProbability(), p, 1e-5);
}

TEST(KaryRR, RespondRejectsBadCategory)
{
    KaryRandomizedResponse rr(3, 1.0);
    EXPECT_THROW(rr.respond(-1), FatalError);
    EXPECT_THROW(rr.respond(3), FatalError);
}

TEST(KaryRR, ResponsesAreValidCategories)
{
    KaryRandomizedResponse rr(5, 1.0);
    for (int i = 0; i < 10000; ++i) {
        int r = rr.respond(i % 5);
        EXPECT_GE(r, 0);
        EXPECT_LT(r, 5);
    }
}

TEST(KaryRR, EmpiricalTruthRateMatches)
{
    KaryRandomizedResponse rr(4, 1.0, 20, 9);
    const int n = 200000;
    int truthful = 0;
    for (int i = 0; i < n; ++i) {
        if (rr.respond(2) == 2)
            ++truthful;
    }
    double p = rr.truthProbability();
    EXPECT_NEAR(static_cast<double>(truthful) / n, p,
                5.0 * std::sqrt(p * (1.0 - p) / n));
}

TEST(KaryRR, LiesAreUniform)
{
    KaryRandomizedResponse rr(4, 1.0, 20, 11);
    const int n = 300000;
    std::vector<int> counts(4, 0);
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<size_t>(rr.respond(0))];
    // Categories 1..3 should be hit about equally.
    double expect = rr.lieProbability() * n;
    for (int c = 1; c < 4; ++c)
        EXPECT_NEAR(counts[static_cast<size_t>(c)], expect,
                    5.0 * std::sqrt(expect));
}

TEST(KaryRR, EstimateCountsDebiases)
{
    KaryRandomizedResponse rr(3, 1.0, 20);
    double p = rr.truthProbability();
    double q = rr.lieProbability();
    // True counts (600, 300, 100); expected observations follow the
    // confusion matrix exactly.
    std::vector<double> truth{600.0, 300.0, 100.0};
    double n = 1000.0;
    std::vector<uint64_t> observed(3);
    for (size_t i = 0; i < 3; ++i) {
        double others = n - truth[i];
        observed[i] = static_cast<uint64_t>(
            std::llround(truth[i] * p + others * q));
    }
    auto est = agg::decodeKaryRR(rr, observed);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(est[i], truth[i], 2.0) << "i=" << i;
}

TEST(KaryRR, EstimateCountsClampsToValidRange)
{
    KaryRandomizedResponse rr(3, 1.0, 20);
    // All observations in one bucket: other estimates clamp at 0.
    auto est = agg::decodeKaryRR(rr, {100, 0, 0});
    EXPECT_DOUBLE_EQ(est[1], 0.0);
    EXPECT_DOUBLE_EQ(est[2], 0.0);
    EXPECT_LE(est[0], 100.0);
}

TEST(KaryRR, EstimateCountsRejectsWrongSize)
{
    KaryRandomizedResponse rr(3, 1.0);
    EXPECT_THROW(agg::decodeKaryRR(rr, {1, 2}), FatalError);
}

TEST(KaryRR, EndToEndFrequencyEstimation)
{
    KaryRandomizedResponse rr(4, 2.0, 20, 21);
    const int n = 100000;
    std::vector<double> truth{0.5, 0.3, 0.15, 0.05};
    std::vector<uint64_t> observed(4, 0);
    for (int i = 0; i < n; ++i) {
        double r = static_cast<double>(i % 100) / 100.0;
        int cat = r < 0.5 ? 0 : r < 0.8 ? 1 : r < 0.95 ? 2 : 3;
        ++observed[static_cast<size_t>(rr.respond(cat))];
    }
    auto est = agg::decodeKaryRR(rr, observed);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(est[i] / n, truth[i], 0.02) << "i=" << i;
}

TEST(KaryRR, MoreCategoriesLowerTruthRate)
{
    KaryRandomizedResponse small(2, 1.0);
    KaryRandomizedResponse large(20, 1.0);
    EXPECT_GT(small.truthProbability(), large.truthProbability());
}

} // anonymous namespace
} // namespace ulpdp
