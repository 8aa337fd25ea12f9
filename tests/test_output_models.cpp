/**
 * @file
 * Tests for the exact conditional output distributions: they must be
 * proper distributions and agree with Monte Carlo runs of the actual
 * mechanisms.
 */

#include <cmath>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/output_model.h"
#include "core/resampling_mechanism.h"
#include "core/thresholding_mechanism.h"
#include "core/fxp_mechanism.h"

namespace ulpdp {
namespace {

FxpMechanismParams
testParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 12;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    return p;
}

std::shared_ptr<const FxpLaplacePmf>
testPmf()
{
    return std::make_shared<FxpLaplacePmf>(testParams().rngConfig());
}

double
sumOverOutputs(const DiscreteOutputModel &model, int64_t input)
{
    double sum = 0.0;
    for (int64_t j = model.outputLo(); j <= model.outputHi(); ++j)
        sum += model.prob(j, input);
    return sum;
}

TEST(NaiveOutputModel, RowsSumToOne)
{
    NaiveOutputModel model(testPmf(), 32);
    for (int64_t i : {int64_t{0}, int64_t{16}, int64_t{32}})
        EXPECT_NEAR(sumOverOutputs(model, i), 1.0, 1e-12) << i;
}

TEST(NaiveOutputModel, OutputRangeCoversSupport)
{
    auto pmf = testPmf();
    NaiveOutputModel model(pmf, 32);
    EXPECT_EQ(model.outputLo(), -pmf->maxIndex());
    EXPECT_EQ(model.outputHi(), 32 + pmf->maxIndex());
}

TEST(NaiveOutputModel, ProbIsShiftedPmf)
{
    auto pmf = testPmf();
    NaiveOutputModel model(pmf, 32);
    EXPECT_DOUBLE_EQ(model.prob(40, 16), pmf->pmf(24));
    EXPECT_DOUBLE_EQ(model.prob(-3, 0), pmf->pmf(-3));
}

TEST(ResamplingOutputModel, RowsSumToOne)
{
    ResamplingOutputModel model(testPmf(), 32, 150);
    for (int64_t i : {int64_t{0}, int64_t{10}, int64_t{32}})
        EXPECT_NEAR(sumOverOutputs(model, i), 1.0, 1e-12) << i;
}

TEST(ResamplingOutputModel, ZeroOutsideWindow)
{
    ResamplingOutputModel model(testPmf(), 32, 50);
    EXPECT_DOUBLE_EQ(model.prob(-51, 0), 0.0);
    EXPECT_DOUBLE_EQ(model.prob(83, 0), 0.0);
    EXPECT_GT(model.prob(-50, 0), 0.0);
    EXPECT_GT(model.prob(82, 32), 0.0);
}

TEST(ResamplingOutputModel, AcceptanceProbabilitySane)
{
    ResamplingOutputModel model(testPmf(), 32, 150);
    for (int64_t i = 0; i <= 32; ++i) {
        double z = model.acceptProbability(i);
        EXPECT_GT(z, 0.5);
        EXPECT_LE(z, 1.0 + 1e-12);
        EXPECT_NEAR(model.expectedSamples(i), 1.0 / z, 1e-12);
    }
}

TEST(ResamplingOutputModel, EdgeInputsResampleMore)
{
    // An input at the range edge has more noise mass falling outside
    // the (asymmetric) window than a centered input.
    ResamplingOutputModel model(testPmf(), 32, 60);
    EXPECT_LT(model.acceptProbability(0),
              model.acceptProbability(16));
}

TEST(ThresholdingOutputModel, RowsSumToOne)
{
    ThresholdingOutputModel model(testPmf(), 32, 150);
    for (int64_t i : {int64_t{0}, int64_t{7}, int64_t{32}})
        EXPECT_NEAR(sumOverOutputs(model, i), 1.0, 1e-12) << i;
}

TEST(ThresholdingOutputModel, RowsSumToOneTinyWindow)
{
    ThresholdingOutputModel model(testPmf(), 32, 0);
    for (int64_t i : {int64_t{0}, int64_t{16}, int64_t{32}})
        EXPECT_NEAR(sumOverOutputs(model, i), 1.0, 1e-12) << i;
}

TEST(ThresholdingOutputModel, BoundaryAtomsCarryTailMass)
{
    auto pmf = testPmf();
    int64_t t = 100;
    ThresholdingOutputModel model(pmf, 32, t);
    // Upper atom for input at the top of the range: tail beyond t.
    EXPECT_DOUBLE_EQ(model.prob(32 + t, 32), pmf->tailMass(t));
    // Upper atom for input at the bottom: tail beyond t + span.
    EXPECT_DOUBLE_EQ(model.prob(32 + t, 0), pmf->tailMass(t + 32));
    // Interior points follow the raw PMF.
    EXPECT_DOUBLE_EQ(model.prob(16, 16), pmf->pmf(0));
}

TEST(RandomizedResponseOutputModel, TwoPointRows)
{
    RandomizedResponseOutputModel model(testPmf(), 32);
    double q = model.flipProbability();
    EXPECT_GT(q, 0.0);
    EXPECT_LT(q, 0.5);
    EXPECT_DOUBLE_EQ(model.prob(0, 0), 1.0 - q);
    EXPECT_DOUBLE_EQ(model.prob(32, 0), q);
    EXPECT_DOUBLE_EQ(model.prob(32, 32), 1.0 - q);
    EXPECT_DOUBLE_EQ(model.prob(16, 0), 0.0); // interior impossible
    EXPECT_NEAR(sumOverOutputs(model, 0), 1.0, 1e-12);
}

/**
 * Monte Carlo agreement: run the real mechanism, histogram its
 * outputs, and check total variation distance against the model.
 */
TEST(OutputModelMonteCarlo, ResamplingAgrees)
{
    FxpMechanismParams p = testParams();
    int64_t t = 120;
    ResamplingMechanism mech(p, t);
    ResamplingOutputModel model(testPmf(), 32, t);

    const int n = 300000;
    std::map<int64_t, uint64_t> counts;
    for (int i = 0; i < n; ++i) {
        double y = mech.noise(5.0).value;
        ++counts[static_cast<int64_t>(std::llround(y / mech.delta()))];
    }

    int64_t input = 16; // 5.0 / 0.3125
    double tv = 0.0;
    for (int64_t j = model.outputLo(); j <= model.outputHi(); ++j) {
        double emp = counts.count(j)
            ? static_cast<double>(counts[j]) / n
            : 0.0;
        tv += std::abs(emp - model.prob(j, input));
    }
    EXPECT_LT(tv / 2.0, 0.03);
}

TEST(OutputModelMonteCarlo, ThresholdingAgrees)
{
    FxpMechanismParams p = testParams();
    int64_t t = 120;
    ThresholdingMechanism mech(p, t);
    ThresholdingOutputModel model(testPmf(), 32, t);

    const int n = 300000;
    std::map<int64_t, uint64_t> counts;
    for (int i = 0; i < n; ++i) {
        double y = mech.noise(10.0).value;
        ++counts[static_cast<int64_t>(std::llround(y / mech.delta()))];
    }

    int64_t input = 32;
    double tv = 0.0;
    for (int64_t j = model.outputLo(); j <= model.outputHi(); ++j) {
        double emp = counts.count(j)
            ? static_cast<double>(counts[j]) / n
            : 0.0;
        tv += std::abs(emp - model.prob(j, input));
    }
    EXPECT_LT(tv / 2.0, 0.03);
}

TEST(OutputModels, RejectBadArguments)
{
    auto pmf = testPmf();
    EXPECT_THROW(NaiveOutputModel(nullptr, 32), FatalError);
    EXPECT_THROW(NaiveOutputModel(pmf, 0), FatalError);
    EXPECT_THROW(ResamplingOutputModel(pmf, 32, -1), FatalError);
    EXPECT_THROW(ThresholdingOutputModel(pmf, 32, -2), FatalError);
}

} // anonymous namespace
} // namespace ulpdp
