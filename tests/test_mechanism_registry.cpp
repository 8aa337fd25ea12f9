/**
 * @file
 * Tests for the mechanism registry: name lookup, capability
 * filtering, lowering resolution, output-model sanity at small Bu,
 * and the bounded-Laplace variance law against its closed form.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/bounded_laplace.h"
#include "core/constant_time.h"
#include "core/mechanism_registry.h"
#include "core/threshold_calc.h"

namespace ulpdp {
namespace {

/** The Tables II-V range at a certifier-friendly eps (eps = 1: at
 *  Bu = 8 the discrete-Laplace scale correction cannot clear a
 *  2 * 0.5 bound -- its ln 2 zero-atom penalty is scale-invariant
 *  and 256 URNG states leave no margin). */
FxpMechanismParams
smallProfile(int bu = 8)
{
    FxpMechanismParams p;
    p.range = SensorRange(-20.0, 60.0);
    p.epsilon = 1.0;
    p.uniform_bits = bu;
    p.output_bits = 14;
    p.delta = p.range.length() / 32.0;
    return p;
}

MechanismSpec
smallSpec(int bu = 8)
{
    MechanismSpec spec;
    spec.params = smallProfile(bu);
    spec.loss_multiple = 2.0;
    return spec;
}

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    return std::find(v.begin(), v.end(), s) != v.end();
}

TEST(MechanismRegistry, BuiltInsAreRegistered)
{
    auto &reg = MechanismRegistry::instance();
    for (const char *name :
         {"resampling", "thresholding", "constant-time-resampling",
          "bounded-laplace", "discrete-laplace"}) {
        const auto *entry = reg.find(name);
        ASSERT_NE(entry, nullptr) << name;
        EXPECT_EQ(entry->name, name);
        EXPECT_FALSE(entry->summary.empty()) << name;
        EXPECT_TRUE(static_cast<bool>(entry->make)) << name;
        EXPECT_TRUE(static_cast<bool>(entry->model)) << name;
    }
}

TEST(MechanismRegistry, UnknownNamesAreRejected)
{
    auto &reg = MechanismRegistry::instance();
    EXPECT_EQ(reg.find("gaussian"), nullptr);
    EXPECT_EQ(reg.find(""), nullptr);
    EXPECT_EQ(reg.find("Resampling"), nullptr); // names are exact
}

TEST(MechanismRegistry, NonLdpBaselinesAreNotRegistered)
{
    // Registration implies certifiability: the naive baseline (not
    // LDP) and the ideal float mechanism (no FxP PMF) must not
    // appear.
    auto &reg = MechanismRegistry::instance();
    EXPECT_EQ(reg.find("naive"), nullptr);
    EXPECT_EQ(reg.find("ideal"), nullptr);
}

TEST(MechanismRegistry, CapabilityFiltering)
{
    auto &reg = MechanismRegistry::instance();

    auto batch = reg.namesWithCaps(mechcap::kBatch);
    EXPECT_TRUE(contains(batch, "resampling"));
    EXPECT_TRUE(contains(batch, "thresholding"));
    EXPECT_TRUE(contains(batch, "bounded-laplace"));
    EXPECT_TRUE(contains(batch, "discrete-laplace"));
    EXPECT_FALSE(contains(batch, "constant-time-resampling"));

    auto ct = reg.namesWithCaps(mechcap::kConstantTime);
    EXPECT_TRUE(contains(ct, "thresholding"));
    EXPECT_TRUE(contains(ct, "constant-time-resampling"));
    EXPECT_TRUE(contains(ct, "bounded-laplace"));
    EXPECT_FALSE(contains(ct, "resampling"));

    auto bounded = reg.namesWithCaps(mechcap::kBoundedOutput);
    ASSERT_EQ(bounded.size(), 1u);
    EXPECT_EQ(bounded[0], "bounded-laplace");

    // Conjunction: both flags required.
    auto both =
        reg.namesWithCaps(mechcap::kBatch | mechcap::kConstantTime);
    EXPECT_TRUE(contains(both, "thresholding"));
    EXPECT_TRUE(contains(both, "bounded-laplace"));
    EXPECT_FALSE(contains(both, "resampling"));
    EXPECT_FALSE(contains(both, "constant-time-resampling"));

    EXPECT_EQ(reg.namesWithCaps(~0u).size(), 0u);
    EXPECT_EQ(reg.namesWithCaps(0).size(), reg.names().size());
}

TEST(MechanismRegistry, LoweringMatchesExactThresholdSearch)
{
    auto &reg = MechanismRegistry::instance();
    MechanismSpec spec = smallSpec(17);

    ThresholdCalculator calc(spec.params);
    int64_t t_res = calc.exactIndex(RangeControl::Resampling,
                                    spec.loss_multiple);
    int64_t t_thr = calc.exactIndex(RangeControl::Thresholding,
                                    spec.loss_multiple);

    MechanismLowering res = reg.at("resampling").lower(spec);
    EXPECT_EQ(res.threshold_index, t_res);
    EXPECT_TRUE(res.truncated);
    EXPECT_FALSE(res.clamp);

    MechanismLowering thr = reg.at("thresholding").lower(spec);
    EXPECT_EQ(thr.threshold_index, t_thr);
    EXPECT_TRUE(thr.clamp);
    EXPECT_FALSE(thr.truncated);

    // The spec override short-circuits the search.
    spec.threshold_index = 3;
    EXPECT_EQ(reg.at("resampling").lower(spec).threshold_index, 3);
}

TEST(MechanismRegistry, BoundedLoweringConfinesToSensorRange)
{
    MechanismSpec spec = smallSpec(17);
    MechanismLowering low =
        MechanismRegistry::instance().at("bounded-laplace")
            .lower(spec);
    EXPECT_EQ(low.threshold_index, 0);
    EXPECT_TRUE(low.truncated);
    EXPECT_FALSE(low.clamp);
    // The Holohan correction always widens the scale beyond the
    // plain Laplace scale at the target budget, b > d / eps_t, i.e.
    // lambda_scale > 1 / loss_multiple.
    EXPECT_GT(low.params.lambda_scale, 1.0 / spec.loss_multiple);
    EXPECT_NE(low.params.lambda_scale, 1.0);
}

TEST(MechanismRegistry, DiscreteLoweringSelectsFloorRounding)
{
    MechanismLowering low =
        MechanismRegistry::instance().at("discrete-laplace")
            .lower(smallSpec(17));
    EXPECT_EQ(low.params.rounding,
              FxpLaplaceConfig::Rounding::Floor);
    EXPECT_TRUE(low.truncated);
    EXPECT_GE(low.threshold_index, 0);
}

TEST(MechanismRegistry, ConstantTimeHasNoFleetLowering)
{
    const auto &entry =
        MechanismRegistry::instance().at("constant-time-resampling");
    EXPECT_FALSE(static_cast<bool>(entry.lower));
}

/** The certify-grid profile: the certify tool's defaults (range
 *  [-20, 60], By 12, Delta = d/32) at the given Bu and eps. */
FxpMechanismParams
gridProfile(int bu, double eps)
{
    FxpMechanismParams p;
    p.range = SensorRange(-20.0, 60.0);
    p.epsilon = eps;
    p.uniform_bits = bu;
    return p;
}

/** The fleet reference device: range [0, 10], eps 0.5, Bu 17,
 *  Delta = d/32. */
FxpMechanismParams
referenceDevice()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.delta = 10.0 / 32.0;
    return p;
}

TEST(MechanismRegistry, GridThresholdsArePinned)
{
    // The exact window searches at the six certify-grid profiles, as
    // resampling / thresholding / discrete-laplace. A faster search
    // must land on the same windows.
    struct Pin
    {
        int bu;
        double eps;
        int64_t resampling, thresholding, discrete;
    };
    const Pin pins[] = {
        {16, 1.0, 217, 218, 211},  {16, 0.5, 372, 373, 575},
        {24, 1.0, 391, 392, 394},  {24, 0.5, 728, 729, 1157},
        {32, 1.0, 572, 573, 568},  {32, 0.5, 1084, 1085, 1749},
    };
    auto &reg = MechanismRegistry::instance();
    for (const Pin &pin : pins) {
        MechanismSpec spec;
        spec.params = gridProfile(pin.bu, pin.eps);
        spec.loss_multiple = 2.0;
        SCOPED_TRACE(testing::Message()
                     << "Bu " << pin.bu << " eps " << pin.eps);
        EXPECT_EQ(reg.at("resampling").lower(spec).threshold_index,
                  pin.resampling);
        EXPECT_EQ(reg.at("thresholding").lower(spec).threshold_index,
                  pin.thresholding);
        EXPECT_EQ(
            reg.at("discrete-laplace").lower(spec).threshold_index,
            pin.discrete);
    }
}

TEST(MechanismRegistry, DiscreteLoweringReusesTheWidenedSearch)
{
    // The window resolveParams() found on its final widening step is
    // the window a fresh search over the resolved block finds.
    MechanismSpec spec;
    spec.params = gridProfile(16, 0.5);
    spec.loss_multiple = 2.0;
    MechanismLowering low =
        MechanismRegistry::instance().at("discrete-laplace")
            .lower(spec);
    EXPECT_EQ(low.threshold_index,
              ThresholdCalculator(low.params)
                  .exactIndex(RangeControl::Resampling, 2.0));
}

TEST(MechanismRegistry, AcceptanceMassEqualsTheSequentialSum)
{
    // Every windowed model's acceptance mass comes from two tail
    // queries; it must equal summing pmf() across the window one
    // output at a time, bit for bit.
    std::vector<FxpMechanismParams> profiles;
    for (int bu : {16, 24, 32}) {
        for (double eps : {1.0, 0.5})
            profiles.push_back(gridProfile(bu, eps));
    }
    profiles.push_back(referenceDevice());

    auto &reg = MechanismRegistry::instance();
    int checked = 0;
    for (const FxpMechanismParams &p : profiles) {
        for (const std::string &name : reg.names()) {
            const auto &entry = reg.at(name);
            MechanismSpec spec;
            spec.params = p;
            spec.loss_multiple = 2.0;
            MechanismLowering res = entry.resolve(spec);
            MechanismSpec resolved = spec;
            resolved.params = res.params;
            auto pmf = resolved.makePmf();
            auto model = entry.buildModel(resolved, res);

            std::function<double(int64_t)> accept;
            if (auto *m = dynamic_cast<const ResamplingOutputModel *>(
                    model.get()))
                accept = [m](int64_t i) {
                    return m->acceptProbability(i);
                };
            else if (auto *c =
                         dynamic_cast<const ConstantTimeOutputModel *>(
                             model.get()))
                accept = [c](int64_t i) {
                    return c->acceptProbability(i);
                };
            else
                continue; // thresholding: no acceptance mass
            ++checked;
            for (int64_t i = 0; i <= model->span(); ++i) {
                double z = 0.0;
                for (int64_t j = model->outputLo();
                     j <= model->outputHi(); ++j)
                    z += pmf->pmf(j - i);
                ASSERT_EQ(accept(i), z)
                    << name << " Bu " << p.uniform_bits << " eps "
                    << p.epsilon << " input " << i;
            }
        }
    }
    EXPECT_EQ(checked, 7 * 4);
}

TEST(MechanismRegistry, ModelsAreProperDistributionsAtBuEight)
{
    // Every registered mechanism's enumerated conditional output
    // model must be a probability distribution for every input: the
    // certifier's Eq. (4) scan is only sound over normalized columns.
    auto &reg = MechanismRegistry::instance();
    MechanismSpec spec = smallSpec(8);
    for (const std::string &name : reg.names()) {
        auto model = reg.at(name).model(spec);
        ASSERT_NE(model, nullptr) << name;
        for (int64_t i = 0; i <= model->span(); ++i) {
            double mass = 0.0;
            for (int64_t j = model->outputLo();
                 j <= model->outputHi(); ++j)
                mass += model->prob(j, i);
            EXPECT_NEAR(mass, 1.0, 1e-9)
                << name << " input " << i;
        }
    }
}

TEST(MechanismRegistry, FactoriesProduceLdpMechanisms)
{
    auto &reg = MechanismRegistry::instance();
    MechanismSpec spec = smallSpec(17);
    for (const std::string &name : reg.names()) {
        auto mech = reg.at(name).make(spec);
        ASSERT_NE(mech, nullptr) << name;
        EXPECT_TRUE(mech->guaranteesLdp()) << name;
        NoisedReport r = mech->noise(0.0);
        EXPECT_GE(r.samples_drawn, 1u) << name;
    }
}

TEST(MechanismRegistry, BoundedOutputsNeverLeaveTheRange)
{
    auto &reg = MechanismRegistry::instance();
    MechanismSpec spec = smallSpec(17);
    auto mech = reg.at("bounded-laplace").make(spec);
    const SensorRange range = spec.params.range;
    for (double x : {range.lo, -1.25, 20.0, 59.5, range.hi}) {
        for (int i = 0; i < 2000; ++i) {
            NoisedReport r = mech->noise(x);
            EXPECT_GE(r.value, range.lo);
            EXPECT_LE(r.value, range.hi);
        }
    }
}

TEST(MechanismRegistry, BoundedVarianceMatchesClosedForm)
{
    // The FxP bounded mechanism's sample variance must track the
    // continuous truncated-Laplace closed form at the mechanism's
    // resolved scale b = lambda. The FxP grid confines outputs to
    // grid points inside the range, but each boundary point absorbs
    // the continuous mass of its whole half-open bin, so the
    // matching continuous truncation bounds sit half a grid step
    // outside the sensor range.
    MechanismSpec spec = smallSpec(17);
    auto mech = MechanismRegistry::instance()
        .at("bounded-laplace").make(spec);
    FxpMechanismParams resolved =
        BoundedLaplaceMechanism::resolveParams(spec.params,
                                               spec.loss_multiple);
    const double b = resolved.lambda();
    const double half = 0.5 * resolved.resolvedDelta();
    const SensorRange range = spec.params.range;

    for (double x : {20.0, -10.0, 55.0}) {
        const int n = 200000;
        double sum = 0.0, sum2 = 0.0;
        for (int i = 0; i < n; ++i) {
            double y = mech->noise(x).value;
            sum += y;
            sum2 += y * y;
        }
        double mean = sum / n;
        double var = sum2 / n - mean * mean;
        double expect = BoundedLaplaceMechanism::truncatedVariance(
            b, range.lo - half, range.hi + half, x);
        EXPECT_NEAR(var, expect, 0.03 * expect) << "x=" << x;
    }
}

TEST(MechanismRegistry, HolohanFixedPointSolvesItsEquation)
{
    const double d = 80.0;
    for (double eps : {0.25, 0.5, 1.0, 2.0}) {
        double b = BoundedLaplaceMechanism::holohanScale(d, eps);
        EXPECT_GT(b, d / eps); // strictly wider than plain Laplace
        double dc = 2.0 / (1.0 + std::exp(-d / (2.0 * b)));
        EXPECT_NEAR(b, d / (eps - std::log(dc)), 1e-6 * b);
    }
}

} // namespace
} // namespace ulpdp
