/**
 * @file
 * Tests for the exact-PMF privacy certifier: every registered
 * mechanism certifies at the CI profile, certificates carry sound
 * margins, and the JSON artifact round-trips the verdict.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/bounded_laplace.h"
#include "core/mechanism_registry.h"
#include "core/pmf_certifier.h"
#include "core/privacy_loss.h"
#include "pmf_oracle.h"
#include "rng/fxp_laplace_pmf.h"
#include "telemetry/telemetry.h"

namespace ulpdp {
namespace {

FxpMechanismParams
ciProfile(int bu)
{
    FxpMechanismParams p;
    p.range = SensorRange(-20.0, 60.0);
    // eps = 1 at Bu = 8: 256 URNG states leave no room for the
    // discrete-Laplace scale correction under a 2 * 0.5 bound (the
    // ln 2 zero-atom penalty is scale-invariant); see certify tool.
    p.epsilon = 1.0;
    p.uniform_bits = bu;
    p.output_bits = 14;
    p.delta = p.range.length() / 32.0;
    return p;
}

/** The FatalError message of constructing a certifier, or "". */
std::string
constructionError(const FxpMechanismParams &profile)
{
    try {
        PmfCertifier certifier(profile, 2.0);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(PmfCertifier, AllRegisteredMechanismsCertifyAtBuEight)
{
    PmfCertifier certifier(ciProfile(8), 2.0);
    auto certs = certifier.certifyAll();
    ASSERT_EQ(certs.size(),
              MechanismRegistry::instance().names().size());
    for (const MechanismCertificate &c : certs) {
        EXPECT_TRUE(c.certified) << c.mechanism << " worst loss "
                                 << c.worst_case_loss << " vs bound "
                                 << c.bound;
        EXPECT_EQ(c.infinite_outputs, 0u) << c.mechanism;
        EXPECT_GT(c.worst_case_loss, 0.0) << c.mechanism;
        EXPECT_LE(c.worst_case_loss, c.bound * (1.0 + 1e-9) + 1e-12)
            << c.mechanism;
        EXPECT_EQ(c.uniform_bits, 8) << c.mechanism;
        EXPECT_EQ(c.states, uint64_t{1} << 8) << c.mechanism;
        EXPECT_NEAR(c.margin, c.bound - c.worst_case_loss, 1e-12)
            << c.mechanism;
    }
    EXPECT_TRUE(PmfCertifier::allCertified(certs));
}

TEST(PmfCertifier, CertificateMatchesDirectAnalysis)
{
    // The certificate's worst-case loss must be exactly what the
    // analyzer reports on the registry's own enumerated model -- the
    // certifier adds bookkeeping, not arithmetic.
    FxpMechanismParams profile = ciProfile(8);
    PmfCertifier certifier(profile, 2.0);
    MechanismCertificate cert = certifier.certify("resampling");

    const auto &entry =
        MechanismRegistry::instance().at("resampling");
    MechanismSpec spec;
    spec.params = profile;
    spec.loss_multiple = 2.0;
    spec.threshold_index = cert.threshold_index;
    LossReport rep =
        PrivacyLossAnalyzer::analyze(*entry.model(spec));
    ASSERT_TRUE(rep.bounded);
    EXPECT_EQ(cert.worst_case_loss, rep.worst_case_loss);
    EXPECT_EQ(cert.worst_output, rep.worst_output);
}

TEST(PmfCertifier, EmptyCertificateListIsNotCertified)
{
    EXPECT_FALSE(PmfCertifier::allCertified({}));
}

TEST(PmfCertifier, WritesJsonArtifact)
{
    PmfCertifier certifier(ciProfile(8), 2.0);
    auto certs = certifier.certifyAll();

    std::string path = ::testing::TempDir() + "certify_test.json";
    PmfCertifier::writeJson(certs, path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string body = ss.str();
    EXPECT_NE(body.find("\"certificates\""), std::string::npos);
    EXPECT_NE(body.find("\"all_certified\":true"),
              std::string::npos);
    EXPECT_NE(body.find("\"bounded-laplace\""), std::string::npos);
    EXPECT_NE(body.find("\"discrete-laplace\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(PmfCertifier, RejectsEnumerationsItCannotAfford)
{
    // The segment engine accepts the full RNG width range, Bu <= 32;
    // beyond that the certifier refuses rather than wedge CI.
    EXPECT_THROW(PmfCertifier(ciProfile(33), 2.0), FatalError);
    EXPECT_NO_THROW(PmfCertifier(ciProfile(32), 2.0));

    // Impossible profiles are refused up front, naming the field,
    // rather than failing later inside a threshold search or an
    // output model.
    EXPECT_NE(constructionError(ciProfile(0)).find("uniform_bits"),
              std::string::npos);
    for (double eps : {-1.0, 0.0, std::numeric_limits<double>::infinity(),
                       std::nan("")}) {
        FxpMechanismParams profile = ciProfile(8);
        profile.epsilon = eps;
        EXPECT_NE(constructionError(profile).find("epsilon"),
                  std::string::npos) << "eps=" << eps;
    }
    // Loss multiple 1 stays legal: bounded-laplace certifies at it.
    EXPECT_NO_THROW(PmfCertifier(ciProfile(8), 1.0));
    EXPECT_THROW(PmfCertifier(ciProfile(8), 0.5), FatalError);
}

TEST(PmfCertifier, CertifiesAtBuThirtyTwo)
{
    // The raised ceiling is usable, not just accepted: the full
    // registry certifies at the silicon-unreachable-by-walking width
    // (2^32 states accounted for without visiting them).
    PmfCertifier certifier(ciProfile(32), 2.0);
    auto certs = certifier.certifyAll();
    ASSERT_EQ(certs.size(),
              MechanismRegistry::instance().names().size());
    for (const MechanismCertificate &c : certs) {
        EXPECT_TRUE(c.certified) << c.mechanism;
        EXPECT_EQ(c.states, uint64_t{1} << 32) << c.mechanism;
    }
}

TEST(PmfCertifier, FastAndLegacyCertificatesBitIdentical)
{
    // A certificate is a deterministic function of the resolved
    // enumerated PMF's counts, the span, T and K. So wherever every
    // registered mechanism's resolved PMF equals the per-state walk
    // of the real pipeline count for count, the segment engine's
    // certificates are the walk's, bit for bit -- checked at the CI
    // working points.
    struct Point
    {
        int bu;
        double eps;
    };
    const MechanismRegistry &registry = MechanismRegistry::instance();
    for (const Point &pt :
         {Point{8, 1.0}, Point{10, 0.5}, Point{12, 1.0}}) {
        MechanismSpec spec;
        spec.params = ciProfile(pt.bu);
        spec.params.epsilon = pt.eps;
        spec.loss_multiple = 2.0;
        for (const std::string &name : registry.names()) {
            SCOPED_TRACE(name + " at Bu=" + std::to_string(pt.bu));
            MechanismLowering res = registry.at(name).resolve(spec);
            MechanismSpec resolved = spec;
            resolved.params = res.params;
            auto engine = resolved.makePmf();
            FxpLaplaceRng rng(res.params.rngConfig());
            NoisePmf oracle = walkPmf(pt.bu, [&](uint64_t m) {
                return rng.pipeline(m, 1);
            });
            ASSERT_EQ(engine->maxIndex(), oracle.maxIndex());
            for (int64_t k = 0; k <= oracle.maxIndex() + 1; ++k)
                ASSERT_EQ(engine->magnitudeCount(k),
                          oracle.magnitudeCount(k)) << "k=" << k;
        }
    }
}

TEST(PmfCertifier, CertifyAllIndependentOfJobCount)
{
    FxpMechanismParams profile = ciProfile(10);
    PmfCertifier serial(profile, 2.0);
    auto base = serial.certifyAll();
    for (int jobs : {2, 3, 8}) {
        PmfCertifier parallel(profile, 2.0);
        parallel.setJobs(jobs);
        auto certs = parallel.certifyAll();
        ASSERT_EQ(certs.size(), base.size()) << "jobs=" << jobs;
        for (size_t i = 0; i < certs.size(); ++i) {
            SCOPED_TRACE(base[i].mechanism + " jobs=" +
                         std::to_string(jobs));
            EXPECT_EQ(certs[i].worst_case_loss,
                      base[i].worst_case_loss);
            EXPECT_EQ(certs[i].worst_output, base[i].worst_output);
            EXPECT_EQ(certs[i].threshold_index,
                      base[i].threshold_index);
            EXPECT_EQ(certs[i].infinite_outputs,
                      base[i].infinite_outputs);
            EXPECT_EQ(certs[i].margin, base[i].margin);
            EXPECT_EQ(certs[i].certified, base[i].certified);
        }
    }
}

TEST(PmfCertifier, TimingFieldsPopulatedAndOptionalInJson)
{
    PmfCertifier certifier(ciProfile(8), 2.0);
    auto certs = certifier.certifyAll();
    for (const MechanismCertificate &c : certs) {
        EXPECT_GT(c.elapsed_seconds, 0.0) << c.mechanism;
        EXPECT_GT(c.states_per_second, 0.0) << c.mechanism;
    }

    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string timed = ::testing::TempDir() + "certify_timed.json";
    std::string bare = ::testing::TempDir() + "certify_bare.json";
    PmfCertifier::writeJson(certs, timed);
    PmfCertifier::writeJson(certs, bare, false);
    EXPECT_NE(slurp(timed).find("\"elapsed_seconds\""),
              std::string::npos);
    EXPECT_EQ(slurp(bare).find("\"elapsed_seconds\""),
              std::string::npos);
    std::remove(timed.c_str());
    std::remove(bare.c_str());
}

TEST(PmfCertifier, CertifyAllSharesTheResamplingWindow)
{
    // Constant-time resampling runs the resampling window: it shares
    // that resolver, so certifyAll() searches once and both
    // certificates report the same window.
    auto certs = PmfCertifier(ciProfile(10), 2.0).certifyAll();
    const MechanismCertificate *res = nullptr, *ct = nullptr;
    for (const MechanismCertificate &c : certs) {
        if (c.mechanism == "resampling")
            res = &c;
        if (c.mechanism == "constant-time-resampling")
            ct = &c;
    }
    ASSERT_TRUE(res != nullptr && ct != nullptr);
    EXPECT_GE(res->threshold_index, 0);
    EXPECT_EQ(ct->threshold_index, res->threshold_index);
    EXPECT_EQ(PmfCertifier(ciProfile(10), 2.0)
                  .certify("constant-time-resampling")
                  .threshold_index,
              res->threshold_index);
}

/** Snapshot of one certifier stage in the global scope (a zero
 *  sample if the stage was never registered). */
MetricRegistry::Sample
stageSample(const std::string &stage)
{
    for (const auto &s : telemetry::registry().snapshot()) {
        if (s.info.name == "ulpdp_certify_stage_seconds" &&
            s.info.labels == "stage=\"" + stage + "\"")
            return s;
    }
    return {};
}

/** Observation count of one certifier stage in the global scope. */
uint64_t
stageCount(const std::string &stage)
{
    return stageSample(stage).count;
}

TEST(PmfCertifier, StageSplitIsRecordedOnlyWhenTelemetryIsOn)
{
    const char *stages[] = {"threshold_search", "pmf_build",
                            "model_build", "loss_sup"};
    telemetry::reset();
    PmfCertifier certifier(ciProfile(8), 2.0);
    certifier.certifyAll();
    for (const char *stage : stages)
        EXPECT_EQ(stageCount(stage), 0u) << stage;

    // A cold cache makes the telemetry-on pass build its PMFs, and
    // pmf_build is observed where a PMF is built, not per certificate.
    FxpLaplacePmf::clearSharedCache();
    telemetry::setEnabled(true);
    auto certs = certifier.certifyAll();
    telemetry::setEnabled(false);
    // Five mechanisms, four distinct resolutions (resampling and
    // constant-time resampling share one).
    EXPECT_EQ(stageCount("threshold_search"), certs.size() - 1);
    MetricRegistry::Sample build = stageSample("pmf_build");
    EXPECT_GE(build.count, 1u);
    EXPECT_GT(build.sum, 0.0);
    for (const char *stage : {"model_build", "loss_sup"})
        EXPECT_EQ(stageCount(stage), certs.size()) << stage;
    telemetry::reset();
}

TEST(PmfCertifier, BoundedLaplaceBuildsEachCandidatePmfOnce)
{
    // The scale search reads its candidates from the shared cache, so
    // resolving and then building the resolved block's PMF costs one
    // pmf_build per candidate tried -- the accepted one is not counted
    // a second time.
    for (int bu : {8, 16}) {
        FxpMechanismParams base = ciProfile(bu);
        const double loss_multiple = 2.0;
        FxpLaplacePmf::clearSharedCache();
        telemetry::reset();
        telemetry::setEnabled(true);
        MechanismSpec spec;
        spec.params =
            BoundedLaplaceMechanism::resolveParams(base, loss_multiple);
        auto pmf = spec.makePmf();
        telemetry::setEnabled(false);

        // Candidates tried: the Holohan seed, widened by 1% per
        // rejected step, up to the accepted scale.
        double d = base.range.length();
        double scale = BoundedLaplaceMechanism::holohanScale(
                               d, loss_multiple * base.epsilon) *
                       base.epsilon / d;
        uint64_t tried = 1;
        while (scale != spec.params.lambda_scale) {
            scale *= 1.01;
            ++tried;
            ASSERT_LE(tried, 220u) << "Bu " << bu;
        }
        EXPECT_EQ(stageCount("pmf_build"), tried) << "Bu " << bu;
        EXPECT_EQ(pmf, FxpLaplacePmf::shared(spec.params.rngConfig()));
    }
    telemetry::reset();
}

/** Two inputs, three outputs, dyadic probabilities: two rows have
 *  p_max / p_min = 2 exactly, so the worst loss is ln 2 on the nose. */
class RatioTwoModel : public DiscreteOutputModel
{
  public:
    int64_t span() const override { return 1; }
    int64_t outputLo() const override { return 0; }
    int64_t outputHi() const override { return 2; }
    void
    row(int64_t j, double *out) const override
    {
        static const double rows[3][2] = {
            {0.5, 0.25}, {0.25, 0.5}, {0.25, 0.25}};
        out[0] = rows[j][0];
        out[1] = rows[j][1];
    }
    std::string name() const override { return "ratio two"; }
};

TEST(PmfCertifier, LossExactlyAtTheBoundCertifies)
{
    // The verdict is worst <= bound with no tolerance either way: a
    // mechanism whose worst loss is exactly the bound certifies, and
    // the same mechanism against a bound one ulp lower does not.
    MechanismRegistry::Entry entry;
    entry.name = "ratio-two";
    entry.resolve = [](const MechanismSpec &spec) {
        MechanismLowering low;
        low.params = spec.params;
        return low;
    };
    entry.buildModel = [](const MechanismSpec &,
                          const MechanismLowering &) {
        return std::unique_ptr<DiscreteOutputModel>(new RatioTwoModel);
    };
    FxpMechanismParams profile = ciProfile(8);
    profile.epsilon = std::log(2.0);
    MechanismCertificate at = PmfCertifier(profile, 1.0).certify(entry);
    EXPECT_EQ(at.mechanism, "ratio-two");
    EXPECT_EQ(at.worst_case_loss, std::log(2.0));
    EXPECT_EQ(at.bound, at.worst_case_loss);
    EXPECT_EQ(at.margin, 0.0);
    EXPECT_TRUE(at.certified);

    profile.epsilon = std::nextafter(std::log(2.0), 0.0);
    MechanismCertificate above =
        PmfCertifier(profile, 1.0).certify(entry);
    EXPECT_EQ(above.worst_case_loss,
              std::nextafter(above.bound, INFINITY));
    EXPECT_FALSE(above.certified);
}

} // namespace
} // namespace ulpdp
