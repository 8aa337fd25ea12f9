#include "core/pmf_certifier.h"

#include <chrono>
#include <cmath>

#include "common/json.h"
#include "common/logging.h"
#include "common/worker_pool.h"
#include "core/privacy_loss.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

/** Human-readable capability list for the certificate. */
std::string
capNames(uint32_t caps)
{
    std::string out;
    auto append = [&out](const char *name) {
        out += (out.empty() ? "" : ",");
        out += name;
    };
    if (caps & mechcap::kBatch)
        append("batch");
    if (caps & mechcap::kConstantTime)
        append("constant-time");
    if (caps & mechcap::kSegmentLoss)
        append("segment-loss");
    if (caps & mechcap::kBoundedOutput)
        append("bounded-output");
    return out;
}

/** Certifier stage split (docs/METRICS.md "Certification"). */
struct StageMetrics
{
    LatencyHistogram &threshold_search = stage("threshold_search");
    LatencyHistogram &model_build = stage("model_build");
    LatencyHistogram &loss_sup = stage("loss_sup");

    static LatencyHistogram &
    stage(const char *name)
    {
        return telemetry::registry().histogram(
                "ulpdp_certify_stage_seconds",
                "Wall-clock seconds per certifier stage",
                "seconds",
                {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0},
                std::string("stage=\"") + name + "\"");
    }
};

StageMetrics &
stageMetrics()
{
    static StageMetrics m;
    return m;
}

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

PmfCertifier::PmfCertifier(const FxpMechanismParams &profile,
                           double loss_multiple)
    : profile_(profile), loss_multiple_(loss_multiple)
{
    if (profile.uniform_bits < 1 ||
        profile.uniform_bits > kMaxUniformBits)
        fatal("PmfCertifier: exact enumeration needs uniform_bits "
              "in [1, %d], got %d", kMaxUniformBits,
              profile.uniform_bits);
    if (!(profile.epsilon > 0.0) || !std::isfinite(profile.epsilon))
        fatal("PmfCertifier: epsilon must be finite and positive, "
              "got %g", profile.epsilon);
    if (!(loss_multiple >= 1.0))
        fatal("PmfCertifier: loss multiple must be >= 1, got %g",
              loss_multiple);
}

void
PmfCertifier::setJobs(int jobs)
{
    jobs_ = jobs <= 0 ? hardwareJobs() : jobs;
}

MechanismSpec
PmfCertifier::spec() const
{
    MechanismSpec spec;
    spec.params = profile_;
    spec.loss_multiple = loss_multiple_;
    return spec;
}

MechanismLowering
PmfCertifier::resolve(const MechanismRegistry::Entry &entry,
                      double &seconds) const
{
    auto t0 = std::chrono::steady_clock::now();
    MechanismLowering res = entry.resolve(spec());
    seconds = secondsBetween(t0, std::chrono::steady_clock::now());
    if (telemetry::enabled())
        stageMetrics().threshold_search.observe(seconds);
    return res;
}

MechanismCertificate
PmfCertifier::certifyResolved(const MechanismRegistry::Entry &entry,
                              const MechanismLowering &res,
                              double resolve_seconds) const
{
    auto t0 = std::chrono::steady_clock::now();
    MechanismSpec resolved = spec();
    resolved.params = res.params;

    MechanismCertificate cert;
    cert.mechanism = entry.name;
    cert.caps = entry.caps;
    cert.uniform_bits = profile_.uniform_bits;
    cert.epsilon = profile_.epsilon;
    cert.loss_multiple = loss_multiple_;
    cert.bound = loss_multiple_ * profile_.epsilon;
    cert.threshold_index = res.threshold_index;
    cert.states = uint64_t{1} << profile_.uniform_bits;

    // The registered output model over the enumerated PMF: every
    // probability in Pr[y | x] traces back to a count of URNG states
    // the real pipeline produces, so the analyzer's sup is the
    // implementation's worst case, not the closed form's. The model
    // is built from the resolution, whose window search read the
    // same shared PMF, so nothing is searched or counted twice.
    std::unique_ptr<DiscreteOutputModel> model =
            entry.buildModel(resolved, res);
    auto t1 = std::chrono::steady_clock::now();
    LossReport report = PrivacyLossAnalyzer::analyze(*model, jobs_);
    auto t2 = std::chrono::steady_clock::now();
    if (telemetry::enabled()) {
        StageMetrics &m = stageMetrics();
        m.model_build.observe(secondsBetween(t0, t1));
        m.loss_sup.observe(secondsBetween(t1, t2));
    }

    cert.worst_case_loss = report.worst_case_loss;
    cert.worst_output = report.worst_output;
    cert.infinite_outputs = report.infinite_outputs;
    cert.margin = cert.bound - report.worst_case_loss;
    // Exact comparison, no tolerance: state accounting is uint64 (the
    // counts sum to exactly 2^Bu) and every probability is
    // count / 2^Bu, so there is no normalization error to absorb.
    cert.certified =
            report.bounded && report.worst_case_loss <= cert.bound;

    cert.elapsed_seconds = resolve_seconds + secondsBetween(t0, t2);
    cert.states_per_second =
            cert.elapsed_seconds > 0.0
                    ? static_cast<double>(cert.states) /
                              cert.elapsed_seconds
                    : 0.0;
    return cert;
}

MechanismCertificate
PmfCertifier::certify(const std::string &name) const
{
    return certify(MechanismRegistry::instance().at(name));
}

MechanismCertificate
PmfCertifier::certify(const MechanismRegistry::Entry &entry) const
{
    double seconds = 0.0;
    MechanismLowering res = resolve(entry, seconds);
    return certifyResolved(entry, res, seconds);
}

std::vector<MechanismCertificate>
PmfCertifier::certifyAll() const
{
    const MechanismRegistry &reg = MechanismRegistry::instance();
    std::vector<const MechanismRegistry::Entry *> entries;
    for (const std::string &name : reg.names())
        entries.push_back(&reg.at(name));

    // One resolution per distinct resolver: entries that run the same
    // search (resampling and constant-time resampling share the
    // resampling window) certify from one result.
    std::vector<size_t> owner; // first entry of each distinct resolver
    std::vector<size_t> slot(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
        size_t k = 0;
        while (k < owner.size() &&
               entries[owner[k]]->resolve != entries[i]->resolve)
            ++k;
        if (k == owner.size())
            owner.push_back(i);
        slot[i] = k;
    }
    std::vector<MechanismLowering> res(owner.size());
    std::vector<double> res_s(owner.size(), 0.0);
    std::vector<MechanismCertificate> out(entries.size());

    // Parallel across resolutions, then across mechanisms; each
    // certificate's inner loss sup runs serially (jobs = 1) to avoid
    // oversubscription. Output slots are fixed by registration order,
    // so the result is independent of scheduling. With jobs > 1 the
    // base PMF is warmed first so the workers hit the memoized table
    // instead of queueing behind one builder (they would still agree
    // -- the cache returns one object per configuration -- this just
    // keeps the stage timing honest).
    PmfCertifier inner(*this);
    if (jobs_ > 1) {
        inner.jobs_ = 1;
        spec().makePmf();
    }
    parallelFor(0, static_cast<int64_t>(owner.size()), jobs_, 1,
                [&](int64_t lo, int64_t hi) {
                    for (int64_t r = lo; r < hi; ++r) {
                        size_t k = static_cast<size_t>(r);
                        res[k] = inner.resolve(*entries[owner[k]],
                                               res_s[k]);
                    }
                });
    parallelFor(0, static_cast<int64_t>(entries.size()), jobs_, 1,
                [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                        size_t k = slot[static_cast<size_t>(i)];
                        out[static_cast<size_t>(i)] =
                                inner.certifyResolved(
                                        *entries[static_cast<size_t>(i)],
                                        res[k], res_s[k]);
                    }
                });
    return out;
}

bool
PmfCertifier::allCertified(
        const std::vector<MechanismCertificate> &certs)
{
    for (const MechanismCertificate &c : certs) {
        if (!c.certified)
            return false;
    }
    return !certs.empty();
}

void
PmfCertifier::writeJson(const std::vector<MechanismCertificate> &certs,
                        const std::string &path, bool include_timing)
{
    if (path.empty())
        return;
    JsonWriter json;
    json.beginObject();
    json.beginArray("certificates");
    for (const MechanismCertificate &c : certs) {
        json.beginObject();
        json.field("mechanism", c.mechanism);
        json.field("caps", capNames(c.caps));
        json.field("uniform_bits", c.uniform_bits);
        json.field("epsilon", c.epsilon);
        json.field("loss_multiple", c.loss_multiple);
        json.field("bound", c.bound);
        json.field("threshold_index", c.threshold_index);
        json.field("states", c.states);
        json.field("worst_case_loss", c.worst_case_loss);
        json.field("worst_output", c.worst_output);
        json.field("infinite_outputs", c.infinite_outputs);
        json.field("margin", c.margin);
        json.field("certified", c.certified);
        if (include_timing) {
            json.field("elapsed_seconds", c.elapsed_seconds);
            json.field("states_per_second", c.states_per_second);
        }
        json.endObject();
    }
    json.endArray();
    json.field("all_certified", allCertified(certs));
    json.endObject();
    if (!json.writeFile(path))
        fatal("PmfCertifier: cannot write certificate file '%s'",
              path.c_str());
}

} // namespace ulpdp
