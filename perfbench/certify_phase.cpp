/**
 * @file
 * Certify phase: closed-loop passes of PmfCertifier::certifyAll() over
 * a grid of profiles, the shared PMF cache cleared before each pass
 * (a provisioner pays that cost on every run). The pass is timed
 * around the public calls; MechanismCertificate::elapsed_seconds is
 * per mechanism and is not used.
 *
 * The traced run also times 1-job passes (for the jobs speedup) and
 * replays the certifier's stages per (profile, mechanism): registry
 * lower() (threshold search), MechanismSpec::makePmf (PMF build),
 * entry.model (model build) and PrivacyLossAnalyzer::analyze (sup).
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "core/mechanism_registry.h"
#include "core/pmf_certifier.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"
#include "phases.h"
#include "rng/fxp_laplace_pmf.h"
#include "trace.h"

namespace perfbench {

using namespace ulpdp;

namespace {

constexpr double kLossMultiple = 2.0;

/** Observation key of one profile: "<tag>.bu16.eps0.5". */
std::string
profileKey(const std::string &tag, const FxpMechanismParams &p)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, ".bu%d.eps%g", p.uniform_bits,
                  p.epsilon);
    return tag + buf;
}

} // namespace

FxpMechanismParams
certifyProfile(int bu, double eps)
{
    // The certify tool's defaults: range [-20, 60], Delta = d/32.
    FxpMechanismParams p;
    p.range = SensorRange(-20.0, 60.0);
    p.epsilon = eps;
    p.uniform_bits = bu;
    return p;
}

CertifyPhase::CertifyPhase(bool full_grid, int jobs, uint64_t seed,
                           std::string tag)
    : jobs_(jobs), seed_(seed), tag_(std::move(tag))
{
    if (full_grid) {
        for (int bu : {16, 24, 32}) {
            for (double eps : {1.0, 0.5})
                grid_.push_back(certifyProfile(bu, eps));
        }
    } else {
        grid_.push_back(certifyProfile(16, 1.0));
    }
    MechanismRegistry::instance();
}

double
CertifyPhase::pass(int jobs, Results &out)
{
    // The seed fixes the profile order of every pass.
    std::vector<size_t> order(grid_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::mt19937_64 gen(seed_ * 0x9e3779b97f4a7c15ULL + passes_);
    std::shuffle(order.begin(), order.end(), gen);

    FxpLaplacePmf::clearSharedCache();
    bool ok = true;
    double seconds = 0.0;
    Span span("certify.pass");
    for (size_t i : order) {
        const FxpMechanismParams &p = grid_[i];
        std::vector<MechanismCertificate> certs;
        {
            Span profile("certify.profile");
            Clock::time_point t0 = Clock::now();
            PmfCertifier certifier(p, kLossMultiple);
            certifier.setJobs(jobs);
            certs = certifier.certifyAll();
            seconds += secondsSince(t0);
        }
        std::string verdicts;
        for (const MechanismCertificate &c : certs) {
            ++pairs_;
            uncertified_ += c.certified ? 0 : 1;
            verdicts += c.mechanism + ":" +
                        (c.certified ? "certified" : "FAILED") + ":" +
                        exact(c.worst_case_loss) + ";";
        }
        std::string key = profileKey(tag_, p);
        auto [it, first] = verdicts_.emplace(key, verdicts);
        if (first) {
            out.observe(key, verdicts);
        } else if (it->second != verdicts) {
            ok = false;
            out.fail(key + ": certificates changed between passes");
        }
    }
    ++passes_;
    out.attempt(1, ok ? 0 : 1);
    return seconds;
}

void
CertifyPhase::measure(double seconds, Results &out)
{
    std::vector<double> &passes =
        Tracer::instance().enabled() ? traced_pass_s_ : pass_s_;
    Clock::time_point t0 = Clock::now();
    do
        passes.push_back(pass(jobs_, out));
    while (secondsSince(t0) < seconds);
}

void
CertifyPhase::report(bool trace, Results &out)
{
    if (trace) {
        out.metric("trace.overhead_pct",
                   (mean(traced_pass_s_) / mean(pass_s_) - 1.0) * 100.0,
                   "%");
        std::vector<double> serial;
        for (int n = 0; n < 2; ++n)
            serial.push_back(pass(1, out));
        out.metric("certify.jobs_speedup",
                   mean(serial) / mean(traced_pass_s_), "x");
        replayStages(mean(serial), out);
    }
    out.metric("certify_pass_s", mean(pass_s_), "s");
    out.repetitions(tag_, "certify_pass_s", pass_s_);
    out.metric("op_fail_ratio",
               static_cast<double>(uncertified_) /
                   static_cast<double>(std::max<uint64_t>(1, pairs_)),
               "ratio");
    out.observe(tag_ + ".op_fail_base",
                "uncertified (mechanism, profile) pairs per pair");
    out.observe(tag_ + ".passes", std::to_string(passes_));
}

void
CertifyPhase::replayStages(double pass1_s, Results &out)
{
    const MechanismRegistry &reg = MechanismRegistry::instance();
    double search_s = 0.0, pmf_s = 0.0, model_s = 0.0, sup_s = 0.0;
    for (const FxpMechanismParams &p : grid_) {
        FxpLaplacePmf::clearSharedCache();
        for (const std::string &name : reg.names()) {
            const MechanismRegistry::Entry &entry = reg.at(name);
            MechanismSpec spec;
            spec.params = p;
            spec.loss_multiple = kLossMultiple;
            spec.enumerate_pmf = true;
            FxpMechanismParams resolved = p;
            {
                // Lowered entries resolve their window in lower(); the
                // rest search inside model(), which is the same
                // ThresholdCalculator search, done here up front.
                Span span("core.threshold_search");
                Clock::time_point t0 = Clock::now();
                if (entry.lower) {
                    MechanismLowering low = entry.lower(spec);
                    spec.threshold_index = low.threshold_index;
                    resolved = low.params;
                } else {
                    spec.threshold_index =
                        ThresholdCalculator(p).exactIndex(
                            RangeControl::Resampling, kLossMultiple);
                }
                search_s += secondsSince(t0);
            }
            {
                Span span("rng.pmf_build");
                MechanismSpec pmf_spec = spec;
                pmf_spec.params = resolved;
                Clock::time_point t0 = Clock::now();
                pmf_spec.makePmf();
                pmf_s += secondsSince(t0);
            }
            std::unique_ptr<DiscreteOutputModel> model;
            {
                Span span("core.model_build");
                Clock::time_point t0 = Clock::now();
                model = entry.model(spec);
                model_s += secondsSince(t0);
            }
            {
                Span span("core.loss_sup");
                Clock::time_point t0 = Clock::now();
                PrivacyLossAnalyzer::analyze(*model, 1);
                sup_s += secondsSince(t0);
            }
        }
    }
    out.metric("rng.pmf_build_ms", pmf_s * 1e3, "ms");
    out.metric("core.threshold_search_ms", search_s * 1e3, "ms");
    out.metric("core.model_build_ms", model_s * 1e3, "ms");
    out.metric("core.loss_sup_ms", sup_s * 1e3, "ms");

    char line[384];
    std::snprintf(line, sizeof line,
                  "1-job pass %.2f ms = threshold search %.2f + PMF "
                  "build %.2f + model build %.2f + loss sup %.2f + "
                  "other %.2f",
                  pass1_s * 1e3, search_s * 1e3, pmf_s * 1e3,
                  model_s * 1e3, sup_s * 1e3,
                  (pass1_s - search_s - pmf_s - model_s - sup_s) * 1e3);
    std::printf("certify split (%s): %s\n", tag_.c_str(), line);
    out.observe("certify_split", line);
}

} // namespace perfbench
