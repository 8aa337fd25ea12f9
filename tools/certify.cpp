/**
 * @file
 * CLI driver for the exact-PMF privacy certifier (the CI certify
 * gate).
 *
 * Derives every registered mechanism's exact output distribution at a
 * chosen URNG width (segment-rank engine, Bu <= 32) and
 * machine-checks the Eq. (4) worst-case loss against
 * loss_multiple * eps. Exit status 0 iff every mechanism certifies,
 * so CI can gate on the process result; --json writes the
 * certificates for the artifact upload.
 *
 *   ulpdp_certify [--bu N] [--epsilon E] [--multiple M]
 *                 [--range LO HI] [--json PATH] [--jobs N]
 *                 [--mechanism NAME] [--no-timing]
 *
 * --jobs 0 uses every hardware thread; certificates are identical
 * for every job count. --no-timing omits the per-certificate
 * elapsed_seconds / states_per_second JSON fields, for byte-stable
 * diffs. Usage errors and impossible profiles (Bu < 1, eps not
 * finite and positive) exit 2.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/pmf_certifier.h"

using namespace ulpdp;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--bu N] [--epsilon E] [--multiple M] "
                 "[--range LO HI] [--json PATH] [--jobs N] "
                 "[--mechanism NAME] [--no-timing]\n", argv0);
    std::exit(2);
}

int
run(int argc, char **argv)
{
    FxpMechanismParams profile;
    profile.range = SensorRange(-20.0, 60.0); // the paper's example
    // Default eps = 1 rather than the paper's 0.5: at the default
    // Bu = 8 the discrete-Laplace scale correction needs more
    // headroom than 256 URNG states leave under 2 * 0.5 (its ln 2
    // zero-atom penalty is scale-invariant). Bu >= 10 certifies the
    // full set at eps = 0.5; CI runs both points.
    profile.epsilon = 1.0;
    profile.uniform_bits = 8;
    double multiple = 2.0;
    std::string json_path;
    std::string mechanism;
    int jobs = 1;
    bool timing = true;

    for (int i = 1; i < argc; ++i) {
        auto want = [&](int n) {
            if (i + n >= argc)
                usage(argv[0]);
        };
        if (std::strcmp(argv[i], "--bu") == 0) {
            want(1);
            profile.uniform_bits = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--epsilon") == 0) {
            want(1);
            profile.epsilon = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--multiple") == 0) {
            want(1);
            multiple = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--range") == 0) {
            want(2);
            double lo = std::atof(argv[++i]);
            double hi = std::atof(argv[++i]);
            profile.range = SensorRange(lo, hi);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            want(1);
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            want(1);
            jobs = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--mechanism") == 0) {
            want(1);
            mechanism = argv[++i];
        } else if (std::strcmp(argv[i], "--no-timing") == 0) {
            timing = false;
        } else {
            usage(argv[0]);
        }
    }

    PmfCertifier certifier(profile, multiple);
    certifier.setJobs(jobs);
    std::printf("Exact-PMF certification: Bu=%d eps=%g bound=%g*eps "
                "range=[%g, %g] jobs=%d\n",
                profile.uniform_bits, profile.epsilon, multiple,
                profile.range.lo, profile.range.hi, jobs);
    std::vector<MechanismCertificate> certs;
    if (mechanism.empty())
        certs = certifier.certifyAll();
    else
        certs.push_back(certifier.certify(mechanism));

    for (const MechanismCertificate &c : certs) {
        std::printf("  %-26s T=%-4" PRId64 " worst=%-12.9g "
                    "margin=%-12.9g inf=%" PRIu64 "  %s  "
                    "(%.3fs, %.3g states/s)\n",
                    c.mechanism.c_str(), c.threshold_index,
                    c.worst_case_loss, c.margin, c.infinite_outputs,
                    c.certified ? "CERTIFIED" : "FAILED",
                    c.elapsed_seconds, c.states_per_second);
    }

    PmfCertifier::writeJson(certs, json_path, timing);
    if (!json_path.empty())
        std::printf("certificates written to %s\n",
                    json_path.c_str());

    if (!PmfCertifier::allCertified(certs)) {
        std::fprintf(stderr,
                     "certification FAILED: at least one registered "
                     "mechanism exceeds its loss bound\n");
        return 1;
    }
    std::printf("all %zu registered mechanisms certified\n",
                certs.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed the reason (an impossible profile,
    // an unknown mechanism name); exit like a usage error.
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 2;
    }
}
