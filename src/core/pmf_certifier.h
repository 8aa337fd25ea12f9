/**
 * @file
 * Exact-PMF privacy certifier: machine-checks Eq. (4) for every
 * registered mechanism by exact enumeration of the output law.
 *
 * The paper argues the n * eps worst-case loss bound analytically;
 * Gazeau et al. ("Preserving differential privacy under
 * finite-precision semantics") show why analytic arguments are not
 * enough -- finite-precision rounding can inflate the true loss of a
 * correctly-derived mechanism without bound. The certifier closes
 * that gap exactly, at real silicon URNG widths:
 *
 *  1. the noise PMF is derived as exact per-URNG-state counts by
 *     segment-rank accumulation (FxpLaplacePmf, the one PMF the
 *     window search, the budget charges and the sampler also read):
 *     the Fig. 3 pipeline is monotone in the URNG index, so each
 *     output bin is one contiguous state interval whose boundary a
 *     few exact pipeline probes pin down. Cost is O(support bins),
 *     not O(2^Bu), so Bu up to kMaxUniformBits (32) is affordable;
 *  2. the mechanism's registered output model applies its range
 *     control to that PMF (memoized per parameter block, so
 *     certifyAll() enumerates each distinct configuration once),
 *     giving the exact conditional distribution Pr[y | x];
 *  3. PrivacyLossAnalyzer takes, per output y, the min and max of
 *     Pr[y | x] over inputs in one pass -- Eq. (4) evaluated exactly,
 *     with infinite loss detected structurally (an output producible
 *     by one input and not another) -- parallelized over outputs
 *     and/or mechanisms (setJobs).
 *
 * All accounting is exact: per-bin uint64 state counts sum to 2^Bu
 * with zero slack, every probability is count / 2^Bu (an exact double
 * for Bu <= 32), and the certification comparison is a plain <= with
 * no normalization tolerance.
 *
 * A mechanism is *certified* when the sup is <= loss_multiple * eps
 * for one query (hence <= n * loss_multiple * eps over n queries, by
 * composition). Certificates serialize to JSON; the CI certify job
 * runs the suite at Bu = 8/10, 16 (silicon-width gate) and 32 and
 * fails if any registered mechanism misses its bound.
 */

#ifndef ULPDP_CORE_PMF_CERTIFIER_H
#define ULPDP_CORE_PMF_CERTIFIER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/mechanism_registry.h"
#include "rng/fxp_laplace_pmf.h"

namespace ulpdp {

/** One mechanism's certification result. */
struct MechanismCertificate
{
    /** Registry name of the mechanism. */
    std::string mechanism;

    /** Capability flags it advertises (OR of mechcap::). */
    uint32_t caps = 0;

    /** URNG width the enumeration ran at. */
    int uniform_bits = 0;

    /** Privacy parameter eps of the certified configuration. */
    double epsilon = 0.0;

    /** Loss target as a multiple of eps. */
    double loss_multiple = 0.0;

    /** The absolute per-query bound loss_multiple * eps. */
    double bound = 0.0;

    /** Resolved window half-extension (0 for bounded Laplace). */
    int64_t threshold_index = -1;

    /** URNG states accounted for (2^Bu). */
    uint64_t states = 0;

    /** Exact worst-case per-query loss (may be +infinity). */
    double worst_case_loss = 0.0;

    /** Output index attaining the worst case. */
    int64_t worst_output = 0;

    /** Outputs with structurally infinite loss. */
    uint64_t infinite_outputs = 0;

    /** bound - worst_case_loss (negative means failed). */
    double margin = 0.0;

    /** True iff the worst case is finite and within the bound. */
    bool certified = false;

    /** Wall-clock time this certificate took (PMF + model + sup). */
    double elapsed_seconds = 0.0;

    /** states / elapsed_seconds: URNG states accounted for per
     *  second. The segment engine's headline rate -- it accounts for
     *  states without visiting them. */
    double states_per_second = 0.0;
};

/** Runs the enumeration suite over the mechanism registry. */
class PmfCertifier
{
  public:
    /** Largest Bu the certifier accepts (segment-rank engine). The
     *  ctor guard and its fatal message both derive from this one
     *  constant, so they cannot drift apart again. */
    static constexpr int kMaxUniformBits = NoisePmf::kMaxUniformBits;

    /**
     * @param profile Parameter block to certify at. uniform_bits
     *        must be in [1, kMaxUniformBits] and epsilon finite and
     *        positive.
     * @param loss_multiple Per-query loss target, multiple of eps
     *        (>= 1).
     */
    explicit PmfCertifier(const FxpMechanismParams &profile,
                          double loss_multiple = 2.0);

    /**
     * Worker threads for the loss sup (and for certifyAll() across
     * mechanisms). 1 = serial (default); 0 = all hardware threads.
     * Certificates are identical for every job count.
     */
    void setJobs(int jobs);

    /** Certify one registered mechanism (fatal on unknown names). */
    MechanismCertificate certify(const std::string &name) const;

    /** Certify @p entry without registering it. Only the tests call
     *  this (a test model must not join every certifyAll()). */
    MechanismCertificate
    certify(const MechanismRegistry::Entry &entry) const;

    /** Certify every registered mechanism, registration order. */
    std::vector<MechanismCertificate> certifyAll() const;

    /** True iff every certificate in @p certs passed. */
    static bool
    allCertified(const std::vector<MechanismCertificate> &certs);

    /**
     * Serialize certificates to a JSON document ({"certificates":
     * [...], "all_certified": bool}); empty path writes nothing.
     * @p include_timing appends the elapsed_seconds /
     * states_per_second fields; byte-compat diffs pass false to get
     * output comparable across engines and machines.
     */
    static void
    writeJson(const std::vector<MechanismCertificate> &certs,
              const std::string &path, bool include_timing = true);

  private:
    /** The certification spec: the profile at the certified loss
     *  multiple. */
    MechanismSpec spec() const;

    /** Run @p entry's resolver on the profile (the threshold-search
     *  stage); @p seconds receives its wall time. */
    MechanismLowering resolve(const MechanismRegistry::Entry &entry,
                              double &seconds) const;

    /** Model build and loss sup of one mechanism from its
     *  resolution @p res (which took @p resolve_seconds). */
    MechanismCertificate
    certifyResolved(const MechanismRegistry::Entry &entry,
                    const MechanismLowering &res,
                    double resolve_seconds) const;

    FxpMechanismParams profile_;
    double loss_multiple_;
    int jobs_ = 1;
};

} // namespace ulpdp

#endif // ULPDP_CORE_PMF_CERTIFIER_H
