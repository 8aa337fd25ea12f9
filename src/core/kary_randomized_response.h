/**
 * @file
 * k-ary (generalized) randomized response.
 *
 * Section VI-E shows the DP-Box reconfigured for *binary* randomized
 * response and cites RAPPOR for categorical collection. This module
 * provides the natural k-category generalization a deployment with
 * multi-valued categorical sensors (activity type, room id, device
 * state) needs: report the true category with probability
 *
 *   p = e^eps / (e^eps + k - 1)
 *
 * and each other category with probability q = p / e^eps, which is
 * exactly eps-LDP (the p/q ratio is e^eps, and the exact loss is
 * log(p/q) = eps by construction -- no fixed-point tail hazard,
 * because the only randomness is a uniform categorical draw that a
 * Bu-bit URNG represents exactly up to a 2^-Bu rounding analysed
 * below).
 *
 * Implementation is ULP-friendly: one Bu-bit Tausworthe word per
 * report, compared against fixed-point thresholds. Because the
 * thresholds are quantized to 2^-Bu, the implemented (p', q') differ
 * from ideal by at most 2^-Bu; exactLoss() reports the implemented
 * ratio so the guarantee is stated for what actually runs. Reports
 * decode through agg::decodeKaryRR().
 */

#ifndef ULPDP_CORE_KARY_RANDOMIZED_RESPONSE_H
#define ULPDP_CORE_KARY_RANDOMIZED_RESPONSE_H

#include <cstdint>

#include "rng/tausworthe.h"

namespace ulpdp {

/** Generalized randomized response over categories {0, ..., k-1}. */
class KaryRandomizedResponse
{
  public:
    /**
     * @param num_categories k >= 2.
     * @param epsilon Privacy parameter (> 0).
     * @param uniform_bits URNG width used per draw (4..32).
     * @param seed Tausworthe seed.
     *
     * Fatal when the threshold rounded to 2^-uniform_bits gives
     * p' <= q': the reports would then be independent of the
     * category or, worse, favour a lie, and log(p'/q') would no
     * longer be the loss.
     */
    KaryRandomizedResponse(int num_categories, double epsilon,
                           int uniform_bits = 17, uint64_t seed = 1);

    /** Number of categories k. */
    int numCategories() const { return k_; }

    /** Configured privacy parameter. */
    double epsilon() const { return epsilon_; }

    /**
     * Truth probability actually implemented (after quantizing the
     * threshold to the URNG grid).
     */
    double truthProbability() const;

    /** Per-wrong-category probability actually implemented. */
    double lieProbability() const;

    /**
     * Exact worst-case loss of the implemented distribution:
     * log(p' / q'). Within 2^-Bu rounding of eps.
     */
    double exactLoss() const;

    /** Randomize one category (0 <= category < k). */
    int respond(int category);

  private:
    int k_;
    double epsilon_;
    int uniform_bits_;
    Tausworthe urng_;
    /** Truth threshold in URNG grid units: the report is truthful
     *  iff the Bu-bit draw is below this. */
    uint64_t truth_threshold_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_KARY_RANDOMIZED_RESPONSE_H
