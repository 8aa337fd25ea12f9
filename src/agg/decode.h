/**
 * @file
 * Analyst-side inversion of the privacy channel: the one module that
 * turns released LDP report counts back into input-distribution
 * estimates. Post-processing already-released reports costs no
 * additional privacy (Section II-B of the paper).
 *
 * Every estimator takes a single vector of per-output-slot counts r,
 * whether it was merged from the fleet's sketch shards or tallied by
 * the caller from report indices (slot = index - outputLo()).
 *
 * decode() is the classic matrix-inversion frequency decoder. With
 * M the mechanism's conditional channel matrix (M[j][i] =
 * Pr[output j | input i], exact, from DiscreteOutputModel -- not
 * Monte Carlo), the observed counts satisfy E[r] = M c where c is the
 * true per-input count vector. The least-squares unbiased estimate is
 *
 *     c_hat = (M^T M)^{-1} M^T r
 *
 * precomputed once into a pseudo-inverse (the channel is tall and
 * skinny here: ~1e3 output slots, span+1 ~ 33 inputs, so the normal
 * equations are a 33x33 solve). Linearity of expectation gives
 * E[c_hat] = c with no distributional assumption on c.
 *
 * The boundary-mass correction for thresholding falls out of the same
 * inversion: the clamp's pile-up atoms are ordinary rows of M (the
 * ThresholdingOutputModel concentrates the tail mass there), so the
 * pseudo-inverse redistributes the atom counts back across the inputs
 * that could have produced them instead of letting them drag the mean
 * toward the window edges. decode() additionally reports the observed
 * and expected boundary fractions so callers can see how much mass the
 * correction moved.
 *
 * The same exact channel also serves maximumLikelihood():
 * Richardson-Lucy EM over M, which converges to the multinomial
 * maximum-likelihood input distribution. It is biased where the
 * least-squares decode is not, but it is always a valid distribution
 * (non-negative, summing to 1), which is what histogram and shape
 * queries want.
 *
 * For k-ary randomized response the channel is the symmetric p/q
 * matrix and the inversion collapses to the closed form
 * decodeKaryRR(), the one copy of it in the repo.
 */

#ifndef ULPDP_AGG_DECODE_H
#define ULPDP_AGG_DECODE_H

#include <cstdint>
#include <vector>

#include "core/output_model.h"

namespace ulpdp {

class KaryRandomizedResponse;

namespace agg {

/** Result of one decode pass over a slot-count vector. */
struct DecodedFrequencies
{
    /**
     * Unbiased estimated per-input counts, one per input index
     * 0..span. Individual entries can be negative (an unbiased
     * estimator must be allowed to undershoot); sums and moments use
     * these raw values.
     */
    std::vector<double> counts;

    /** counts clamped to >= 0 and renormalized to sum to 1; the
     *  nonnegative pmf view for quantile/probability readers. */
    std::vector<double> pmf;

    /** Total observed reports fed into the decode. */
    double total = 0.0;

    /** Unbiased mean of the input distribution (value units). */
    double mean = 0.0;

    /** Variance from the raw decoded moments, clamped at 0. */
    double variance = 0.0;

    /** Median of the clamped pmf over the input value grid, with
     *  linear interpolation inside the crossing cell. */
    double median = 0.0;

    /** Fraction of observed reports on the two extreme output slots
     *  (the clamp atoms under thresholding). */
    double boundary_mass_observed = 0.0;

    /** Same fraction expected under the decoded pmf pushed through
     *  the channel; observed >> expected flags decoder/model skew. */
    double boundary_mass_expected = 0.0;
};

/**
 * Precomputed pseudo-inverse decoder for one mechanism channel.
 *
 * Construction does all the heavy lifting (builds M from the model,
 * solves the normal equations); decode() per call is one pass of a
 * register-blocked column kernel over the nonzero slots, a few
 * microseconds at the spans this repo uses.
 */
class FrequencyDecoder
{
  public:
    /**
     * @param model Exact conditional output model; copied into the
     *        decoder's dense kernel, no reference kept.
     *
     * Fatal when the channel is rank-deficient (no mechanism in this
     * repo produces one: every input has a distinct output law).
     */
    explicit FrequencyDecoder(const DiscreteOutputModel &model);

    /** Inputs, i.e. span + 1 grid points. */
    size_t numInputs() const { return inputs_; }

    /** Output slots, i.e. outputHi - outputLo + 1. */
    size_t numOutputs() const { return outputs_; }

    /** Output index of slot 0, relative to the range-lo grid index. */
    int64_t outputLo() const { return output_lo_; }

    /** The channel M, row-major: slot s's row (the model's row of
     *  output outputLo() + s) starts at s * numInputs(). */
    const std::vector<double> &channel() const { return kernel_; }

    /**
     * Decode a slot-count vector into input-frequency estimates.
     * counts[a] sums pinv[j][a] * r_j over the nonzero slots j one
     * term at a time in slot order (IEEE multiply then add, never an
     * FMA), so it is bit-identical on every SIMD kernel and build.
     *
     * @param slot_counts Observed count per output slot; slot s holds
     *        output index outputLo() + s. Size must be numOutputs().
     * @param input_value0 Physical value of input index 0.
     * @param delta Grid step between adjacent input values.
     */
    DecodedFrequencies decode(const std::vector<uint64_t> &slot_counts,
                              double input_value0, double delta) const;

    /**
     * Maximum-likelihood input distribution by Richardson-Lucy EM
     * over the exact channel: pi <- pi * M^T (r / (M pi)), started
     * from the uniform distribution.
     *
     * @param slot_counts Observed count per output slot, as decode().
     * @param iterations EM iterations (>= 1), each O(inputs * outputs).
     * @return Estimated input probabilities over input indices
     *         0..span, non-negative and summing to 1.
     *
     * Fatal on a non-positive iteration count, a wrongly sized count
     * vector, no reports, or an EM step that leaves no mass.
     */
    std::vector<double>
    maximumLikelihood(const std::vector<uint64_t> &slot_counts,
                      int iterations) const;

  private:
    size_t inputs_ = 0;
    size_t outputs_ = 0;
    int64_t output_lo_ = 0;
    /** Pseudo-inverse (M^T M)^{-1} M^T, stored output-major
     *  (pinv_[j * inputs_ + a]): the column kernel keeps all inputs'
     *  sums in registers and reads each nonzero slot's row once. */
    std::vector<double> pinv_;
    /** Forward channel M, outputs_ x inputs_ row-major (EM,
     *  boundary-mass expectation and test round trips). */
    std::vector<double> kernel_;
};

/**
 * Closed-form unbiased k-ary randomized-response frequency decode:
 * for n total reports, c_hat_i = (r_i - n q') / (p' - q'), clamped to
 * [0, n], with (p', q') the probabilities @p rr actually implements.
 *
 * @param rr The mechanism that produced the reports.
 * @param observed Per-category observed counts (r), size
 *        rr.numCategories(); fatal otherwise.
 */
std::vector<double> decodeKaryRR(const KaryRandomizedResponse &rr,
                                 const std::vector<uint64_t> &observed);

/**
 * Estimated count of inputs with value >= threshold, from the raw
 * unbiased decoded counts on the grid value(i) = input_value0 +
 * i * delta. Serves the CountAbove utility query.
 */
double decodedCountAbove(const DecodedFrequencies &decoded,
                         double input_value0, double delta,
                         double threshold);

} // namespace agg
} // namespace ulpdp

#endif // ULPDP_AGG_DECODE_H
