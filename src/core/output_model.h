/**
 * @file
 * Exact conditional output distributions of the fixed-point
 * mechanisms, Pr[output = y | input = x], on the Delta index grid.
 *
 * The privacy loss of Eq. (4) is a statement about these conditional
 * distributions, not about any sampled data, so the analyzer works on
 * analytic models rather than Monte Carlo histograms. Each model wraps
 * the exact RNG PMF (Eq. 11) and applies the mechanism's range
 * control:
 *
 *  - NaiveOutputModel: y = x + n, no control.
 *  - ResamplingOutputModel: condition n on x + n landing inside the
 *    window and renormalise (the renormaliser depends on x, which the
 *    paper's derivation conservatively ignores; we compute it).
 *  - ThresholdingOutputModel: clamp, with the tail mass concentrated
 *    into atoms at the two window boundaries.
 *  - RandomizedResponseOutputModel: two-point distribution from the
 *    midpoint-crossing probability.
 */

#ifndef ULPDP_CORE_OUTPUT_MODEL_H
#define ULPDP_CORE_OUTPUT_MODEL_H

#include <cstdint>
#include <memory>
#include <string>

#include "rng/fxp_laplace_pmf.h"
#include "rng/noise_pmf.h"

namespace ulpdp {

/**
 * Pr[lo <= n <= hi] for noise index n, from two upperMass() queries
 * instead of a walk over the window. Exact: the result equals the
 * sequential sum of pmf() over [lo, hi] bit for bit (see
 * DESIGN.md §16, "Exact window search").
 */
double windowMass(const NoisePmf &pmf, int64_t lo, int64_t hi);

/**
 * Conditional distribution of a mechanism's output index given the
 * input index, over the Delta grid. Input indices are relative to the
 * range: 0 means the range lower limit m, span() means M.
 */
class DiscreteOutputModel
{
  public:
    virtual ~DiscreteOutputModel() = default;

    /** Input index span: inputs are 0 .. span() inclusive. */
    virtual int64_t span() const = 0;

    /** Smallest output index any input can produce. */
    virtual int64_t outputLo() const = 0;

    /** Largest output index any input can produce. */
    virtual int64_t outputHi() const = 0;

    /**
     * Pr[output = j | input = i] with i in [0, span()] and j an
     * absolute output index on the same grid.
     */
    virtual double prob(int64_t j, int64_t i) const = 0;

    /** Model name for reports. */
    virtual std::string name() const = 0;
};

/** y = x + n with no range control ("FxP HW Baseline"). */
class NaiveOutputModel : public DiscreteOutputModel
{
  public:
    /**
     * @param pmf Noise PMF (shared, must outlive the model).
     * @param span Range length in Delta units.
     */
    NaiveOutputModel(std::shared_ptr<const NoisePmf> pmf,
                     int64_t span);

    int64_t span() const override { return span_; }
    int64_t outputLo() const override;
    int64_t outputHi() const override;
    double prob(int64_t j, int64_t i) const override;
    std::string name() const override { return "FxP HW Baseline"; }

  private:
    std::shared_ptr<const NoisePmf> pmf_;
    int64_t span_;
};

/** Resampling into the window [-T, span + T], renormalised per input. */
class ResamplingOutputModel : public DiscreteOutputModel
{
  public:
    ResamplingOutputModel(std::shared_ptr<const NoisePmf> pmf,
                          int64_t span, int64_t threshold);

    int64_t span() const override { return span_; }
    int64_t outputLo() const override { return -threshold_; }
    int64_t outputHi() const override { return span_ + threshold_; }
    double prob(int64_t j, int64_t i) const override;
    std::string name() const override { return "Resampling"; }

    /** Acceptance probability of a single draw for input i. */
    double acceptProbability(int64_t i) const;

    /** Expected samples per report for input i (geometric mean 1/p). */
    double expectedSamples(int64_t i) const;

  private:
    std::shared_ptr<const NoisePmf> pmf_;
    int64_t span_;
    int64_t threshold_;
    /** Per-input acceptance probability Z(i), i = 0..span. */
    std::vector<double> accept_;
};

/** Clamping into the window [-T, span + T] with boundary atoms. */
class ThresholdingOutputModel : public DiscreteOutputModel
{
  public:
    ThresholdingOutputModel(std::shared_ptr<const NoisePmf> pmf,
                            int64_t span, int64_t threshold);

    int64_t span() const override { return span_; }
    int64_t outputLo() const override { return -threshold_; }
    int64_t outputHi() const override { return span_ + threshold_; }
    double prob(int64_t j, int64_t i) const override;
    std::string name() const override { return "Thresholding"; }

  private:
    std::shared_ptr<const NoisePmf> pmf_;
    int64_t span_;
    int64_t threshold_;
};

/** Two-point randomized-response distribution. */
class RandomizedResponseOutputModel : public DiscreteOutputModel
{
  public:
    RandomizedResponseOutputModel(
            std::shared_ptr<const NoisePmf> pmf, int64_t span);

    int64_t span() const override { return span_; }
    int64_t outputLo() const override { return 0; }
    int64_t outputHi() const override { return span_; }
    double prob(int64_t j, int64_t i) const override;
    std::string name() const override { return "Randomized Response"; }

    /** Midpoint-crossing (flip) probability. */
    double flipProbability() const { return flip_prob_; }

  private:
    int64_t span_;
    double flip_prob_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_OUTPUT_MODEL_H
