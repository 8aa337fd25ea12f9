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
 *
 * A model's one probability primitive is the output row, row(j):
 * Pr[j | i] for every input i. The loss sup of Eq. (4), the exact
 * window search through it and the agg decoder's channel all read
 * rows. PMF-backed models fill interior rows from a MassSlice: one
 * copy, multiply or divide per entry, with no per-entry lookup.
 */

#ifndef ULPDP_CORE_OUTPUT_MODEL_H
#define ULPDP_CORE_OUTPUT_MODEL_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
 * The noise PMF over every k = j - i a window [-threshold, span +
 * threshold] reads, tabulated once in descending k so that an output
 * row is one forward slice: from(j)[i] = pmf(j - i). Owned by the
 * model that reads it (O(window) doubles) -- never by the shared PMF,
 * which outlives many windows.
 */
class MassSlice
{
  public:
    MassSlice() = default;
    MassSlice(const NoisePmf &pmf, int64_t span, int64_t threshold);

    /** p with p[i] = pmf(j - i), for j inside the window. */
    const double *
    from(int64_t j) const
    {
        return &mass_[static_cast<size_t>(hi_ - j)];
    }

  private:
    int64_t hi_ = 0;
    std::vector<double> mass_;
};

/**
 * Conditional distribution of a mechanism's output index given the
 * input index, over the Delta grid. Input indices are relative to the
 * range: 0 means the range lower limit m, span() means M. A model is
 * read one output row at a time (row()), its one probability
 * primitive, so no model keeps a second formula that could drift.
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
     * The output row of @p j: out[i] = Pr[output = j | input = i] for
     * every input i in [0, span()] (@p out holds span() + 1 doubles).
     * @p j is an absolute output index on the same grid; a j no input
     * can produce fills zeros. Must be safe for concurrent calls.
     */
    virtual void row(int64_t j, double *out) const = 0;

    /**
     * Pr[output = j | input = i], one entry of row(j): a convenience
     * for spot checks, O(span) per call. Sweeps read whole rows.
     */
    double prob(int64_t j, int64_t i) const;

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
    int64_t outputLo() const override { return -max_index_; }
    int64_t outputHi() const override { return span_ + max_index_; }
    void row(int64_t j, double *out) const override;
    std::string name() const override { return "FxP HW Baseline"; }

  private:
    int64_t span_;
    int64_t max_index_ = 0;
    MassSlice mass_;
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
    void row(int64_t j, double *out) const override;
    std::string name() const override { return "Resampling"; }

    /** Acceptance probability of a single draw for input i. */
    double acceptProbability(int64_t i) const;

    /** Expected samples per report for input i (geometric mean 1/p). */
    double expectedSamples(int64_t i) const;

  private:
    int64_t span_;
    int64_t threshold_;
    /** Per-input acceptance probability Z(i), i = 0..span. */
    std::vector<double> accept_;
    MassSlice mass_;
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
    void row(int64_t j, double *out) const override;
    std::string name() const override { return "Thresholding"; }

    /** Upper or lower boundary-atom row of the window [-@p threshold,
     *  @p span + @p threshold]; row() and the window sweep read it. */
    static void atomRow(const NoisePmf &pmf, int64_t span,
                        int64_t threshold, bool upper, double *out);

  private:
    std::shared_ptr<const NoisePmf> pmf_;
    int64_t span_;
    int64_t threshold_;
    MassSlice mass_;
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
    void row(int64_t j, double *out) const override;
    std::string name() const override { return "Randomized Response"; }

    /** Midpoint-crossing (flip) probability. */
    double flipProbability() const { return flip_prob_; }

  private:
    int64_t span_;
    double flip_prob_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_OUTPUT_MODEL_H
