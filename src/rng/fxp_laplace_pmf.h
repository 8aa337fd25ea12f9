/**
 * @file
 * Exact probability mass function of the fixed-point Laplace RNG.
 *
 * Section III-B of the paper derives, in Eq. (11), the probability
 * that the Fig. 3 pipeline outputs the value k * Delta:
 *
 *   Pr[n = k Delta] = (floor(m1(k)) - ceil(m2(k)) + 1) / 2^(Bu+1)
 *   m1(k) = 2^Bu * exp(-(eps Delta / d)(k - 1/2))
 *   m2(k) = 2^Bu * exp(-(eps Delta / d)(k + 1/2))
 *
 * (with eps Delta / d = Delta / lambda). The whole privacy analysis --
 * infinite-loss detection, the resampling/thresholding thresholds of
 * Eqs. (13)/(15), the Fig. 8 budget segments -- is driven by this PMF.
 *
 * Three construction modes are provided:
 *  - Analytic: tabulates the closed form above once per bin of the
 *    reachable support; queries are table loads, as in the
 *    enumerated modes.
 *  - Enumerated: exact per-bin URNG state counts via segment-rank
 *    accumulation. The pipeline magnitude -lambda * ln(m / 2^Bu) is
 *    monotone non-increasing in the URNG index m, and every
 *    quantization stage (round-nearest, floor, saturation) preserves
 *    that monotonicity, so the states mapping to output bin k form
 *    one contiguous URNG interval. The builder locates each
 *    interval's boundary with an Eq. (11) analytic guess corrected by
 *    a handful of exact pipeline probes (galloping + bisection), so
 *    the cost is O(support bins * log correction), not O(2^Bu) --
 *    exact up to Bu = 32 in microseconds. Bit-identical to the
 *    per-state walk below wherever both are affordable (tests
 *    cross-check every registered mechanism configuration).
 *  - EnumeratedLegacy: runs the actual RNG pipeline over all 2^Bu
 *    URNG states and tallies the outputs, one state at a time. This
 *    is the original exhaustive enumerator, kept as the cross-check
 *    oracle for the segment engine (and as the only exact mode for a
 *    hypothetical non-monotone pipeline); it refuses Bu > 24.
 *
 * All state accounting is exact uint64 arithmetic: per-bin counts sum
 * to exactly 2^Bu (totalCount(), zero slack), and every probability
 * is count / 2^Bu -- an exact double for Bu <= 32.
 */

#ifndef ULPDP_RNG_FXP_LAPLACE_PMF_H
#define ULPDP_RNG_FXP_LAPLACE_PMF_H

#include <cstdint>
#include <memory>
#include <vector>

#include "rng/fxp_laplace.h"
#include "rng/noise_pmf.h"

namespace ulpdp {

/**
 * Exact PMF of an FxpLaplaceRng output, over signed output indices k
 * (the output value is k * Delta).
 */
class FxpLaplacePmf : public NoisePmf
{
  public:
    /** Largest Bu the segment-rank enumerator accepts. Bounded by
     *  FxpLaplaceRng's own URNG width cap, not by cost: the builder
     *  touches O(support bins) states, not 2^Bu. */
    static constexpr int kMaxEnumeratedBits = 32;

    /** Largest Bu the legacy per-state enumerator accepts (2^Bu
     *  pipeline evaluations; 24 is ~16M per construction). */
    static constexpr int kMaxLegacyEnumeratedBits = 24;

    /** How the PMF is computed. */
    enum class Mode
    {
        /** Closed form, Eq. (11). */
        Analytic,
        /** Exact state counts by segment-rank accumulation over the
         *  monotone URNG-to-bin map (Bu <= 32). */
        Enumerated,
        /** Exact state counts by walking all 2^Bu URNG states through
         *  the pipeline (Bu <= 24); the cross-check oracle. */
        EnumeratedLegacy,
    };

    /**
     * @param config RNG configuration the PMF describes.
     * @param mode Computation mode. Enumerated requires
     *        config.uniform_bits <= kMaxEnumeratedBits (32);
     *        EnumeratedLegacy requires <= kMaxLegacyEnumeratedBits
     *        (24).
     */
    explicit FxpLaplacePmf(const FxpLaplaceConfig &config,
                           Mode mode = Mode::Analytic);

    /**
     * Memoized construction: one shared immutable PMF per distinct
     * (PMF-relevant configuration, mode) pair, so repeated
     * certification of mechanisms sharing a parameter block
     * enumerates once. Thread-safe; the cache holds strong references
     * (the distinct configurations of a process are few).
     */
    static std::shared_ptr<const FxpLaplacePmf>
    shared(const FxpLaplaceConfig &config, Mode mode = Mode::Analytic);

    /** Drop every memoized PMF (benches re-measuring construction). */
    static void clearSharedCache();

    /** Configuration described. */
    const FxpLaplaceConfig &config() const { return config_; }

    /** Mode used. */
    Mode mode() const { return mode_; }

    /** Number of URNG states mapping to magnitude index k (k >= 0). */
    uint64_t magnitudeCount(int64_t k) const;

    /**
     * Exact total of the per-bin state counts. Always exactly 2^Bu --
     * the uint64 accounting admits no normalization slack; tests
     * assert equality, not closeness.
     */
    uint64_t totalCount() const;

    /** Pr[n = k * Delta] for a signed index k. */
    double pmf(int64_t k) const override;

    /** Pr[n >= k * Delta] for k >= 1 (upper tail mass). */
    double tailMass(int64_t k) const override;

    /**
     * Pr[n >= k * Delta] for any signed k (k <= 0 handled via the
     * sign symmetry of the distribution). Needed for the clamp atoms
     * of the thresholding mechanism with small windows.
     */
    double upperMass(int64_t k) const override;

    /** Largest index with positive probability (support bound). */
    int64_t maxIndex() const override { return max_index_; }

    /**
     * Smallest magnitude index k >= 0 whose probability is zero while
     * some larger index still has positive probability, or -1 if the
     * support has no such interior gap. Interior gaps are the
     * "cannot generate all the noise values" failure of Fig. 4(b).
     */
    int64_t firstInteriorGap() const;

    /** The m1 boundary function of Eq. (11). */
    double m1(int64_t k) const;

    /** The m2 boundary function of Eq. (11). */
    double m2(int64_t k) const;

    /** Total probability over the whole support (must be 1). */
    double totalMass() const;

  private:
    /** Closed-form magnitude count. */
    uint64_t analyticCount(int64_t k) const;

    /** Closed-form counts tabulated once (Mode::Analytic). */
    void buildAnalyticCounts();

    /** Segment-rank accumulation (Mode::Enumerated). */
    void buildSegmentCounts();

    /** Per-state walk (Mode::EnumeratedLegacy). */
    void buildLegacyCounts();

    /** Tail suffix sums over counts_, for O(1) tailMass. */
    void buildTailCounts();

    FxpLaplaceConfig config_;
    Mode mode_;
    /** Saturation index: the quantizer's largest magnitude index. */
    int64_t sat_index_;
    /** Largest index with positive probability. */
    int64_t max_index_;
    /** Counts per magnitude index, over the reachable support. */
    std::vector<uint64_t> counts_;
    /** tail_[k] = sum of counts_[k..sat]; tail_[0] = 2^Bu exactly. */
    std::vector<uint64_t> tail_;
};

} // namespace ulpdp

#endif // ULPDP_RNG_FXP_LAPLACE_PMF_H
