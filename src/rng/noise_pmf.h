/**
 * @file
 * Exact noise PMF on the Delta index grid, as a URNG state count
 * table.
 *
 * Section III-A4 of the paper generalises the infinite-loss problem
 * beyond Laplace: *any* DP-guaranteeing distribution (Gaussian,
 * staircase, ...) realised with finite-precision inversion suffers
 * quantized tails, bounded support and interior gaps. Every such
 * pipeline maps a Bu-bit URNG index m in [1, 2^Bu] to a magnitude
 * index, so its exact PMF is a table of per-magnitude state counts.
 * NoisePmf is that table; the output models and the privacy-loss
 * analyzer work against it, so the same exact analysis applies to
 * every noise distribution the library implements.
 *
 * Its one builder is segment-rank accumulation. The pipeline
 * magnitude is monotone non-increasing in m (an inverse CDF of a
 * magnitude, followed by quantization stages that preserve weak
 * monotonicity), so the states mapping to bin k form one contiguous
 * URNG interval, and per-bin counts are differences of tail
 * boundaries B_k = max{m : pipeline(m) >= k}. Each boundary is found
 * by galloping + bisection with exact pipeline probes, starting from
 * an optional closed-form guess (FxpLaplacePmf passes Eq. (11)'s
 * floor(m1(k))) or, without one, from the previous boundary. Cost is
 * O(support bins * log correction), not O(2^Bu): exact at Bu = 32.
 *
 * All state accounting is exact uint64 arithmetic: the counts sum to
 * exactly 2^Bu (totalCount(), zero slack), and every probability is
 * count / 2^Bu -- an exact double for Bu <= 32.
 */

#ifndef ULPDP_RNG_NOISE_PMF_H
#define ULPDP_RNG_NOISE_PMF_H

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace ulpdp {

/**
 * Exact, sign-symmetric PMF of a discrete noise distribution over
 * signed indices k (noise value = k * Delta): 2^Bu URNG states split
 * over magnitude bins, each magnitude drawn with either sign.
 */
class NoisePmf
{
  public:
    /** Largest URNG width the engine accepts (counts are uint64,
     *  probabilities exact doubles). */
    static constexpr int kMaxUniformBits = 32;

    /** Guess argument of fromPipeline() meaning "no guess": each
     *  bin gallops from the previous bin's boundary. */
    struct NoGuess
    {
    };

    /**
     * Build the exact PMF of @p pipeline by segment-rank
     * accumulation. A template so the probes call the pipeline
     * directly: the engine is a few probes per bin, and an indirect
     * call per probe is a visible share of its cost.
     *
     * @param uniform_bits URNG width Bu, in [1, kMaxUniformBits].
     * @param pipeline int64_t(uint64_t m): the magnitude index of
     *        URNG index m in [1, 2^Bu] (sign +1). Must be monotone
     *        non-increasing in m, with pipeline(2^Bu) == 0 (u = 1 is
     *        the zero magnitude).
     * @param guess uint64_t(int64_t k): a guess for the tail boundary
     *        B_k of bin k >= 1, the largest m whose magnitude is
     *        >= k. Any value is safe (it is clamped and corrected by
     *        exact probes); a good one makes the common case two
     *        probes per bin. NoGuess gallops from the previous
     *        boundary instead.
     */
    template <typename Pipeline, typename Guess = NoGuess>
    static NoisePmf fromPipeline(int uniform_bits,
                                 const Pipeline &pipeline,
                                 const Guess &guess = Guess());

    /**
     * Adopt exact per-magnitude counts (index k = magnitude k) that
     * already sum to 2^Bu -- a closed form tabulated elsewhere, or a
     * reference enumeration.
     */
    NoisePmf(int uniform_bits, std::vector<uint64_t> counts);

    /** Number of URNG states mapping to magnitude index k (k >= 0). */
    uint64_t magnitudeCount(int64_t k) const;

    /** Exact total of the per-bin state counts: always 2^Bu. */
    uint64_t totalCount() const { return tail_[0]; }

    /** Tail boundary B_k: the states with magnitude >= k (k >= 0),
     *  which a monotone pipeline maps from m in [1, B_k]. */
    uint64_t tailCount(int64_t k) const;

    /** Pr[n = k * Delta] for a signed index k. */
    double pmf(int64_t k) const;

    /** Pr[n >= k * Delta] for k >= 1 (upper tail mass). */
    double tailMass(int64_t k) const;

    /**
     * Pr[n >= k * Delta] for any signed k (k <= 0 handled via the
     * sign symmetry of the distribution). Needed for the clamp atoms
     * of the thresholding mechanism with small windows.
     */
    double upperMass(int64_t k) const;

    /** Largest index with positive probability (support bound). */
    int64_t maxIndex() const { return max_index_; }

    /**
     * Smallest magnitude index k >= 0 whose probability is zero while
     * some larger index still has positive probability, or -1 if the
     * support has no such interior gap. Interior gaps are the
     * "cannot generate all the noise values" failure of Fig. 4(b).
     */
    int64_t firstInteriorGap() const;

    /** Total probability over the whole support (must be 1). */
    double totalMass() const;

  private:
    /** Fatal unless 1 <= @p uniform_bits <= kMaxUniformBits. */
    static void checkUniformBits(int uniform_bits);

    /** Mass of one URNG state at magnitude 0 (2^-Bu, both signs)
     *  and at a signed index k != 0 (2^-(Bu+1)): scaling a count by
     *  a power of two is exact. */
    double zero_unit_ = 0.0;
    double signed_unit_ = 0.0;
    /** Largest index with positive probability. */
    int64_t max_index_ = 0;
    /** Counts per magnitude index, over the reachable support. */
    std::vector<uint64_t> counts_;
    /** tail_[k] = sum of counts_[k..]; tail_[0] = 2^Bu exactly. */
    std::vector<uint64_t> tail_;
};

template <typename Pipeline, typename Guess>
NoisePmf
NoisePmf::fromPipeline(int uniform_bits, const Pipeline &pipeline,
                       const Guess &guess)
{
    checkUniformBits(uniform_bits);
    const uint64_t states = uint64_t{1} << uniform_bits;
    ULPDP_ASSERT(pipeline(states) == 0);

    // Counts are boundary differences B_k - B_{k+1}. The largest bin
    // any state reaches is the image of the smallest URNG index; bins
    // above it are never probed nor allocated.
    const int64_t k_top = pipeline(1);
    ULPDP_ASSERT(k_top >= 0);
    std::vector<uint64_t> counts(static_cast<size_t>(k_top) + 1, 0);

    // One-entry probe memo. The pipeline is monotone non-increasing,
    // so the last evaluation (last_m, last_v) settles any holds()
    // query it dominates without re-running the pipeline -- runs of
    // empty tail bins between occupied ones cost zero probes.
    uint64_t last_m = 0;
    int64_t last_v = -1;

    uint64_t prev_b = 0; // B_{k+1}: tail boundary of the bin above
    for (int64_t k = k_top; k >= 1; --k) {
        // holds(b): every state m <= b outputs >= k. States at or
        // below prev_b output >= k + 1 by the nesting of tail sets.
        auto holds = [&](uint64_t b) {
            if (b <= prev_b)
                return true;
            if (last_m != 0) {
                if (b <= last_m && last_v >= k)
                    return true;
                if (b >= last_m && last_v < k)
                    return false;
            }
            last_m = b;
            last_v = pipeline(b);
            return last_v >= k;
        };

        // Start from the guess (or the previous boundary), clamped
        // into the known bracket [prev_b, states - 1]
        // (pipeline(2^Bu) = 0 < k).
        uint64_t g = prev_b;
        if constexpr (!std::is_same_v<Guess, NoGuess>)
            g = guess(k);
        if (g < prev_b)
            g = prev_b;
        if (g > states - 1)
            g = states - 1;

        uint64_t b_k;
        if (holds(g) && !holds(g + 1)) {
            b_k = g; // the guess was exact (the common case)
        } else {
            uint64_t lo, hi;
            if (holds(g)) {
                // Boundary above the guess: gallop up.
                lo = g;
                hi = states; // !holds(states) for k >= 1
                for (uint64_t step = 1; lo + step < states;
                     step *= 2) {
                    uint64_t probe = lo + step;
                    if (holds(probe)) {
                        lo = probe;
                    } else {
                        hi = probe;
                        break;
                    }
                }
            } else {
                // Boundary below the guess: gallop down.
                hi = g;
                lo = prev_b;
                for (uint64_t step = 1; hi > prev_b + step;
                     step *= 2) {
                    uint64_t probe = hi - step;
                    if (holds(probe)) {
                        lo = probe;
                        break;
                    }
                    hi = probe;
                }
            }
            while (hi - lo > 1) {
                uint64_t mid = lo + (hi - lo) / 2;
                if (holds(mid))
                    lo = mid;
                else
                    hi = mid;
            }
            b_k = lo;
        }
        counts[static_cast<size_t>(k)] = b_k - prev_b;
        prev_b = b_k;
    }
    // Bin 0 absorbs every remaining state: B_0 = 2^Bu exactly, which
    // is what makes totalCount() slack-free by construction.
    counts[0] = states - prev_b;
    return NoisePmf(uniform_bits, std::move(counts));
}

} // namespace ulpdp

#endif // ULPDP_RNG_NOISE_PMF_H
