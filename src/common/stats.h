/**
 * @file
 * Streaming statistics accumulators used throughout the evaluation
 * harness: running mean/variance (Welford), min/max, and a small helper
 * for batch statistics (median, percentiles, MAE).
 */

#ifndef ULPDP_COMMON_STATS_H
#define ULPDP_COMMON_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ulpdp {

/**
 * Exact integer moments of samples on a grid, each given as its
 * non-negative offset s from a grid origin. Integer sums are order-free,
 * and the 128-bit ones stay exact while n * max < 2^64.
 */
struct GridSums
{
    uint64_t n = 0;
    unsigned __int128 sum = 0;
    unsigned __int128 sum_sq = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;

    /** Count offset @p s @p count times. */
    void add(uint64_t s, uint64_t count = 1)
    {
        if (count == 0)
            return;
        n += count;
        sum += static_cast<unsigned __int128>(s) * count;
        sum_sq += static_cast<unsigned __int128>(s) * s * count;
        min = std::min(min, s);
        max = std::max(max, s);
    }
};

/**
 * Numerically stable streaming accumulator for count, mean, variance,
 * min and max of a sequence of doubles (Welford's algorithm).
 */
class RunningStats
{
  public:
    RunningStats() = default;

    /** Fold one sample into the accumulator. Inline: this sits on the
     *  fleet per-report hot path, where the call overhead is on the
     *  order of the arithmetic itself. */
    void add(double x)
    {
        ++count_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    /**
     * The moments of the samples (origin + s) * step - shift for every
     * offset s counted in @p g, from its exact integer sums: min and
     * max are bit-identical to add() of each sample.
     */
    static RunningStats fromGrid(const GridSums &g, int64_t origin,
                                 double step, double shift = 0.0);

    /** Merge another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void reset();

    /**
     * Number of samples seen so far. Explicitly 64-bit: fleet-scale
     * merges exceed 2^32 samples (1e7 nodes x hundreds of reports),
     * which a 32-bit size_t count would silently wrap.
     */
    uint64_t count() const { return count_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divide by N); 0 when fewer than 1 sample. */
    double variance() const;

    /** Sample variance (divide by N-1); 0 when fewer than 2 samples. */
    double sampleVariance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest sample seen; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample seen; -inf when empty. */
    double max() const { return max_; }

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Batch statistics over a materialised vector of samples.
 *
 * The evaluation harness repeatedly needs order statistics (median,
 * percentiles) which a streaming accumulator cannot provide.
 */
namespace batch {

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &v);

/** Population variance; 0 for fewer than 1 element. */
double variance(const std::vector<double> &v);

/** Population standard deviation. */
double stddev(const std::vector<double> &v);

/**
 * Median via nth_element (averages the two middle elements for even
 * sizes). The input is copied; the original vector is not reordered.
 */
double median(std::vector<double> v);

/**
 * Linear-interpolated percentile, p in [0, 100]. The input is copied.
 */
double percentile(std::vector<double> v, double p);

/** Mean absolute deviation between two equal-length vectors. */
double meanAbsError(const std::vector<double> &a,
                    const std::vector<double> &b);

} // namespace batch

} // namespace ulpdp

#endif // ULPDP_COMMON_STATS_H
