/**
 * @file
 * Resampling mechanism (Section III-B1).
 *
 * When the noised output x + n falls outside the window
 * [m - n_th1, M + n_th1], the RNG redraws the noise until it lands
 * inside. Every input then shares the same output support, so the
 * privacy loss is bounded; the cost is a data-dependent number of
 * extra RNG cycles (Fig. 11) and slightly higher energy.
 */

#ifndef ULPDP_CORE_RESAMPLING_MECHANISM_H
#define ULPDP_CORE_RESAMPLING_MECHANISM_H

#include "core/fxp_mechanism.h"

namespace ulpdp {

/** Fixed-point Laplace mechanism with resampling range control. */
class ResamplingMechanism : public FxpMechanismBase
{
  public:
    /**
     * @param params Shared fixed-point parameters.
     * @param threshold_index Window half-extension n_th1 in Delta
     *        units: outputs are confined to
     *        [m - n_th1 * Delta, M + n_th1 * Delta]. Use
     *        ThresholdCalculator to pick it for a target loss bound.
     * @param max_attempts Panic guard: a window that no input can hit
     *        would make the hardware loop forever; the model gives up
     *        after this many redraws instead.
     */
    ResamplingMechanism(const FxpMechanismParams &params,
                        int64_t threshold_index,
                        uint64_t max_attempts = 1u << 20);

    NoisedReport noise(double x) override;
    std::string name() const override { return "Resampling"; }
    bool guaranteesLdp() const override { return true; }

    /**
     * Batch counterpart of noise(): release one report per reading
     * into @p out, bit-identical to calling noise(x[i]) in a loop
     * (same draws, same attempt accounting). The redraw loop itself
     * stays per-draw -- each redraw depends on the previous draw's
     * accept test, so a single device's stream is inherently
     * sequential -- but the window bounds and the per-report virtual
     * dispatch are hoisted. Fleet simulations that want loop-free
     * confined draws use BatchSampler::sampleTruncatedRect across
     * many nodes instead.
     */
    void sampleBatch(const double *x, double *out, size_t n);

    /** Window half-extension n_th1 in Delta units. */
    int64_t thresholdIndex() const { return threshold_index_; }

    /** Lowest releasable output index (m - n_th1). */
    int64_t windowLoIndex() const { return lo_index_ - threshold_index_; }

    /** Highest releasable output index (M + n_th1). */
    int64_t windowHiIndex() const { return hi_index_ + threshold_index_; }

    /** Total samples drawn across all noise() calls (energy proxy). */
    uint64_t totalSamplesDrawn() const { return total_samples_; }

    /** Total noise() calls served. */
    uint64_t totalReports() const { return total_reports_; }

    /** Average samples per report (1.0 means no resampling happened). */
    double averageSamplesPerReport() const;

  private:
    /** The redraw loop shared by noise() and sampleBatch(): draw
     *  until grid input @p xi plus the noise lands in
     *  [@p win_lo, @p win_hi], and count the attempts. */
    NoisedReport redraw(int64_t xi, int64_t win_lo, int64_t win_hi);

    int64_t threshold_index_;
    uint64_t max_attempts_;
    uint64_t total_samples_ = 0;
    uint64_t total_reports_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_CORE_RESAMPLING_MECHANISM_H
