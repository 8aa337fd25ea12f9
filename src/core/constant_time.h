/**
 * @file
 * Constant-time resampling (timing-channel mitigation).
 *
 * Section IV-C of the paper notes that plain resampling leaks through
 * a timing channel: the number of redraws depends on the sensor
 * value, and latency is observable by untrusted software. The
 * suggested fix is to "sample noise multiple times instead of only
 * one and choose one of them in the required region".
 *
 * ConstantTimeResamplingMechanism draws a fixed batch of K noise
 * samples for every report and releases the first one whose noised
 * output lands in the window; if all K miss (probability
 * (1 - Z)^K, with Z the single-draw acceptance probability), the
 * last sample is clamped to the window boundary. Latency and energy
 * are therefore input-independent constants, and the output
 * distribution is a precise mixture of the resampling and
 * thresholding distributions:
 *
 *   interior j :  pmf(j - x) * (1 - (1-Z)^K) / Z(x)
 *   boundary   :  + (1 - Z(x))^(K-1) * (tail mass beyond boundary)
 *
 * which ConstantTimeOutputModel computes exactly so the loss bound
 * can be verified like every other mechanism. As K grows the clamp
 * atoms vanish geometrically and the distribution converges to pure
 * resampling.
 */

#ifndef ULPDP_CORE_CONSTANT_TIME_H
#define ULPDP_CORE_CONSTANT_TIME_H

#include <vector>

#include "core/fxp_mechanism.h"
#include "core/output_model.h"

namespace ulpdp {

/** Resampling with a fixed K-sample batch per report. */
class ConstantTimeResamplingMechanism : public FxpMechanismBase
{
  public:
    /**
     * @param params Shared fixed-point parameters.
     * @param threshold_index Window half-extension in Delta units.
     * @param batch_size K, the fixed number of draws per report
     *        (>= 1). K = 1 degenerates to thresholding.
     */
    ConstantTimeResamplingMechanism(const FxpMechanismParams &params,
                                    int64_t threshold_index,
                                    int batch_size);

    NoisedReport noise(double x) override;
    std::string name() const override
    {
        return "Constant-Time Resampling";
    }
    bool guaranteesLdp() const override { return true; }

    /** Window half-extension in Delta units. */
    int64_t thresholdIndex() const { return threshold_index_; }

    /** Fixed batch size K. */
    int batchSize() const { return batch_size_; }

    /** Reports that fell back to the clamp (all K draws missed). */
    uint64_t clampFallbacks() const { return clamp_fallbacks_; }

    /** Total reports served. */
    uint64_t totalReports() const { return total_reports_; }

  private:
    int64_t threshold_index_;
    int batch_size_;
    /** Reused per-report buffer for the batched K draws. */
    std::vector<int64_t> batch_;
    uint64_t clamp_fallbacks_ = 0;
    uint64_t total_reports_ = 0;
};

/** Exact conditional output distribution of the K-batch mechanism. */
class ConstantTimeOutputModel : public DiscreteOutputModel
{
  public:
    ConstantTimeOutputModel(std::shared_ptr<const NoisePmf> pmf,
                            int64_t span, int64_t threshold,
                            int batch_size);

    int64_t span() const override { return span_; }
    int64_t outputLo() const override { return -threshold_; }
    int64_t outputHi() const override { return span_ + threshold_; }
    void row(int64_t j, double *out) const override;
    std::string name() const override
    {
        return "Constant-Time Resampling";
    }

    /** Single-draw acceptance probability Z(i). */
    double acceptProbability(int64_t i) const;

    /** Probability the clamp fallback fires for input i. */
    double fallbackProbability(int64_t i) const;

  private:
    std::shared_ptr<const NoisePmf> pmf_;
    int64_t span_;
    int64_t threshold_;
    int batch_size_;
    /** Per input i: Z(i), the interior weight (1 - miss^K) / Z(i)
     *  and the clamp weight miss^(K-1), with miss = 1 - Z(i). */
    std::vector<double> accept_;
    std::vector<double> interior_scale_;
    std::vector<double> fallback_weight_;
    MassSlice mass_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_CONSTANT_TIME_H
