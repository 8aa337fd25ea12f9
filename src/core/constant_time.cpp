#include "core/constant_time.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ulpdp {

ConstantTimeResamplingMechanism::ConstantTimeResamplingMechanism(
        const FxpMechanismParams &params, int64_t threshold_index,
        int batch_size)
    : FxpMechanismBase(params), threshold_index_(threshold_index),
      batch_size_(batch_size)
{
    if (threshold_index < 0)
        fatal("ConstantTimeResamplingMechanism: threshold_index must "
              "be non-negative");
    if (batch_size < 1)
        fatal("ConstantTimeResamplingMechanism: batch_size must be "
              "positive, got %d", batch_size);
    batch_.resize(static_cast<size_t>(batch_size_));
}

NoisedReport
ConstantTimeResamplingMechanism::noise(double x)
{
    int64_t xi = checkAndIndex(x);
    int64_t win_lo = lo_index_ - threshold_index_;
    int64_t win_hi = hi_index_ + threshold_index_;

    // Always draw all K samples (the hardware generates the batch
    // unconditionally, which is what makes the timing constant). The
    // buffer is sized once at construction; resizing it here would
    // reallocate on every report.
    rng_.sampleBatch(batch_.data(), batch_.size());
    int64_t chosen = 0;
    bool found = false;
    int64_t last = 0;
    for (int64_t k : batch_) {
        int64_t yi = xi + k;
        last = yi;
        if (!found && yi >= win_lo && yi <= win_hi) {
            chosen = yi;
            found = true;
        }
    }
    if (!found) {
        chosen = std::clamp(last, win_lo, win_hi);
        ++clamp_fallbacks_;
    }
    ++total_reports_;
    return NoisedReport{toValue(chosen),
                        static_cast<uint64_t>(batch_size_)};
}

ConstantTimeOutputModel::ConstantTimeOutputModel(
        std::shared_ptr<const NoisePmf> pmf, int64_t span,
        int64_t threshold, int batch_size)
    : pmf_(std::move(pmf)), span_(span), threshold_(threshold),
      batch_size_(batch_size)
{
    if (!pmf_)
        fatal("ConstantTimeOutputModel: pmf must not be null");
    if (span_ <= 0)
        fatal("ConstantTimeOutputModel: span must be positive");
    if (threshold_ < 0)
        fatal("ConstantTimeOutputModel: threshold must be "
              "non-negative");
    if (batch_size_ < 1)
        fatal("ConstantTimeOutputModel: batch_size must be positive");

    size_t n = static_cast<size_t>(span_) + 1;
    accept_.resize(n);
    interior_scale_.resize(n);
    fallback_weight_.resize(n);
    for (int64_t i = 0; i <= span_; ++i) {
        double z = windowMass(*pmf_, outputLo() - i, outputHi() - i);
        if (z <= 0.0)
            fatal("ConstantTimeOutputModel: input %lld has zero "
                  "acceptance probability",
                  static_cast<long long>(i));
        // First accepted draw among K: a geometric series truncated
        // at K terms, total weight (1 - miss^K) spread over the
        // window in proportion to the raw PMF. The clamp fallback
        // fires when the first K - 1 draws miss (weight miss^(K-1))
        // and the K-th lands beyond a boundary.
        double miss = 1.0 - z;
        size_t at = static_cast<size_t>(i);
        accept_[at] = z;
        interior_scale_[at] = (1.0 - std::pow(miss, batch_size_)) / z;
        fallback_weight_[at] = std::pow(miss, batch_size_ - 1);
    }
    mass_ = MassSlice(*pmf_, span_, threshold_);
}

double
ConstantTimeOutputModel::acceptProbability(int64_t i) const
{
    ULPDP_ASSERT(i >= 0 && i <= span_);
    return accept_[static_cast<size_t>(i)];
}

double
ConstantTimeOutputModel::fallbackProbability(int64_t i) const
{
    return std::pow(1.0 - acceptProbability(i), batch_size_);
}

void
ConstantTimeOutputModel::row(int64_t j, double *out) const
{
    int64_t lo = outputLo();
    int64_t hi = outputHi();
    size_t n = static_cast<size_t>(span_) + 1;
    if (j < lo || j > hi) {
        std::fill(out, out + n, 0.0);
        return;
    }
    const double *mass = mass_.from(j);
    for (size_t i = 0; i < n; ++i)
        out[i] = mass[i] * interior_scale_[i];
    if (j == hi || j == lo) {
        // Clamp fallback: the K-th draw landing beyond this boundary.
        for (int64_t i = 0; i <= span_; ++i) {
            double beyond = (j == hi) ? pmf_->tailMass(hi - i + 1)
                                      : pmf_->tailMass(i - lo + 1);
            out[i] += fallback_weight_[static_cast<size_t>(i)] * beyond;
        }
    }
}

} // namespace ulpdp
