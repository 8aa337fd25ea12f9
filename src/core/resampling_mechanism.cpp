#include "core/resampling_mechanism.h"

#include "common/logging.h"

namespace ulpdp {

ResamplingMechanism::ResamplingMechanism(const FxpMechanismParams &params,
                                         int64_t threshold_index,
                                         uint64_t max_attempts)
    : FxpMechanismBase(params), threshold_index_(threshold_index),
      max_attempts_(max_attempts)
{
    if (threshold_index < 0)
        fatal("ResamplingMechanism: threshold_index must be "
              "non-negative, got %lld",
              static_cast<long long>(threshold_index));
}

inline NoisedReport
ResamplingMechanism::redraw(int64_t xi, int64_t win_lo, int64_t win_hi)
{
    uint64_t attempts = 0;
    while (true) {
        ++attempts;
        if (attempts > max_attempts_) {
            // A real DP-Box would hang here; in the model this is an
            // internal configuration bug (window without support).
            panic("ResamplingMechanism: no accepted sample after "
                  "%llu attempts (window [%lld, %lld], input %lld)",
                  static_cast<unsigned long long>(max_attempts_),
                  static_cast<long long>(win_lo),
                  static_cast<long long>(win_hi),
                  static_cast<long long>(xi));
        }
        // The redraw loop is kept (it is what the latency benches
        // model); only the per-draw cost drops to a table lookup.
        int64_t yi = xi + rng_.sampleIndexFast();
        if (yi >= win_lo && yi <= win_hi) {
            total_samples_ += attempts;
            ++total_reports_;
            return NoisedReport{toValue(yi), attempts};
        }
    }
}

NoisedReport
ResamplingMechanism::noise(double x)
{
    return redraw(checkAndIndex(x), windowLoIndex(), windowHiIndex());
}

void
ResamplingMechanism::sampleBatch(const double *x, double *out,
                                 size_t n)
{
    const int64_t win_lo = windowLoIndex();
    const int64_t win_hi = windowHiIndex();

    for (size_t i = 0; i < n; ++i)
        out[i] = redraw(checkAndIndex(x[i]), win_lo, win_hi).value;
}

double
ResamplingMechanism::averageSamplesPerReport() const
{
    if (total_reports_ == 0)
        return 0.0;
    return static_cast<double>(total_samples_) /
           static_cast<double>(total_reports_);
}

} // namespace ulpdp
