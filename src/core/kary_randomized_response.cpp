#include "core/kary_randomized_response.h"

#include <cmath>

#include "common/logging.h"

namespace ulpdp {

KaryRandomizedResponse::KaryRandomizedResponse(int num_categories,
                                               double epsilon,
                                               int uniform_bits,
                                               uint64_t seed)
    : k_(num_categories), epsilon_(epsilon),
      uniform_bits_(uniform_bits), urng_(seed)
{
    if (k_ < 2)
        fatal("KaryRandomizedResponse: need at least 2 categories, "
              "got %d", k_);
    if (!(epsilon > 0.0))
        fatal("KaryRandomizedResponse: epsilon must be positive, "
              "got %g", epsilon);
    if (uniform_bits < 4 || uniform_bits > 32)
        fatal("KaryRandomizedResponse: uniform_bits must be in "
              "[4, 32], got %d", uniform_bits);

    double p = std::exp(epsilon) /
               (std::exp(epsilon) + static_cast<double>(k_) - 1.0);
    double total = std::ldexp(1.0, uniform_bits_);
    uint64_t threshold =
        static_cast<uint64_t>(std::llrint(p * total));
    // Both the truth and every lie must stay possible, or the loss
    // is infinite -- clamp the quantized threshold inside (0, 2^Bu).
    uint64_t max_threshold = (uint64_t{1} << uniform_bits_) - 1;
    if (threshold < 1)
        threshold = 1;
    if (threshold > max_threshold)
        threshold = max_threshold;
    // p' > q' <=> t / 2^Bu > (1 - t / 2^Bu) / (k - 1) <=> t k > 2^Bu.
    if (threshold * static_cast<uint64_t>(k_) <=
        (uint64_t{1} << uniform_bits_))
        fatal("KaryRandomizedResponse: k = %d, epsilon = %g, Bu = %d "
              "rounds p' to %g, not above q' = %g; use more uniform "
              "bits", k_, epsilon, uniform_bits_,
              static_cast<double>(threshold) / total,
              (total - static_cast<double>(threshold)) / total /
                  (static_cast<double>(k_) - 1.0));
    truth_threshold_ = threshold;
}

double
KaryRandomizedResponse::truthProbability() const
{
    return static_cast<double>(truth_threshold_) /
           std::ldexp(1.0, uniform_bits_);
}

double
KaryRandomizedResponse::lieProbability() const
{
    return (1.0 - truthProbability()) /
           (static_cast<double>(k_) - 1.0);
}

double
KaryRandomizedResponse::exactLoss() const
{
    return std::log(truthProbability() / lieProbability());
}

int
KaryRandomizedResponse::respond(int category)
{
    if (category < 0 || category >= k_)
        fatal("KaryRandomizedResponse: category %d out of [0, %d)",
              category, k_);

    uint64_t draw = urng_.nextBits(uniform_bits_);
    if (draw < truth_threshold_)
        return category;

    // Uniform among the other k-1 categories. The modulo bias is
    // (k-1) / 2^32 -- far below the 2^-Bu threshold quantization
    // already accounted for in exactLoss().
    int other = static_cast<int>(urng_.next32() %
                                 static_cast<uint32_t>(k_ - 1));
    return other >= category ? other + 1 : other;
}

} // namespace ulpdp
