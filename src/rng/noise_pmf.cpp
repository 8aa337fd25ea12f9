#include "rng/noise_pmf.h"

#include <cmath>

namespace ulpdp {

void
NoisePmf::checkUniformBits(int uniform_bits)
{
    if (uniform_bits < 1 || uniform_bits > kMaxUniformBits)
        fatal("NoisePmf: uniform_bits must be in [1, %d], got %d",
              kMaxUniformBits, uniform_bits);
}

NoisePmf::NoisePmf(int uniform_bits, std::vector<uint64_t> counts)
    : counts_(std::move(counts))
{
    checkUniformBits(uniform_bits);
    zero_unit_ = std::ldexp(1.0, -uniform_bits);
    signed_unit_ = std::ldexp(1.0, -uniform_bits - 1);
    ULPDP_ASSERT(!counts_.empty());

    // Suffix sums make tailMass a load. Sized to counts_ (the
    // reachable support); the accessors return 0 beyond it.
    tail_.assign(counts_.size() + 1, 0);
    for (size_t k = counts_.size(); k-- > 0;)
        tail_[k] = tail_[k + 1] + counts_[k];

    max_index_ = 0;
    for (size_t k = counts_.size(); k-- > 0;) {
        if (counts_[k] > 0) {
            max_index_ = static_cast<int64_t>(k);
            break;
        }
    }
    ULPDP_ASSERT(tail_[0] == uint64_t{1} << uniform_bits);
}

uint64_t
NoisePmf::magnitudeCount(int64_t k) const
{
    if (k < 0)
        return 0;
    size_t idx = static_cast<size_t>(k);
    return idx < counts_.size() ? counts_[idx] : 0;
}

uint64_t
NoisePmf::tailCount(int64_t k) const
{
    size_t idx = static_cast<size_t>(k);
    return k >= 0 && idx < tail_.size() ? tail_[idx] : 0;
}

double
NoisePmf::pmf(int64_t k) const
{
    int64_t mag = k >= 0 ? k : -k;
    double cnt = static_cast<double>(magnitudeCount(mag));
    // Both signs collapse onto zero.
    return cnt * (k == 0 ? zero_unit_ : signed_unit_);
}

double
NoisePmf::tailMass(int64_t k) const
{
    ULPDP_ASSERT(k >= 1);
    return static_cast<double>(tailCount(k)) * signed_unit_;
}

double
NoisePmf::upperMass(int64_t k) const
{
    if (k >= 1)
        return tailMass(k);
    // Pr[n >= k] = 1 - Pr[n <= k - 1] = 1 - Pr[n >= 1 - k] by the
    // sign symmetry of the PMF; 1 - k >= 1 here.
    return 1.0 - tailMass(1 - k);
}

int64_t
NoisePmf::firstInteriorGap() const
{
    for (int64_t k = 0; k < max_index_; ++k) {
        if (magnitudeCount(k) == 0)
            return k;
    }
    return -1;
}

double
NoisePmf::totalMass() const
{
    double sum = pmf(0);
    for (int64_t k = 1; k <= max_index_; ++k)
        sum += pmf(k) + pmf(-k);
    return sum;
}

} // namespace ulpdp
