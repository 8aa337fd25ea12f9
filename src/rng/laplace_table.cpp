#include "rng/laplace_table.h"

#include <algorithm>
#include <bit>

#include "common/fault.h"
#include "common/logging.h"
#include "rng/noise_pmf.h"

namespace ulpdp {

bool
LaplaceSampleTable::supports(int uniform_bits,
                             int64_t max_magnitude_index)
{
    return uniform_bits >= 1 &&
           uniform_bits <= NoisePmf::kMaxUniformBits &&
           max_magnitude_index <= kMaxMagnitudeIndex;
}

LaplaceSampleTable::LaplaceSampleTable(const NoisePmf &pmf)
{
    const uint64_t states = pmf.totalCount();
    const int64_t max_index = pmf.maxIndex();
    const int bu = std::countr_zero(states);
    ULPDP_ASSERT(max_index <= kMaxMagnitudeIndex);

    bounds_.resize(static_cast<size_t>(max_index) + 2);
    for (size_t k = 0; k < bounds_.size(); ++k)
        bounds_[k] = pmf.tailCount(static_cast<int64_t>(k));

    // Bin k holds ranks [2^Bu - B_k, 2^Bu - B_{k+1}): it fills every
    // bucket whose first rank falls there. Bit 15 makes each word's
    // parity even.
    guide_bits_ = std::min(bu, kMaxGuideBits);
    const int shift = bu - guide_bits_;
    guide_.resize(size_t{1} << guide_bits_);
    size_t j = 0;
    for (size_t k = 0; k + 1 < bounds_.size(); ++k) {
        uint64_t end_rank = states - bounds_[k + 1];
        size_t end = static_cast<size_t>(
                (end_rank + (uint64_t{1} << shift) - 1) >> shift);
        std::fill(guide_.begin() + j, guide_.begin() + end,
                  static_cast<uint16_t>(
                          k | (static_cast<size_t>(
                                       __builtin_parity(k)) << 15)));
        j = end;
    }
    view_ = {guide_.data(), bounds_.data(), states, max_index, shift};

    crc_ = computeCrc();
}

int64_t
LaplaceSampleTable::View::climb(const uint64_t *bounds, int64_t max_index,
                                int64_t k, uint64_t i)
{
    // A corrupted word may exceed max: clamped, B[k + 1] stays in range.
    k = std::min(k, max_index);
    while (k < max_index && bounds[k + 1] > i)
        ++k;
    return k;
}

LaplaceSampleTable::RankWindow
LaplaceSampleTable::rankWindow(int64_t lo, int64_t hi) const
{
    ULPDP_ASSERT(lo <= 0 && hi >= 0);
    // Sign +1 is accepted with magnitude <= hi, sign -1 with
    // magnitude <= -lo (magnitude 0 on both signs, exactly as
    // accept-reject accepts both sign draws of 0).
    RankWindow w;
    uint64_t plus = cumulativeCount(hi);
    uint64_t minus = cumulativeCount(-lo);
    if (plus > view_.states || minus > view_.states) {
        w.corrupt = true;
        plus = std::min(plus, view_.states);
        minus = std::min(minus, view_.states);
    }
    w.plus = plus;
    w.total = plus + minus;
    while ((uint64_t{1} << w.width) < w.total)
        ++w.width;
    return w;
}

uint32_t
LaplaceSampleTable::computeCrc() const
{
    uint32_t c = crc32(guide_.data(), guide_.size() * sizeof(uint16_t));
    return crc32(bounds_.data(), bounds_.size() * sizeof(uint64_t), c);
}

bool
LaplaceSampleTable::verify() const
{
    return computeCrc() == crc_;
}

void
LaplaceSampleTable::flipBit(size_t byte_offset, int bit)
{
    ULPDP_ASSERT(bit >= 0 && bit < 8);
    ULPDP_ASSERT(byte_offset < faultableBytes());

    size_t guide_bytes = guide_.size() * sizeof(uint16_t);
    uint8_t *base;
    if (byte_offset < guide_bytes) {
        base = reinterpret_cast<uint8_t *>(guide_.data());
    } else {
        base = reinterpret_cast<uint8_t *>(bounds_.data());
        byte_offset -= guide_bytes;
    }
    base[byte_offset] ^= static_cast<uint8_t>(1u << bit);
}

size_t
LaplaceSampleTable::memoryBytes() const
{
    return guide_.size() * sizeof(uint16_t) +
           bounds_.size() * sizeof(uint64_t);
}

} // namespace ulpdp
