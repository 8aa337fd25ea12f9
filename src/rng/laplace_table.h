/**
 * @file
 * Precomputed sampling table for the fixed-point Laplace RNG.
 *
 * The Fig. 3 pipeline maps the Bu-bit URNG index m monotonically
 * (non-increasing) to a magnitude index k, so its exact PMF (Eq. (11),
 * NoisePmf) describes it completely: the states with magnitude >= k
 * are m in [1, B_k], B_k being the PMF's tail count. The table is
 * built from those counts -- the ones the certifier certifies -- for
 * every Bu <= 32. The state of rank r (ascending magnitude) is
 * m = 2^Bu - r, so a uniform rank below 2^Bu - B_{k+1} is a draw
 * truncated to magnitude <= k, exactly as accept-reject draws it.
 *
 * The ROM is a private copy of B_0 = 2^Bu >= ... >= B_{max+1} = 0 (a
 * table SEU cannot touch the certifier's PMF) and a guide word per
 * bucket of the top g = min(Bu, 20) rank bits: the magnitude of the
 * bucket's first rank. Up to Bu = 20 a bucket is one state, so a draw
 * is one load and reads no B; above it, a bucket that straddles a
 * boundary climbs B. A guide word is a 15-bit magnitude plus an
 * even-parity bit: the comparator at the table output port fails
 * every single-event upset of an entry, raising it, lowering it or
 * hitting the parity bit. Multi-bit damage and B are the CRC scrub's.
 * No lookup, checked or not, addresses past B.
 */

#ifndef ULPDP_RNG_LAPLACE_TABLE_H
#define ULPDP_RNG_LAPLACE_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ulpdp {

class NoisePmf;

/** O(1) sampling table over the tail boundaries of one pipeline. */
class LaplaceSampleTable
{
  public:
    /** Largest magnitude index a guide word can hold (15 bits). */
    static constexpr int64_t kMaxMagnitudeIndex = 0x7fff;

    /** Widest guide: g = min(Bu, kMaxGuideBits) rank bits. */
    static constexpr int kMaxGuideBits = 20;

    /** Whether a table can be built: Bu within the PMF engine's range
     *  (NoisePmf::kMaxUniformBits) and every magnitude index fits a
     *  guide word. */
    static bool supports(int uniform_bits, int64_t max_magnitude_index);

    /** Build from the exact state counts of a monotone pipeline
     *  (FxpLaplacePmf): O(2^g + support bins). */
    explicit LaplaceSampleTable(const NoisePmf &pmf);

    /** The view points into the table's own arrays. */
    LaplaceSampleTable(const LaplaceSampleTable &) = delete;
    LaplaceSampleTable &operator=(const LaplaceSampleTable &) = delete;

    /** The ROM as plain pointers and scalars, with the checked
     *  lookups: a hot loop copies it into locals, so that its stores
     *  (an int64 row may alias int64 fields) force no reloads. */
    struct View
    {
        const uint16_t *guide;
        const uint64_t *bounds;
        uint64_t states;
        int64_t max_index;
        /** Bu - g: rank bits below the guide's. */
        int shift;

        /** Magnitude index of the state of rank @p r. ANDs into @p ok
         *  the comparator's verdict on the guide word serving it. */
        int64_t
        lookupByRank(uint64_t r, bool &ok) const
        {
            if (__builtin_expect(shift != 0, 0))
                return climb(bounds, max_index,
                             checked(guide[r >> shift], ok),
                             (states - 1) ^ r);
            return checked(guide[r], ok); // one state per bucket
        }

        /** Guide word @p word's magnitude; ANDs its parity into @p ok. */
        static int64_t
        checked(uint32_t word, bool &ok)
        {
            ok &= !__builtin_parity(word);
            return word & kMaxMagnitudeIndex;
        }

        /** Split bucket: climb from @p k, the smallest magnitude of
         *  its bucket, to the bin whose bound still covers state @p i.
         *  Static, so a hot loop's copy of the view never escapes. */
        static int64_t climb(const uint64_t *bounds, int64_t max_index,
                             int64_t k, uint64_t i);
    };

    /** The ROM's view (valid while the table lives). */
    const View &view() const { return view_; }

    /** Magnitude index for URNG index m (1..2^Bu), unchecked: the
     *  state of rank 2^Bu - m. */
    int64_t
    lookup(uint64_t m) const
    {
        return lookupByRank(view_.states - m);
    }

    /** Magnitude index of the state of rank @p r, unchecked. */
    int64_t
    lookupByRank(uint64_t r) const
    {
        bool ok = true;
        return view_.lookupByRank(r, ok);
    }

    /** URNG states with magnitude <= k: 2^Bu - B_{k+1} (a bound
     *  corrupted above 2^Bu wraps it above states(): caught). */
    uint64_t
    cumulativeCount(int64_t k) const
    {
        if (k < 0)
            return 0;
        if (k >= view_.max_index)
            return view_.states;
        return view_.states - bounds_[static_cast<size_t>(k) + 1];
    }

    /** The ranks a truncated draw over [lo, hi] chooses among, and
     *  the one rule by which every sampler spends words on them. */
    struct RankWindow
    {
        /** Ranks [0, plus): sign +1 states with magnitude <= hi;
         *  [plus, total): sign -1 states with magnitude <= -lo. */
        uint64_t plus = 0;
        uint64_t total = 0;
        /** Bits of the smallest power of two >= total (1..Bu+1). */
        int width = 1;
        /** A count exceeded 2^Bu (corrupted bounds): clamped. */
        bool corrupt = false;

        /** Words one attempt consumes: two once width > 32 (Bu = 32). */
        int words() const { return width > 32 ? 2 : 1; }

        /** An attempt's rank: the top `width` bits of its words, first
         *  most significant. Attempts >= total are redrawn. */
        uint64_t
        rank(uint32_t first, uint32_t second) const
        {
            return ((uint64_t{first} << 32) | second) >> (64 - width);
        }
    };

    /** The rank window of a draw truncated to [lo, hi] (lo <= 0 <= hi). */
    RankWindow rankWindow(int64_t lo, int64_t hi) const;

    /** Largest magnitude index with at least one URNG state. */
    int64_t maxIndex() const { return view_.max_index; }

    /** Total URNG magnitude states (2^Bu). */
    uint64_t states() const { return view_.states; }

    /** Guide width g = min(Bu, kMaxGuideBits): 2^g uint16 words. */
    int guideBits() const { return guide_bits_; }

    /** Table footprint in bytes (hardware ROM sizing). */
    size_t memoryBytes() const;

    /** CRC-32 over both arrays at build time: the signature fused next
     *  to the ROM, which verify() re-derives (the periodic scrub). */
    uint32_t referenceCrc() const { return crc_; }

    /** False when the contents changed since the build (an SEU). */
    bool verify() const;

    /** Fault-injection surface: the ROM as one byte space,
     *  [guide | bounds] (the guide is 2 << guideBits() bytes), and a
     *  single-event upset in it. Production code never calls these. */
    size_t faultableBytes() const { return memoryBytes(); }
    void flipBit(size_t byte_offset, int bit);

  private:
    /** CRC-32 over the current array contents. */
    uint32_t computeCrc() const;

    std::vector<uint16_t> guide_;
    /** bounds_[k] = B_k for k in [0, max + 1]. */
    std::vector<uint64_t> bounds_;
    View view_;
    int guide_bits_;
    uint32_t crc_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_RNG_LAPLACE_TABLE_H
