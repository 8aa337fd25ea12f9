#include "rng/batch_sampler.h"

#include "common/logging.h"
#include "rng/laplace_table.h"
#include "rng/noise_pmf.h"
#include "rng/tausworthe.h"

namespace ulpdp {

BatchSampler::BatchSampler(
        std::shared_ptr<const LaplaceSampleTable> table,
        int uniform_bits, int64_t /* sat_index */, bool integrity_checks)
    : table_(std::move(table)), uniform_bits_(uniform_bits),
      integrity_checks_(integrity_checks)
{
    if (table_ == nullptr)
        fatal("BatchSampler: need a sampling table");
    if (uniform_bits_ < 1 ||
        uniform_bits_ > NoisePmf::kMaxUniformBits)
        fatal("BatchSampler: uniform_bits must be in [1, %d], got %d",
              NoisePmf::kMaxUniformBits, uniform_bits_);
    if (table_->states() != uint64_t{1} << uniform_bits_)
        fatal("BatchSampler: table holds %llu states but "
              "uniform_bits %d implies %llu",
              static_cast<unsigned long long>(table_->states()),
              uniform_bits_,
              static_cast<unsigned long long>(uint64_t{1}
                                              << uniform_bits_));
}

void
BatchSampler::seedLanes(const uint64_t *seeds, size_t lanes)
{
    bank_.seed(seeds, lanes);
}

bool
BatchSampler::sampleRect(int64_t *out, size_t trials)
{
    const size_t W = bank_.lanes();
    ULPDP_ASSERT(W > 0);
    if (trials == 0)
        return true;

    const LaplaceSampleTable::View table = table_->view();

    // Double-buffered words: while trial t's table entries are being
    // prefetched, the bank already steps trial t+1, so the lookups
    // land on warm lines.
    uint32_t magw[2][TausBank::kMaxLanes];
    uint32_t signw[2][TausBank::kMaxLanes];
    uint64_t rank[TausBank::kMaxLanes];
    bool ok = true;

    bank_.nextWords(magw[0]);
    bank_.nextWords(signw[0]);
    for (size_t t = 0; t < trials; ++t) {
        const size_t cur = t & 1;
        const uint32_t *mw = magw[cur];
        const uint32_t *sw = signw[cur];
        for (size_t l = 0; l < W; ++l) {
            rank[l] = Tausworthe::unitRankOf(mw[l], uniform_bits_);
            __builtin_prefetch(
                    table.guide + (rank[l] >> table.shift), 0, 1);
        }
        if (t + 1 < trials) {
            bank_.nextWords(magw[cur ^ 1]);
            bank_.nextWords(signw[cur ^ 1]);
        }
        int64_t *row = out + t * W;
        for (size_t l = 0; l < W; ++l) {
            // Deferred comparator: accumulate instead of branching;
            // the caller redoes the block scalar if anything tripped.
            int64_t k = table.lookupByRank(rank[l], ok);
            // nextSign(): high bit set means +1. Two's-complement
            // select: ~sm is 0 for +k, all-ones for -k.
            int64_t sm = static_cast<int32_t>(sw[l]) >> 31;
            row[l] = (k ^ ~sm) - ~sm;
        }
    }
    return ok || !integrity_checks_;
}

bool
BatchSampler::sampleTruncatedRect(const Window *win, int64_t *out,
                                  size_t trials)
{
    const size_t W = bank_.lanes();
    ULPDP_ASSERT(W > 0);

    const LaplaceSampleTable::View table = table_->view();

    // Hoist the per-lane rank windows, fixed per window, where the
    // scalar path recomputes them every call.
    LaplaceSampleTable::RankWindow rw[TausBank::kMaxLanes];
    for (size_t l = 0; l < W; ++l) {
        rw[l] = table_->rankWindow(win[l].lo, win[l].hi);
        // Corrupted bounds: hardened configurations bail to the
        // scalar path (which quarantines), unhardened ones clamp.
        if (rw[l].corrupt && integrity_checks_)
            return false;
        if (rw[l].total == 0)
            return false; // window without support: scalar warn+clamp
    }

    uint32_t words[TausBank::kMaxLanes];
    uint64_t ridx[TausBank::kMaxLanes];
    int64_t neg[TausBank::kMaxLanes];
    bool ok = true;
    for (size_t t = 0; t < trials; ++t) {
        bank_.nextWords(words);
        for (size_t l = 0; l < W; ++l) {
            // One attempt per lane in lockstep; a second word (Bu = 32)
            // and a redraw step that lane's stream alone, keeping the
            // scalar rejection loop's word sequence.
            const LaplaceSampleTable::RankWindow &w = rw[l];
            uint64_t r;
            if (w.words() == 1) {
                r = w.rank(words[l], 0);
                while (r >= w.total)
                    r = w.rank(bank_.next32Lane(l), 0);
            } else {
                r = w.rank(words[l], bank_.next32Lane(l));
                while (r >= w.total) {
                    const uint32_t first = bank_.next32Lane(l);
                    r = w.rank(first, bank_.next32Lane(l));
                }
            }
            uint64_t is_neg = static_cast<uint64_t>(r >= w.plus);
            ridx[l] = r - (is_neg ? w.plus : 0);
            neg[l] = static_cast<int64_t>(is_neg);
            __builtin_prefetch(
                    table.guide + (ridx[l] >> table.shift), 0, 1);
        }
        int64_t *row = out + t * W;
        for (size_t l = 0; l < W; ++l) {
            int64_t k = table.lookupByRank(ridx[l], ok);
            // Arithmetic sign select, then the window the boundaries
            // promised: a draw outside it means corrupted bounds.
            k = (k ^ -neg[l]) + neg[l];
            ok &= (k >= win[l].lo) & (k <= win[l].hi);
            row[l] = k;
        }
    }
    // Any trip: the caller's scalar redo quarantines the table.
    return ok || !integrity_checks_;
}

} // namespace ulpdp
