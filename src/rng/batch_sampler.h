/**
 * @file
 * Batched table sampling over a Tausworthe lane bank.
 *
 * BatchSampler fuses the two halves of the table-driven Fig. 3
 * pipeline into block operations: a TausBank steps W independent
 * per-node URNG streams in lockstep (rng/taus_bank.h), and the
 * resulting words index the shared LaplaceSampleTable in blocked,
 * software-prefetched lookups. Every branch that used to sit in the
 * per-draw path -- the m == 0 -> 2^Bu wrap, the sign apply, the
 * truncated-rank sign select, the comparators -- is an arithmetic
 * select here, so a block of draws is straight-line data flow.
 *
 * Bit-exactness contract: lane l of a rect is the exact draw sequence
 * a scalar FxpLaplaceRng would produce on the same stream --
 * sampleRect() consumes one magnitude word then one sign word per
 * draw like sampleBatch()/sampleIndexFast(), and
 * sampleTruncatedRect() spends words on ranks by the table's one
 * RankWindow rule, like sampleIndexTruncated(). The fleet leans on this:
 * batched and scalar execution produce bit-identical FleetReports.
 *
 * Fault handling is deliberately coarse: the sampler never quarantines
 * anything itself. When an integrity comparator would have tripped
 * (a guide word failing its parity check, a cumulative count above
 * the state count, a draw escaping its window), the batch
 * call returns false and the caller redoes the affected work on the
 * scalar path, whose per-draw checks then quarantine the table with
 * the exact semantics of FxpLaplaceRng. Because every lane restarts
 * from its seed on the scalar redo, the recovery is bit-identical to
 * having run scalar all along.
 */

#ifndef ULPDP_RNG_BATCH_SAMPLER_H
#define ULPDP_RNG_BATCH_SAMPLER_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "rng/taus_bank.h"

namespace ulpdp {

class LaplaceSampleTable;

/** Blocked table sampling across a bank of taus88 lanes. */
class BatchSampler
{
  public:
    /**
     * @param table Sampling table, shared read-only (the fleet passes
     *        each cohort's prototype table).
     * @param uniform_bits URNG output width Bu of the table's pipeline.
     * @param sat_index Quantizer saturation index (unused: the guide
     *        words carry their own comparator).
     * @param integrity_checks Mirror of
     *        FxpLaplaceConfig::integrity_checks: when false, suspect
     *        entries are served instead of failing the batch, exactly
     *        like unhardened silicon.
     */
    BatchSampler(std::shared_ptr<const LaplaceSampleTable> table,
                 int uniform_bits, int64_t sat_index,
                 bool integrity_checks = true);

    /** Seed @p lanes lanes (TausBank::seed semantics: bit-identical
     *  to constructing a scalar Tausworthe per seed). */
    void seedLanes(const uint64_t *seeds, size_t lanes);

    /** Active lane count. */
    size_t lanes() const { return bank_.lanes(); }

    /** The underlying lane bank (tests interleave scalar fixups). */
    TausBank &bank() { return bank_; }

    /**
     * Draw @p trials unbounded signed noise indices per lane into the
     * trial-major rect out[t * lanes() + l]. Lane l's column is
     * bit-identical to FxpLaplaceRng::sampleBatch on lane l's stream.
     *
     * @return false if an integrity comparator would have tripped
     *         (only when integrity checks are on). The bank state and
     *         rect contents are then unspecified; the caller redoes
     *         the work on the scalar path from the original seeds.
     */
    bool sampleRect(int64_t *out, size_t trials);

    /** Per-lane truncation window, relative to the lane's input index
     *  (lo <= 0 <= hi), as passed to sampleIndexTruncated. */
    struct Window
    {
        int64_t lo = 0;
        int64_t hi = 0;
    };

    /**
     * Draw @p trials window-confined signed noise indices per lane
     * into out[t * lanes() + l]: lane l's column is bit-identical to
     * trials calls of sampleIndexTruncated(win[l].lo, win[l].hi) on
     * lane l's stream. The per-lane acceptance mass and rank width
     * are hoisted out of the trial loop (they are constant per
     * window), which is the batch path's main win over the scalar
     * per-call recomputation.
     *
     * @return false on any condition the scalar path would treat
     *         specially: an integrity fault (a guide word, cumulative
     *         count or draw out of bounds) or a
     *         window holding no URNG state (the scalar path's
     *         warn-and-clamp overflow). Callers redo on the scalar
     *         path, which reproduces the exact scalar behaviour.
     */
    bool sampleTruncatedRect(const Window *win, int64_t *out,
                             size_t trials);

  private:
    std::shared_ptr<const LaplaceSampleTable> table_;
    int uniform_bits_;
    bool integrity_checks_;
    TausBank bank_;
};

} // namespace ulpdp

#endif // ULPDP_RNG_BATCH_SAMPLER_H
