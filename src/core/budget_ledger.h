/**
 * @file
 * Durable budget ledger: journaled spends and two-phase checkpoints
 * on NOR flash, with a recovery scan that can never resurrect budget.
 *
 * The paper's worst-case loss bound n*eps (Eq. 4) rests entirely on
 * the spent-budget counter surviving resets: a power loss that rolls
 * the counter back lets an adversary re-spend budget it already used,
 * and the bound is void. The ledger is the one record of budget state
 * that survives a reset. Every spend is journaled to flash before the
 * mechanism releases its output, so the persisted record is always at
 * least as pessimistic as reality, whatever instant the power dies.
 * The meter counts integer loss quanta (core/budget.h), like every
 * BudgetPool: a spend is charged quantaUp() of its loss, live and at
 * replay alike, and the checkpointed remaining budget is the exact
 * quanta count.
 *
 * On-flash layout (all fields little-endian, CRC-32 sealed):
 *
 *   block:  [16-byte header | 40-byte record slots ...]
 *   header: magic "ULBH" | alloc_seq (monotone block allocation
 *           counter -- orders blocks at recovery) | crc
 *   record: magic "ULDR" | type (spend / checkpoint) | flags |
 *           seq (monotone across all records) | payload | aux |
 *           crc over the body | commit byte | supersede byte | pad
 *
 *   spend payload:      the journaled loss, IEEE-754 binary64 nats
 *                       (bit-exact; replay charges quantaUp of it)
 *   checkpoint payload: remaining budget in loss quanta
 *   checkpoint aux:     cached report, binary64 (valid when flags
 *                       bit 0 is set)
 *
 * Commit protocol (exploiting NOR 1 -> 0 semantics; nothing is ever
 * updated in place):
 *
 *  - Spend: program the 36-byte body, then program the commit byte.
 *    A cut before the body completes leaves a torn record (CRC
 *    fails); a cut between body and commit leaves a CRC-valid
 *    uncommitted record, which recovery accepts (counting it can
 *    only over-count, the safe direction).
 *  - Checkpoint: append the new checkpoint record (write-new), then
 *    program the supersede byte of the previous checkpoint
 *    (invalidate-old). A cut between the phases leaves two live
 *    checkpoints; recovery takes the one with the higher sequence
 *    number, which is always the later state.
 *  - Rotation: when the current block fills, erase the least-worn
 *    other block (wear leveling), write its header, write a fresh
 *    checkpoint summarizing all state, supersede the old checkpoint,
 *    and make it current. Old blocks only ever hold records already
 *    covered by a later checkpoint, so erasing one can never lose an
 *    uncovered spend.
 *
 * Recovery resolves every ambiguity fail-secure:
 *
 *  - torn / CRC-invalid record  => charged quantaUp(max_record_loss)
 *    (counted as spent -- the record *might* have been a spend);
 *  - duplicate or out-of-order sequence numbers => every copy is
 *    charged (over-counting is safe) and the anomaly is counted;
 *  - no valid checkpoint over a non-empty journal => the ledger is
 *    unrecoverable: zero remaining budget, halted. Replay degrades
 *    toward *less* spendable budget, never more.
 */

#ifndef ULPDP_CORE_BUDGET_LEDGER_H
#define ULPDP_CORE_BUDGET_LEDGER_H

#include <cstdint>
#include <optional>
#include <span>

#include "core/budget.h"
#include "core/flash_device.h"

namespace ulpdp {

/** Static configuration of a BudgetLedger. */
struct BudgetLedgerConfig
{
    /** Total privacy budget B the remaining counter starts from, in
     *  nats (rounded down to quanta, as in BudgetPool). */
    double initial_budget = 5.0;

    /**
     * Fail-secure charge for a record whose content cannot be read
     * back (torn, corrupt). Must be >= the largest loss any single
     * spend can be charged (the outermost segment loss), so an
     * ambiguous record is always counted at least as spent;
     * journalSpend() refuses a larger spend.
     */
    double max_record_loss = 1.0;
};

/** Observability counters of one ledger instance. */
struct LedgerStats
{
    /** Spend records durably journaled. */
    uint64_t spends_journaled = 0;

    /** Checkpoints committed (both phases done). */
    uint64_t checkpoints_committed = 0;

    /** Log rotations (block erase + fresh checkpoint). */
    uint64_t rotations = 0;

    /** Successful mounts over a non-empty journal. */
    uint64_t recoveries = 0;

    /** Torn / CRC-invalid records charged fail-secure at recovery. */
    uint64_t torn_records = 0;

    /** CRC-valid records accepted without their commit byte. */
    uint64_t uncommitted_accepted = 0;

    /** Valid records with a duplicate sequence number (each copy
     *  charged). */
    uint64_t duplicate_records = 0;

    /** Valid records scanned out of sequence order. */
    uint64_t out_of_order_records = 0;

    /** Mounts that ended unrecoverable (zero remaining, halted). */
    uint64_t unrecoverable_mounts = 0;

    /** Crash windows recovered with two live checkpoints. */
    uint64_t dual_checkpoint_recoveries = 0;

    /** Journal bytes programmed (records + headers + supersedes). */
    uint64_t journal_bytes_written = 0;
};

/**
 * Journaled, wear-leveled budget ledger over a FlashDevice (see file
 * comment). Single-owner, not thread-safe -- one device, one ledger,
 * like the silicon it models.
 */
class BudgetLedger
{
  public:
    /** Record slot size on flash (one spend costs this many bytes
     *  plus amortized rotation overhead). */
    static constexpr uint32_t kRecordSize = 40;

    /** Block header size on flash. */
    static constexpr uint32_t kHeaderSize = 16;

    /** Bytes of a record body covered by the CRC. */
    static constexpr uint32_t kBodySize = 36;

    /**
     * @param flash The device to journal on (borrowed; must outlive
     *        the ledger). Needs >= 2 blocks and blocks large enough
     *        for a header plus two records.
     */
    BudgetLedger(FlashDevice &flash, const BudgetLedgerConfig &config);

    /**
     * Mount: scan the journal, replay records, resolve ambiguities
     * fail-secure. Formats fully erased flash. Returns false when
     * power died during the mount, or when the ledger is
     * unrecoverable -- remaining() is then 0 and halted() is latched.
     */
    bool mount();

    /**
     * Durably journal one spend of @p loss nats *before* the caller
     * releases the corresponding output; the meter is charged
     * quantaUp(@p loss). Returns false when the append could not
     * complete (power lost mid-program, device dead, or ledger
     * halted) or @p loss exceeds max_record_loss (a torn record of it
     * would be under-counted) -- the caller must NOT release the
     * output in that case.
     */
    bool journalSpend(double loss);

    /**
     * Two-phase checkpoint commit of the caller's authoritative
     * state: remaining budget in nats (rounded down to quanta, capped
     * at the initial budget) and the cached report. Returns false
     * when either phase was cut by a power loss.
     */
    bool commitCheckpoint(double remaining,
                          const std::optional<double> &cache);

    /** Remaining budget per the ledger (recovered or live), in nats
     *  (exact quanta). */
    double remaining() const { return nats(remaining_); }

    /** Lifetime loss charged through this ledger instance, including
     *  fail-secure charges for ambiguous records, in nats. */
    double spentLifetime() const { return nats(spent_lifetime_); }

    /** Cached report recovered from the latest checkpoint. */
    const std::optional<double> &cache() const { return cache_; }

    /** Latched when the journal was unrecoverable: remaining() is 0
     *  and every journalSpend()/commitCheckpoint() refuses. */
    bool halted() const { return halted_; }

    /** True after a successful (or fail-secure) mount. */
    bool mounted() const { return mounted_; }

    /** Next record sequence number. */
    uint64_t nextSeq() const { return next_seq_; }

    /** Counters. */
    const LedgerStats &stats() const { return stats_; }

    /** Max - min erase count across blocks (leveling bound: stays
     *  <= 2 under the min-wear victim policy). */
    uint64_t wearSpread() const;

    /** The configuration in effect. */
    const BudgetLedgerConfig &config() const { return config_; }

  private:
    struct ParsedRecord;

    /** Byte address of @p block's header. */
    uint64_t blockBase(uint32_t block) const;

    /** Read @p buf.size() bytes at @p addr into @p buf; true when
     *  bytes [@p from, end) all sense erased. */
    bool readErased(uint64_t addr, std::span<uint8_t> buf,
                    size_t from = 0) const;

    /** First block whose bytes from offset @p from on are not all
     *  erased (reads whole blocks in order); block_count if none. */
    uint32_t firstDirtyBlock(uint32_t from) const;

    /** Program bytes and account them; false on power loss. */
    bool programCounted(uint64_t addr, const void *src, size_t len);

    /** Program the header that opens @p block and make it current. */
    bool writeHeader(uint32_t block);

    /** Append one record (body then commit byte) at the current
     *  append offset with the next sequence number. */
    bool appendRecord(uint8_t type, uint8_t flags, uint64_t payload,
                      uint64_t aux);

    /** Write-new-then-supersede-old: append a checkpoint of the
     *  meter and cache, then supersede the previous checkpoint.
     *  @p rotation counts it as the first record of a new block. */
    bool writeCheckpoint(bool rotation);

    /** Format a factory-fresh part: header and genesis checkpoint. */
    bool format();

    /** Erase the least-worn non-current block, write its header and
     *  a fresh checkpoint, supersede the old one. */
    bool rotate();

    /** Parse the slot at @p addr. */
    ParsedRecord parseSlot(uint64_t addr) const;

    /** Charge @p q quanta against the remaining counter. */
    void charge(LossQuanta q);

    FlashDevice &flash_;
    BudgetLedgerConfig config_;
    LossQuanta initial_;
    LossQuanta max_record_;

    bool mounted_ = false;
    bool halted_ = false;
    LossQuanta remaining_ = 0;
    LossQuanta spent_lifetime_ = 0;
    std::optional<double> cache_;

    uint64_t next_seq_ = 1;
    uint64_t next_alloc_seq_ = 1;
    uint32_t current_block_ = 0;
    uint32_t append_off_ = 0;

    /** Byte address of the live checkpoint record; ~0 when none. */
    uint64_t live_cp_addr_ = ~uint64_t{0};

    LedgerStats stats_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_BUDGET_LEDGER_H
