#include "core/budget_ledger.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

constexpr uint32_t kRecordMagic = 0x554C4452; // "ULDR"
constexpr uint32_t kHeaderMagic = 0x554C4248; // "ULBH"
constexpr uint8_t kTypeSpend = 1;
constexpr uint8_t kTypeCheckpoint = 2;
constexpr uint8_t kFlagCacheValid = 1;
constexpr uint8_t kCommitByte = 0xC3;
constexpr uint8_t kSupersededByte = 0x00;
constexpr uint64_t kNoRecord = ~uint64_t{0};

// Record slot offsets (see budget_ledger.h file comment).
constexpr uint32_t kOffMagic = 0;
constexpr uint32_t kOffType = 4;
constexpr uint32_t kOffFlags = 5;
constexpr uint32_t kOffSeq = 8;
constexpr uint32_t kOffPayload = 16;
constexpr uint32_t kOffAux = 24;
constexpr uint32_t kOffCrc = 32;
constexpr uint32_t kOffCommit = 36;
constexpr uint32_t kOffSupersede = 37;

// Block header offsets.
constexpr uint32_t kHdrOffMagic = 0;
constexpr uint32_t kHdrOffAllocSeq = 4;
constexpr uint32_t kHdrOffCrc = 12;

void
put32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
put64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
get32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
get64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/** The ledger's exported telemetry surface (docs/METRICS.md). */
struct LedgerMetrics
{
    Counter &spends = telemetry::registry().counter(
        "ulpdp_ledger_spends_total",
        "Spend records durably journaled before output release",
        "records");
    Counter &checkpoints = telemetry::registry().counter(
        "ulpdp_ledger_checkpoints_total",
        "Two-phase checkpoints committed to the flash journal",
        "checkpoints");
    Counter &rotations = telemetry::registry().counter(
        "ulpdp_ledger_rotations_total",
        "Journal rotations (least-worn block erased and made current)",
        "rotations");
    Counter &recoveries = telemetry::registry().counter(
        "ulpdp_ledger_recoveries_total",
        "Mounts that replayed a non-empty journal",
        "mounts");
    Counter &torn = telemetry::registry().counter(
        "ulpdp_ledger_torn_records_total",
        "Torn/corrupt records rejected and charged fail-secure",
        "records");
    Counter &journal_bytes = telemetry::registry().counter(
        "ulpdp_ledger_journal_bytes_total",
        "Bytes programmed into the flash journal",
        "bytes");
    Gauge &max_wear = telemetry::registry().gauge(
        "ulpdp_ledger_max_erase_count",
        "Highest per-block erase count of the journal flash",
        "erases");
};

LedgerMetrics &
ledgerMetrics()
{
    static LedgerMetrics m;
    return m;
}

/** Unrecoverable mounts of one DESIGN.md section 13 resolution row. */
Counter &
unrecoverableMounts(const char *cause)
{
    return telemetry::registry().counter(
        "ulpdp_ledger_unrecoverable_mounts_total",
        "Mounts that halted with zero remaining budget, by cause",
        "mounts", std::string("cause=\"") + cause + "\"");
}

} // anonymous namespace

struct BudgetLedger::ParsedRecord
{
    enum class State : uint8_t
    {
        Free,  //!< every byte of the slot senses erased
        Valid, //!< CRC-sealed body reads back intact
        Torn,  //!< partially programmed / corrupt: ambiguous
    };

    State state = State::Free;
    uint8_t type = 0;
    uint8_t flags = 0;
    uint64_t seq = 0;
    uint64_t payload = 0;
    uint64_t aux = 0;
    bool committed = false;
    bool superseded = false;
};

BudgetLedger::BudgetLedger(FlashDevice &flash,
                           const BudgetLedgerConfig &config)
    : flash_(flash), config_(config),
      initial_(quantaDown(config.initial_budget)),
      max_record_(quantaUp(config.max_record_loss))
{
    const FlashGeometry &g = flash_.geometry();
    if (g.block_count < 2)
        fatal("BudgetLedger: need >= 2 erase blocks for rotation");
    if (g.block_size < kHeaderSize + 2 * kRecordSize)
        fatal("BudgetLedger: block size %u cannot hold a header and "
              "two records", g.block_size);
    if (initial_ == 0)
        fatal("BudgetLedger: initial budget must be at least one loss "
              "quantum (2^-%d nats), got %g", kLossFracBits,
              config_.initial_budget);
    if (max_record_ == 0)
        fatal("BudgetLedger: max_record_loss must be positive (it is "
              "the fail-secure charge for an ambiguous record)");
}

uint64_t
BudgetLedger::blockBase(uint32_t block) const
{
    return static_cast<uint64_t>(block) * flash_.geometry().block_size;
}

bool
BudgetLedger::readErased(uint64_t addr, std::span<uint8_t> buf,
                         size_t from) const
{
    flash_.read(addr, buf.data(), buf.size());
    return std::all_of(buf.begin() + from, buf.end(),
                       [](uint8_t b) { return b == 0xFF; });
}

uint32_t
BudgetLedger::firstDirtyBlock(uint32_t from) const
{
    const FlashGeometry &g = flash_.geometry();
    std::vector<uint8_t> blk(g.block_size);
    for (uint32_t b = 0; b < g.block_count; ++b) {
        if (!readErased(blockBase(b), blk, from))
            return b;
    }
    return g.block_count;
}

bool
BudgetLedger::programCounted(uint64_t addr, const void *src,
                             size_t len)
{
    bool ok = flash_.program(addr, src, len);
    stats_.journal_bytes_written += len;
    if (telemetry::enabled())
        ledgerMetrics().journal_bytes.inc(len);
    return ok;
}

bool
BudgetLedger::writeHeader(uint32_t block)
{
    uint8_t hdr[kHeaderSize];
    std::memset(hdr, 0xFF, sizeof hdr);
    put32(hdr + kHdrOffMagic, kHeaderMagic);
    put64(hdr + kHdrOffAllocSeq, next_alloc_seq_);
    put32(hdr + kHdrOffCrc, crc32(hdr, kHdrOffCrc));
    if (!programCounted(blockBase(block), hdr, sizeof hdr))
        return false;
    ++next_alloc_seq_;
    current_block_ = block;
    append_off_ = kHeaderSize;
    return true;
}

bool
BudgetLedger::appendRecord(uint8_t type, uint8_t flags,
                           uint64_t payload, uint64_t aux)
{
    uint8_t body[kBodySize];
    std::memset(body, 0xFF, sizeof body);
    put32(body + kOffMagic, kRecordMagic);
    body[kOffType] = type;
    body[kOffFlags] = flags;
    put64(body + kOffSeq, next_seq_);
    put64(body + kOffPayload, payload);
    put64(body + kOffAux, aux);
    put32(body + kOffCrc, crc32(body, kOffCrc));

    const uint64_t addr = blockBase(current_block_) + append_off_;
    uint8_t commit = kCommitByte;
    if (!programCounted(addr, body, sizeof body) ||
        !programCounted(addr + kOffCommit, &commit, 1))
        return false;
    ++next_seq_;
    append_off_ += kRecordSize;
    return true;
}

bool
BudgetLedger::writeCheckpoint(bool rotation)
{
    const uint64_t addr = blockBase(current_block_) + append_off_;
    if (!appendRecord(kTypeCheckpoint,
                      cache_.has_value() ? kFlagCacheValid : 0,
                      remaining_,
                      std::bit_cast<uint64_t>(cache_.value_or(0.0))))
        return false;
    ++stats_.checkpoints_committed;
    if (rotation)
        ++stats_.rotations;
    if (telemetry::enabled()) {
        LedgerMetrics &m = ledgerMetrics();
        m.checkpoints.inc();
        if (rotation) {
            m.rotations.inc();
            const FlashGeometry &g = flash_.geometry();
            uint64_t worst = 0;
            for (uint32_t b = 0; b < g.block_count; ++b)
                worst = std::max(worst, flash_.eraseCount(b));
            m.max_wear.set(static_cast<double>(worst));
        }
    }

    const uint64_t old_cp = std::exchange(live_cp_addr_, addr);
    if (old_cp == kNoRecord)
        return true;
    uint8_t dead = kSupersededByte;
    return programCounted(old_cp + kOffSupersede, &dead, 1);
}

bool
BudgetLedger::format()
{
    remaining_ = initial_;
    next_seq_ = 1;
    next_alloc_seq_ = 1;
    // A cut leaves a torn header or genesis checkpoint, which the
    // next mount resolves (see mount()).
    if (!writeHeader(0) || !writeCheckpoint(false))
        return false;
    mounted_ = true;
    return true;
}

BudgetLedger::ParsedRecord
BudgetLedger::parseSlot(uint64_t addr) const
{
    uint8_t slot[kRecordSize];
    ParsedRecord rec;
    if (readErased(addr, slot))
        return rec; // Free

    if (get32(slot + kOffMagic) != kRecordMagic ||
        get32(slot + kOffCrc) != crc32(slot, kOffCrc)) {
        rec.state = ParsedRecord::State::Torn;
        return rec;
    }
    rec.state = ParsedRecord::State::Valid;
    rec.type = slot[kOffType];
    rec.flags = slot[kOffFlags];
    rec.seq = get64(slot + kOffSeq);
    rec.payload = get64(slot + kOffPayload);
    rec.aux = get64(slot + kOffAux);
    rec.committed = slot[kOffCommit] == kCommitByte;
    rec.superseded = slot[kOffSupersede] != 0xFF;
    if (rec.type != kTypeSpend && rec.type != kTypeCheckpoint)
        rec.state = ParsedRecord::State::Torn; // unknown layout
    return rec;
}

void
BudgetLedger::charge(LossQuanta q)
{
    spent_lifetime_ += q;
    remaining_ -= std::min(remaining_, q);
}

bool
BudgetLedger::mount()
{
    const FlashGeometry &g = flash_.geometry();
    mounted_ = false;
    halted_ = false;
    cache_.reset();
    remaining_ = 0;
    spent_lifetime_ = 0;
    live_cp_addr_ = kNoRecord;

    if (!flash_.alive()) {
        warn("BudgetLedger: mount on a powered-down device");
        return false;
    }

    // Scan block headers and order the valid ones by allocation
    // sequence -- that is journal order, whatever physical block the
    // wear leveler put each segment in.
    struct BlockInfo
    {
        uint32_t block;
        uint64_t alloc_seq;
    };
    std::vector<BlockInfo> order;
    bool any_header_bits = false;
    uint64_t max_alloc = 0;
    for (uint32_t b = 0; b < g.block_count; ++b) {
        uint8_t hdr[kHeaderSize];
        if (readErased(blockBase(b), hdr))
            continue;
        any_header_bits = true;
        if (get32(hdr + kHdrOffMagic) == kHeaderMagic &&
            get32(hdr + kHdrOffCrc) == crc32(hdr, kHdrOffCrc)) {
            uint64_t alloc = get64(hdr + kHdrOffAllocSeq);
            order.push_back({b, alloc});
            max_alloc = std::max(max_alloc, alloc);
        }
    }

    // Resolution rows of DESIGN.md section 13 that end unrecoverable;
    // @p cause labels the telemetry series.
    auto failSecureHalt = [&](const char *cause, const char *why) {
        warn("BudgetLedger: %s; halting with zero remaining budget",
             why);
        halted_ = true;
        remaining_ = 0;
        spent_lifetime_ = initial_;
        mounted_ = true;
        ++stats_.unrecoverable_mounts;
        if (telemetry::enabled())
            unrecoverableMounts(cause).inc();
        return false;
    };

    if (order.empty()) {
        // Headers are blank or invalid; the data area might still
        // hold bits (e.g. a block whose header was never written).
        if (any_header_bits || firstDirtyBlock(0) < g.block_count) {
            // Bits on flash but no valid block header. The one benign
            // shape is a power loss that cut the very first format: a
            // torn *header* with every record slot still erased -- no
            // spend can have been journaled, because spends only
            // append after the header commits. Anything in a record
            // slot could be a spend (a foreign image, a header shot by
            // stuck-at faults, or erased spends): unknowable, so
            // fail secure.
            if (firstDirtyBlock(kHeaderSize) < g.block_count)
                return failSecureHalt("no_header",
                                      "no valid block header over a "
                                      "non-empty journal");
            // Scrub the torn header(s) and fall through to format.
            for (uint32_t b = 0; b < g.block_count; ++b) {
                uint8_t hdr[kHeaderSize];
                if (!readErased(blockBase(b), hdr) && !flash_.erase(b))
                    return false; // cut again; retry next boot
            }
        }
        return format();
    }

    std::sort(order.begin(), order.end(),
              [](const BlockInfo &a, const BlockInfo &b) {
                  return a.alloc_seq < b.alloc_seq;
              });

    // One pass over every slot of every journal segment, in journal
    // order. Everything ambiguous is counted; nothing is trusted
    // twice.
    struct Seen
    {
        ParsedRecord rec;
        uint64_t addr;
    };
    std::vector<Seen> valid;
    uint64_t torn = 0;
    for (const BlockInfo &bi : order) {
        const uint64_t base = blockBase(bi.block);
        for (uint32_t off = kHeaderSize;
             off + kRecordSize <= g.block_size; off += kRecordSize) {
            ParsedRecord rec = parseSlot(base + off);
            if (rec.state == ParsedRecord::State::Free)
                continue; // keep scanning: stuck bits must not hide
                          // records behind a fake gap
            if (rec.state == ParsedRecord::State::Torn) {
                ++torn;
                continue;
            }
            valid.push_back({rec, base + off});
        }
    }

    // Latest checkpoint wins. The supersede byte is diagnostic here:
    // selection is by sequence number, which is monotone by
    // construction, so "write-new-then-invalidate-old" cut between
    // its phases still resolves to the newer state.
    const Seen *best_cp = nullptr;
    uint64_t live_cps = 0;
    uint64_t max_seq = 0;
    uint64_t spend_count = 0;
    for (const Seen &s : valid) {
        max_seq = std::max(max_seq, s.rec.seq);
        if (s.rec.type == kTypeSpend) {
            ++spend_count;
            continue;
        }
        if (!s.rec.superseded)
            ++live_cps;
        if (best_cp == nullptr || s.rec.seq > best_cp->rec.seq)
            best_cp = &s;
    }
    if (live_cps > 1)
        ++stats_.dual_checkpoint_recoveries;

    uint64_t cp_seq = 0;
    if (best_cp == nullptr) {
        // No checkpoint anchors the journal. The only benign shape is
        // a crash during format: a lone header, at most one torn
        // record (the cut genesis checkpoint), zero spends. Anything
        // else means spends may have been erased with their covering
        // checkpoint -- unknowable, so unrecoverable.
        if (spend_count > 0 || torn > 1) {
            stats_.torn_records += torn;
            return failSecureHalt("no_checkpoint",
                                  "journal holds records but no valid "
                                  "checkpoint");
        }
        remaining_ = initial_;
    } else {
        remaining_ = std::min(best_cp->rec.payload, initial_);
        cp_seq = best_cp->rec.seq;
        live_cp_addr_ = best_cp->addr;
        if (best_cp->rec.flags & kFlagCacheValid) {
            double cached = std::bit_cast<double>(best_cp->rec.aux);
            if (std::isfinite(cached))
                cache_ = cached;
        }
    }

    // Replay the spends the checkpoint does not cover. Duplicates and
    // out-of-order records are each charged anyway: over-counting is
    // the safe direction, and the anomaly counters surface the fault.
    std::set<uint64_t> applied;
    uint64_t last_seq = 0;
    for (const Seen &s : valid) {
        if (s.rec.seq < last_seq)
            ++stats_.out_of_order_records;
        last_seq = std::max(last_seq, s.rec.seq);
        if (s.rec.type != kTypeSpend || s.rec.seq <= cp_seq)
            continue;
        if (!applied.insert(s.rec.seq).second)
            ++stats_.duplicate_records;
        if (!s.rec.committed)
            ++stats_.uncommitted_accepted;
        // journalSpend() writes a loss in [0, max_record_loss]; a
        // CRC-valid payload outside it is charged like a torn record,
        // and above kMaxExactNats it is charged that much.
        double loss = std::bit_cast<double>(s.rec.payload);
        if (!(loss >= 0.0)) {
            ++torn;
            continue;
        }
        charge(quantaUp(std::min(loss, kMaxExactNats)));
    }
    for (uint64_t i = 0; i < torn; ++i)
        charge(max_record_);
    stats_.torn_records += torn;

    next_seq_ = std::max(max_seq, cp_seq) + 1;
    next_alloc_seq_ = max_alloc + 1;

    // Resume appending in the newest segment: the slot right after
    // the last non-free one. A torn slot is consumed (its bits are
    // gone); a full block rotates on the next append.
    current_block_ = order.back().block;
    const uint64_t base = blockBase(current_block_);
    append_off_ = kHeaderSize;
    for (uint32_t off = kHeaderSize;
         off + kRecordSize <= g.block_size; off += kRecordSize) {
        if (parseSlot(base + off).state != ParsedRecord::State::Free)
            append_off_ = off + kRecordSize;
    }

    if (!valid.empty() || torn > 0) {
        ++stats_.recoveries;
        if (telemetry::enabled()) {
            LedgerMetrics &m = ledgerMetrics();
            m.recoveries.inc();
            if (torn > 0)
                m.torn.inc(torn);
        }
    }
    mounted_ = true;
    return true;
}

bool
BudgetLedger::rotate()
{
    const FlashGeometry &g = flash_.geometry();

    // Wear leveling: the victim is the least-worn block other than
    // the current one (ties break to the lowest index for replay
    // determinism). Every block the victim could be only holds
    // records already summarized by the live checkpoint, so erasing
    // it never orphans a spend.
    uint32_t victim = current_block_ == 0 ? 1 : 0;
    for (uint32_t b = 0; b < g.block_count; ++b) {
        if (b == current_block_)
            continue;
        if (flash_.eraseCount(b) < flash_.eraseCount(victim))
            victim = b;
    }

    std::vector<uint8_t> blk(g.block_size);
    if (!readErased(blockBase(victim), blk) && !flash_.erase(victim))
        return false;
    // Fresh checkpoint first: from this instant the old segments are
    // garbage and any of them may be the next victim.
    return writeHeader(victim) && writeCheckpoint(true);
}

bool
BudgetLedger::journalSpend(double loss)
{
    if (!mounted_ || halted_)
        return false;
    // A torn record is charged max_record_loss at recovery, so a
    // larger spend could come back under-counted: refuse it.
    if (loss > config_.max_record_loss)
        return false;
    const LossQuanta q = quantaUp(loss); // fatal() on NaN or < 0
    if (append_off_ + kRecordSize > flash_.geometry().block_size &&
        !rotate())
        return false;
    if (!appendRecord(kTypeSpend, 0, std::bit_cast<uint64_t>(loss), 0))
        return false;
    charge(q);
    ++stats_.spends_journaled;
    if (telemetry::enabled())
        ledgerMetrics().spends.inc();
    return true;
}

bool
BudgetLedger::commitCheckpoint(double remaining,
                               const std::optional<double> &cache)
{
    if (!mounted_ || halted_)
        return false;
    remaining_ = std::min(quantaDown(remaining), initial_);
    cache_ = cache;
    // Rotation writes the checkpoint itself (it must: from the erase
    // on, the new block is the only anchor).
    if (append_off_ + kRecordSize > flash_.geometry().block_size)
        return rotate();
    return writeCheckpoint(false);
}

uint64_t
BudgetLedger::wearSpread() const
{
    const FlashGeometry &g = flash_.geometry();
    uint64_t mn = ~uint64_t{0};
    uint64_t mx = 0;
    for (uint32_t b = 0; b < g.block_count; ++b) {
        uint64_t c = flash_.eraseCount(b);
        mn = std::min(mn, c);
        mx = std::max(mx, c);
    }
    return mx - mn;
}

} // namespace ulpdp
