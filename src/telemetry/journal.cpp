#include "telemetry/journal.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace ulpdp {

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::BudgetSpend:
        return "budget_spend";
      case EventKind::HaltReplay:
        return "halt_replay";
      case EventKind::FaultLatch:
        return "fault_latch";
      case EventKind::Replenish:
        return "replenish";
      case EventKind::HealthAlarm:
        return "health_alarm";
      case EventKind::BusDegrade:
        return "bus_degrade";
      case EventKind::ResampleOverflow:
        return "resample_overflow";
    }
    panic("eventKindName: invalid kind %d", static_cast<int>(kind));
}

namespace {

size_t
roundUpPow2(size_t v)
{
    size_t p = 16;
    while (p < v)
        p <<= 1;
    return p;
}

} // anonymous namespace

EventJournal::EventJournal(size_t capacity)
    : mask_(roundUpPow2(capacity) - 1),
      slots_(new Slot[mask_ + 1])
{}

void
EventJournal::record(EventKind kind, uint64_t tick,
                     double value) noexcept
{
    uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots_[ticket & mask_];
    // begin != end marks the slot as mid-write; the release store of
    // `end` publishes the payload to snapshotting readers.
    slot.begin.store(ticket + 1, std::memory_order_relaxed);
    slot.kind.store(static_cast<uint64_t>(kind),
                    std::memory_order_relaxed);
    slot.tick.store(tick, std::memory_order_relaxed);
    slot.value_bits.store(std::bit_cast<uint64_t>(value),
                          std::memory_order_relaxed);
    slot.end.store(ticket + 1, std::memory_order_release);
}

uint64_t
EventJournal::recorded() const
{
    return head_.load(std::memory_order_relaxed);
}

uint64_t
EventJournal::dropped() const
{
    uint64_t total = recorded();
    uint64_t cap = mask_ + 1;
    return total > cap ? total - cap : 0;
}

std::vector<JournalEvent>
EventJournal::snapshot() const
{
    uint64_t total = head_.load(std::memory_order_acquire);
    uint64_t cap = mask_ + 1;
    uint64_t first = total > cap ? total - cap : 0;

    std::vector<JournalEvent> out;
    out.reserve(static_cast<size_t>(total - first));
    for (uint64_t t = first; t < total; ++t) {
        const Slot &slot = slots_[t & mask_];
        uint64_t end = slot.end.load(std::memory_order_acquire);
        if (end != t + 1)
            continue; // overwritten by a newer event, or mid-write
        JournalEvent ev;
        ev.kind = static_cast<EventKind>(
            slot.kind.load(std::memory_order_relaxed));
        ev.tick = slot.tick.load(std::memory_order_relaxed);
        ev.value = std::bit_cast<double>(
            slot.value_bits.load(std::memory_order_relaxed));
        if (slot.begin.load(std::memory_order_relaxed) != t + 1)
            continue; // writer raced in after we read the payload
        out.push_back(ev);
    }
    return out;
}

void
EventJournal::clear()
{
    head_.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i <= mask_; ++i) {
        slots_[i].begin.store(0, std::memory_order_relaxed);
        slots_[i].end.store(0, std::memory_order_relaxed);
        slots_[i].kind.store(0, std::memory_order_relaxed);
        slots_[i].tick.store(0, std::memory_order_relaxed);
        slots_[i].value_bits.store(0, std::memory_order_relaxed);
    }
}

} // namespace ulpdp
