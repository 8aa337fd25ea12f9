#include "dpbox/trace.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace ulpdp {

namespace {

const char *
phaseName(DpBoxPhase phase)
{
    switch (phase) {
      case DpBoxPhase::Initialization:
        return "init";
      case DpBoxPhase::Waiting:
        return "wait";
      case DpBoxPhase::Noising:
        return "noise";
    }
    return "?";
}

const char *
commandName(DpBoxCommand cmd)
{
    switch (cmd) {
      case DpBoxCommand::DoNothing:
        return "nop";
      case DpBoxCommand::StartNoising:
        return "start";
      case DpBoxCommand::SetEpsilon:
        return "set_eps";
      case DpBoxCommand::SetSensorValue:
        return "set_val";
      case DpBoxCommand::SetRangeUpper:
        return "set_ru";
      case DpBoxCommand::SetRangeLower:
        return "set_rl";
      case DpBoxCommand::SetThreshold:
        return "toggle";
    }
    return "?";
}

} // anonymous namespace

DpBoxTracer::DpBoxTracer(DpBox &box) : box_(box) {}

void
DpBoxTracer::step(DpBoxCommand cmd, int64_t input)
{
    box_.step(cmd, input);
    DpBoxTraceEntry e;
    e.cycle = box_.cycles();
    e.phase = box_.phase();
    e.command = cmd;
    e.input = input;
    e.ready = box_.ready();
    e.output = box_.output();
    e.range_lo = box_.rangeLoRaw();
    e.range_hi = box_.rangeHiRaw();
    e.budget = box_.remainingBudget();
    e.fault_detections = box_.faultStats().detections();
    e.fault_latched = box_.faultLatched();
    trace_.push_back(e);
}

TraceCheckResult
DpBoxTracer::check() const
{
    TraceCheckResult result;
    auto fail = [&](const std::string &msg, uint64_t cycle) {
        result.ok = false;
        result.violation =
            "cycle " + std::to_string(cycle) + ": " + msg;
    };

    int64_t window = box_.config().threshold_index;
    uint64_t period = box_.replenishPeriod();
    bool seen_post_init = false;
    // The device's replenishment timer starts when initialization is
    // sealed; track the last legal refill point accordingly.
    uint64_t last_refill = 0;
    // Fail-secure discipline state: the last output released before
    // the latch is the only data a latched device may replay.
    bool have_frozen = false;
    int64_t frozen = 0;

    for (size_t i = 0; i < trace_.size() && result.ok; ++i) {
        const DpBoxTraceEntry &e = trace_[i];

        // 3. Phase discipline: initialization is never re-entered.
        if (e.phase != DpBoxPhase::Initialization) {
            if (!seen_post_init)
                last_refill = e.cycle;
            seen_post_init = true;
        } else if (seen_post_init) {
            fail("re-entered initialization phase", e.cycle);
        }

        // 1. Containment: ready outputs stay inside the window the
        //    range registers imply (valid once a range exists).
        if (e.ready && e.range_hi > e.range_lo) {
            if (e.output < e.range_lo - window ||
                e.output > e.range_hi + window) {
                fail("output " + std::to_string(e.output) +
                         " outside window [" +
                         std::to_string(e.range_lo - window) + ", " +
                         std::to_string(e.range_hi + window) + "]",
                     e.cycle);
            }
        }

        // 4. Fail-secure discipline: a latched device only replays
        //    the frozen pre-latch output (or the midpoint constant).
        if (e.ready) {
            if (e.fault_latched) {
                int64_t allowed = have_frozen
                    ? frozen
                    : (e.range_lo + e.range_hi) / 2;
                if (e.output != allowed) {
                    fail("latched device released " +
                             std::to_string(e.output) +
                             " instead of replaying " +
                             std::to_string(allowed),
                         e.cycle);
                }
            } else {
                frozen = e.output;
                have_frozen = true;
            }
        }

        // 2. Budget soundness: the register may only rise when at
        //    least one replenishment period elapsed since the last
        //    refill (or since the timer started at seal time).
        if (i > 0) {
            const DpBoxTraceEntry &prev = trace_[i - 1];
            if (e.budget > prev.budget &&
                prev.phase != DpBoxPhase::Initialization) {
                bool legal = period > 0 &&
                             e.cycle - last_refill >= period;
                if (legal) {
                    last_refill = e.cycle;
                } else {
                    fail("budget increased without replenishment (" +
                             std::to_string(prev.budget) + " -> " +
                             std::to_string(e.budget) + ")",
                         e.cycle);
                }
            }
        }
    }
    return result;
}

std::string
DpBoxTracer::toText(size_t max_rows) const
{
    std::ostringstream out;
    out << "cycle    phase  cmd      input      ready  output     "
           "budget\n";
    size_t start = trace_.size() > max_rows
        ? trace_.size() - max_rows
        : 0;
    char buf[160];
    for (size_t i = start; i < trace_.size(); ++i) {
        const DpBoxTraceEntry &e = trace_[i];
        std::snprintf(buf, sizeof(buf),
                      "%-8llu %-6s %-8s %-10lld %-6d %-10lld %.4f\n",
                      static_cast<unsigned long long>(e.cycle),
                      phaseName(e.phase), commandName(e.command),
                      static_cast<long long>(e.input),
                      e.ready ? 1 : 0,
                      static_cast<long long>(e.output), e.budget);
        out << buf;
    }
    return out.str();
}

} // namespace ulpdp
