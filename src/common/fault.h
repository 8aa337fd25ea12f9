/**
 * @file
 * Fault-tolerance primitives shared by every hardened subsystem.
 *
 * The privacy guarantee of this library is only as strong as the
 * state it is computed from: a single-event upset in the sampler
 * tables, a stuck URNG output register, a corrupted budget word
 * surviving a power cycle, or a glitched replenishment timer can all
 * silently turn an eps-LDP device into a non-private one (the same
 * implementation-level failure class as the finite-precision attacks
 * of Mironov and Gazeau et al., only induced by hardware instead of
 * floating point). This header holds the pieces every fault site
 * shares:
 *
 *  - crc32()/crc8(): the integrity codes protecting the sampler
 *    tables, the budget checkpoint and the sensor-bus payload;
 *  - FaultStats: one counter per detection/degradation event, so a
 *    deployment can audit what its fail-secure logic actually did;
 *  - FaultHook: the interface through which a fault *injector* (the
 *    simulation-side FaultInjector, or nothing in production) is
 *    threaded into the fault sites. Every method defaults to
 *    pass-through, so a null or default hook is a fault-free device.
 *
 * The hook interface lives in common (the lowest layer) so that rng,
 * core and dpbox can expose their fault sites without depending on
 * the simulation library that drives campaigns against them.
 */

#ifndef ULPDP_COMMON_FAULT_H
#define ULPDP_COMMON_FAULT_H

#include <cstddef>
#include <cstdint>

namespace ulpdp {

/**
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
 * range. @p seed chains multi-buffer computations: pass the previous
 * return value to continue a running CRC.
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/**
 * CRC-8 with polynomial 0x31 (x^8 + x^5 + x^4 + 1), init 0xFF -- the
 * checksum many digital sensors (SHT3x, SCD4x families) append to
 * each bus word, and what our sensor-bus model uses to detect byte
 * corruption in flight.
 */
uint8_t crc8(const void *data, size_t len);

/** What the bus fault site decided for one transfer attempt. */
enum class BusFaultKind : uint8_t
{
    /** Transfer proceeds unharmed. */
    None,

    /** Addressed device never ACKs (transfer aborts early). */
    Nack,

    /** Clock stretching / lost arbitration beyond the deadline. */
    Timeout,

    /** One payload byte is corrupted in flight. */
    CorruptByte,
};

/**
 * Detection and degradation counters of the fail-secure machinery.
 * Every hardened component keeps one and exposes it read-only; the
 * tracer and the chaos harness aggregate them. A production device
 * would map these onto health-telemetry registers.
 */
struct FaultStats
{
    /** Continuous health tests tripped on the URNG output stream. */
    uint64_t urng_health_alarms = 0;

    /** CRC scrub failures over the sampler tables. */
    uint64_t table_crc_failures = 0;

    /** Out-of-range sampler-table entries caught at lookup time. */
    uint64_t table_bounds_faults = 0;

    /** Attaches of an unrecoverable (halted) budget ledger. */
    uint64_t checkpoint_restore_failures = 0;

    /** Replenishment-timer misfires rejected by the shadow counter. */
    uint64_t timer_glitches_rejected = 0;

    /** Sensor-bus attempts retried after a detected transfer fault. */
    uint64_t bus_retries = 0;

    /** Sensor-bus reads abandoned after the retry budget (the caller
     *  degrades to its cached report). */
    uint64_t bus_degradations = 0;

    /** Reports served from cache because a fault was latched (zero
     *  additional privacy loss by construction). */
    uint64_t fail_secure_reports = 0;

    /** Resampling draws degraded to a window-edge clamp. */
    uint64_t resample_overflows = 0;

    /** configure() calls whose epsilon was rounded to a power of 2. */
    uint64_t epsilon_rounding_warnings = 0;

    /** Ledger journal appends that failed before output release (the
     *  transaction was withheld and the controller latched). */
    uint64_t ledger_append_failures = 0;

    /** Sum of the detection counters (not the degradation ones): how
     *  many times a fault was *noticed*. */
    uint64_t
    detections() const
    {
        return urng_health_alarms + table_crc_failures +
               table_bounds_faults + checkpoint_restore_failures +
               timer_glitches_rejected + bus_retries +
               ledger_append_failures;
    }

    FaultStats &
    operator+=(const FaultStats &o)
    {
        urng_health_alarms += o.urng_health_alarms;
        table_crc_failures += o.table_crc_failures;
        table_bounds_faults += o.table_bounds_faults;
        checkpoint_restore_failures += o.checkpoint_restore_failures;
        timer_glitches_rejected += o.timer_glitches_rejected;
        bus_retries += o.bus_retries;
        bus_degradations += o.bus_degradations;
        fail_secure_reports += o.fail_secure_reports;
        resample_overflows += o.resample_overflows;
        epsilon_rounding_warnings += o.epsilon_rounding_warnings;
        ledger_append_failures += o.ledger_append_failures;
        return *this;
    }
};

/**
 * Injection interface of the passive fault sites: components consult
 * their hook (when one is attached) at the exact datapath point where
 * the physical fault would strike. Default implementations are all
 * pass-through, i.e. a fault-free device.
 */
class FaultHook
{
  public:
    virtual ~FaultHook() = default;

    /** The URNG output register: the returned word is what the rest
     *  of the datapath sees (stuck-at / bit-flip faults). */
    virtual uint32_t urngWord(uint32_t word) { return word; }

    /** One replenishment-timer comparison: true = the (faulty) timer
     *  block claims the period elapsed. */
    virtual bool replenishGlitch() { return false; }

    /** One sensor-bus transfer attempt. */
    virtual BusFaultKind busFault() { return BusFaultKind::None; }

    /** Corrupt one in-flight bus byte (CorruptByte faults only). */
    virtual uint8_t corruptBusByte(uint8_t byte) { return byte; }
};

} // namespace ulpdp

#endif // ULPDP_COMMON_FAULT_H
