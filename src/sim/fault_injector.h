/**
 * @file
 * Deterministic fault-injection campaigns against the hardened
 * fault sites.
 *
 * A privacy claim that only holds on fault-free silicon is not much
 * of a claim on an ultra-low-power node: SEUs flip SRAM bits, buses
 * NACK and corrupt bytes, brown-outs cut power mid-transaction, and
 * timers glitch. The FaultInjector drives all of those fault classes
 * from one seeded PRNG so a whole campaign -- thousands of
 * transactions with faults striking every site -- replays bit-exactly
 * from its seed, which is what makes a chaos-test failure debuggable.
 *
 * Two kinds of sites exist:
 *
 *  - Passive sites consult the injector *from inside* the component
 *    through the FaultHook interface (URNG output register,
 *    replenishment-timer comparator, bus transfer): the component
 *    calls, the injector answers.
 *  - Active sites are driven *by the harness* between transactions:
 *    tick() advances campaign time and arms pending events, which the
 *    harness then realises (flip a sampler-table bit, cut power and
 *    remount the flash budget ledger).
 *
 * The injector draws from its own private Tausworthe -- never from
 * the device under test -- so injecting a fault does not perturb the
 * very randomness stream being attacked.
 */

#ifndef ULPDP_SIM_FAULT_INJECTOR_H
#define ULPDP_SIM_FAULT_INJECTOR_H

#include <cstddef>
#include <cstdint>

#include "common/fault.h"
#include "rng/tausworthe.h"
#include "sim/nor_flash.h"

namespace ulpdp {

/**
 * Per-site fault rates of one campaign. All rates are probabilities
 * in [0, 1] per opportunity (per URNG word, per transfer attempt,
 * per tick, ...); 0 disables the site.
 */
struct FaultCampaignConfig
{
    /** Campaign seed; equal seeds replay equal campaigns. */
    uint64_t seed = 1;

    /** Per URNG word: flip one random output bit (transient SEU on
     *  the output flops). */
    double urng_flip_rate = 0.0;

    /** Per URNG word: latch the output register at its current value
     *  permanently (hard stuck-at fault). */
    double urng_stuck_rate = 0.0;

    /** Per tick: flip one random bit of the sampler tables (SEU in
     *  the table SRAM). Realised by the harness via
     *  tableSeuPending(). */
    double table_seu_rate = 0.0;

    /** Per bus transfer attempt: addressed device NACKs. */
    double bus_nack_rate = 0.0;

    /** Per bus transfer attempt: clock-stretch timeout. */
    double bus_timeout_rate = 0.0;

    /** Per bus transfer attempt: one in-flight byte corrupted. */
    double bus_corrupt_rate = 0.0;

    /** Per tick: power is cut and the device restarts. Realised by
     *  the harness via powerLossPending(). */
    double power_loss_rate = 0.0;

    /** Per replenishment-timer comparison: the timer spuriously
     *  claims the period elapsed. */
    double timer_glitch_rate = 0.0;

    /** Per flash program op: power is cut after a uniform number of
     *  programmed bytes (the byte at the cut partially programs). */
    double flash_program_loss_rate = 0.0;

    /** Per flash erase op: power is cut after a uniform number of
     *  erased bytes, leaving a half-erased block. */
    double flash_erase_loss_rate = 0.0;

    /** Per tick: one random bit of the flash journal region sticks
     *  (oxide breakdown on the sense path). Realised by the harness
     *  via flashStuckBitPending(). */
    double flash_stuck_bit_rate = 0.0;
};

/** What one campaign actually injected (not what was detected). */
struct FaultInjectionStats
{
    uint64_t urng_bit_flips = 0;
    uint64_t urng_stuck_events = 0;
    uint64_t urng_stuck_words = 0;
    uint64_t table_seus = 0;
    uint64_t bus_nacks = 0;
    uint64_t bus_timeouts = 0;
    uint64_t bus_corruptions = 0;
    uint64_t power_losses = 0;
    uint64_t timer_glitches = 0;
    uint64_t flash_program_losses = 0;
    uint64_t flash_erase_losses = 0;
    uint64_t flash_stuck_bits = 0;

    /** Total faults injected across all sites. */
    uint64_t
    total() const
    {
        return urng_bit_flips + urng_stuck_events + table_seus +
               bus_nacks + bus_timeouts + bus_corruptions +
               power_losses + timer_glitches +
               flash_program_losses + flash_erase_losses +
               flash_stuck_bits;
    }
};

/** Seeded multi-site fault injector (see file comment). */
class FaultInjector : public FaultHook, public FlashFaultHook
{
  public:
    /** @param config Campaign rates; every rate must be in [0, 1]. */
    explicit FaultInjector(const FaultCampaignConfig &config);

    // Passive sites (FaultHook interface).
    uint32_t urngWord(uint32_t word) override;
    bool replenishGlitch() override;
    BusFaultKind busFault() override;
    uint8_t corruptBusByte(uint8_t byte) override;

    // Passive flash sites (FlashFaultHook interface). A one-shot
    // armed cut (armProgramLossAt / armEraseLossAt) takes precedence
    // over the random rates -- that is how the storm harness sweeps
    // "power loss after exactly k programmed bytes" over every
    // distinct offset.
    size_t programPowerLoss(size_t len) override;
    uint8_t partialProgramMask() override;
    size_t erasePowerLoss(size_t block_bytes) override;

    /**
     * Arm a deterministic one-shot cut: the next program op of more
     * than @p k bytes loses power after exactly @p k bytes (ops too
     * short to reach the cut complete and leave it armed). Reproduces
     * one exact torn-write shape on demand.
     */
    void armProgramLossAt(size_t k);

    /** Arm a deterministic one-shot cut of the next erase after
     *  exactly @p m erased bytes. */
    void armEraseLossAt(size_t m);

    /** An armed one-shot program/erase cut has not fired yet. */
    bool flashCutArmed() const
    {
        return program_cut_armed_ || erase_cut_armed_;
    }

    /**
     * Advance campaign time by one transaction tick: rolls the
     * per-tick sites (table SEU, power loss) and arms the pending
     * events the harness must realise.
     */
    void tick();

    /** Consume a pending power-loss event (armed by tick()). */
    bool powerLossPending();

    /**
     * Consume a pending sampler-table SEU: picks a uniform victim
     * position over @p table_bytes and returns it in @p byte_offset /
     * @p bit. Returns false when no SEU is pending (or the table is
     * empty).
     */
    bool tableSeuPending(size_t &byte_offset, int &bit,
                         size_t table_bytes);

    /**
     * Consume a pending flash stuck-at fault (armed by tick()): picks
     * a uniform victim bit over @p region_bytes and returns it in
     * @p addr / @p bit plus the stuck value. Returns false when none
     * is pending (or the region is empty). The harness realises it
     * via NorFlashModel::stickBit().
     */
    bool flashStuckBitPending(uint64_t &addr, int &bit, bool &value,
                              uint64_t region_bytes);

    /** Injection counters so far. */
    const FaultInjectionStats &stats() const { return stats_; }

    /** The campaign configuration in effect. */
    const FaultCampaignConfig &config() const { return config_; }

  private:
    /** Uniform double in [0, 1) from the private stream. */
    double roll();

    FaultCampaignConfig config_;
    Tausworthe rng_;
    FaultInjectionStats stats_;

    bool urng_stuck_ = false;
    uint32_t stuck_word_ = 0;
    bool power_loss_pending_ = false;
    bool table_seu_pending_ = false;
    bool flash_stuck_pending_ = false;
    bool program_cut_armed_ = false;
    size_t program_cut_at_ = 0;
    bool erase_cut_armed_ = false;
    size_t erase_cut_at_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_SIM_FAULT_INJECTOR_H
