#include "sim/fault_injector.h"

#include <cmath>

#include "common/logging.h"

namespace ulpdp {

FaultInjector::FaultInjector(const FaultCampaignConfig &config)
    : config_(config), rng_(config.seed)
{
    const double rates[] = {
        config.urng_flip_rate,      config.urng_stuck_rate,
        config.table_seu_rate,      config.bus_nack_rate,
        config.bus_timeout_rate,    config.bus_corrupt_rate,
        config.power_loss_rate,     config.timer_glitch_rate,
        config.flash_program_loss_rate,
        config.flash_erase_loss_rate,
        config.flash_stuck_bit_rate,
    };
    for (double r : rates) {
        if (!(r >= 0.0 && r <= 1.0))
            fatal("FaultInjector: rates must be in [0, 1], got %g", r);
    }
    if (config.bus_nack_rate + config.bus_timeout_rate +
            config.bus_corrupt_rate > 1.0) {
        fatal("FaultInjector: bus fault rates must sum to at most 1");
    }
}

double
FaultInjector::roll()
{
    return static_cast<double>(rng_.next32()) * 0x1p-32;
}

uint32_t
FaultInjector::urngWord(uint32_t word)
{
    if (urng_stuck_) {
        ++stats_.urng_stuck_words;
        return stuck_word_;
    }
    if (config_.urng_stuck_rate > 0.0 &&
        roll() < config_.urng_stuck_rate) {
        // The output register latches at whatever it holds right now;
        // the LFSR behind it keeps running but nobody sees it again.
        urng_stuck_ = true;
        stuck_word_ = word;
        ++stats_.urng_stuck_events;
        ++stats_.urng_stuck_words;
        return stuck_word_;
    }
    if (config_.urng_flip_rate > 0.0 &&
        roll() < config_.urng_flip_rate) {
        ++stats_.urng_bit_flips;
        return word ^ (uint32_t{1} << (rng_.next32() & 31));
    }
    return word;
}

bool
FaultInjector::replenishGlitch()
{
    if (config_.timer_glitch_rate > 0.0 &&
        roll() < config_.timer_glitch_rate) {
        ++stats_.timer_glitches;
        return true;
    }
    return false;
}

BusFaultKind
FaultInjector::busFault()
{
    double nack = config_.bus_nack_rate;
    double timeout = nack + config_.bus_timeout_rate;
    double corrupt = timeout + config_.bus_corrupt_rate;
    if (corrupt <= 0.0)
        return BusFaultKind::None;
    double r = roll();
    if (r < nack) {
        ++stats_.bus_nacks;
        return BusFaultKind::Nack;
    }
    if (r < timeout) {
        ++stats_.bus_timeouts;
        return BusFaultKind::Timeout;
    }
    if (r < corrupt) {
        ++stats_.bus_corruptions;
        return BusFaultKind::CorruptByte;
    }
    return BusFaultKind::None;
}

uint8_t
FaultInjector::corruptBusByte(uint8_t byte)
{
    return byte ^ static_cast<uint8_t>(1u << (rng_.next32() & 7));
}

void
FaultInjector::tick()
{
    if (config_.table_seu_rate > 0.0 &&
        roll() < config_.table_seu_rate) {
        table_seu_pending_ = true;
    }
    if (config_.power_loss_rate > 0.0 &&
        roll() < config_.power_loss_rate) {
        power_loss_pending_ = true;
    }
    if (config_.flash_stuck_bit_rate > 0.0 &&
        roll() < config_.flash_stuck_bit_rate) {
        flash_stuck_pending_ = true;
    }
}

bool
FaultInjector::powerLossPending()
{
    if (!power_loss_pending_)
        return false;
    power_loss_pending_ = false;
    ++stats_.power_losses;
    return true;
}

bool
FaultInjector::tableSeuPending(size_t &byte_offset, int &bit,
                               size_t table_bytes)
{
    if (!table_seu_pending_ || table_bytes == 0)
        return false;
    table_seu_pending_ = false;
    ++stats_.table_seus;
    byte_offset = static_cast<size_t>(rng_.next32()) % table_bytes;
    bit = static_cast<int>(rng_.next32() & 7);
    return true;
}

size_t
FaultInjector::programPowerLoss(size_t len)
{
    if (program_cut_armed_) {
        if (program_cut_at_ >= len)
            return SIZE_MAX; // op too short to reach the armed cut
        program_cut_armed_ = false;
        ++stats_.flash_program_losses;
        return program_cut_at_;
    }
    if (config_.flash_program_loss_rate > 0.0 &&
        roll() < config_.flash_program_loss_rate) {
        ++stats_.flash_program_losses;
        return static_cast<size_t>(rng_.next32()) % len;
    }
    return SIZE_MAX;
}

uint8_t
FaultInjector::partialProgramMask()
{
    // Which 1 -> 0 transitions of the cut byte completed: uniform
    // over all subsets, including none (0x00) and all (0xFF).
    return static_cast<uint8_t>(rng_.next32() & 0xFF);
}

size_t
FaultInjector::erasePowerLoss(size_t block_bytes)
{
    if (erase_cut_armed_) {
        if (erase_cut_at_ >= block_bytes)
            return SIZE_MAX;
        erase_cut_armed_ = false;
        ++stats_.flash_erase_losses;
        return erase_cut_at_;
    }
    if (config_.flash_erase_loss_rate > 0.0 &&
        roll() < config_.flash_erase_loss_rate) {
        ++stats_.flash_erase_losses;
        return static_cast<size_t>(rng_.next32()) % block_bytes;
    }
    return SIZE_MAX;
}

void
FaultInjector::armProgramLossAt(size_t k)
{
    program_cut_armed_ = true;
    program_cut_at_ = k;
}

void
FaultInjector::armEraseLossAt(size_t m)
{
    erase_cut_armed_ = true;
    erase_cut_at_ = m;
}

bool
FaultInjector::flashStuckBitPending(uint64_t &addr, int &bit,
                                    bool &value,
                                    uint64_t region_bytes)
{
    if (!flash_stuck_pending_ || region_bytes == 0)
        return false;
    flash_stuck_pending_ = false;
    ++stats_.flash_stuck_bits;
    addr = ((static_cast<uint64_t>(rng_.next32()) << 32) |
            rng_.next32()) %
           region_bytes;
    bit = static_cast<int>(rng_.next32() & 7);
    value = (rng_.next32() & 1) != 0;
    return true;
}

} // namespace ulpdp
