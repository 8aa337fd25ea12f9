/**
 * @file
 * Host-side driver for the DP-Box.
 *
 * Models the software half of the interface: the command sequences a
 * trusted boot loader (initialization) and an application (waiting /
 * noising) would issue over the 3-bit command port, with doubles
 * converted to the port's fixed-point words. All latency numbers come
 * from the device's own cycle counter.
 */

#ifndef ULPDP_DPBOX_DRIVER_H
#define ULPDP_DPBOX_DRIVER_H

#include "core/sensor_range.h"
#include "dpbox/dpbox.h"

namespace ulpdp {

/** One noising transaction as observed by the host. */
struct DpBoxResult
{
    /** Noised value, converted back to a double. */
    double value = 0.0;

    /** Device cycles from StartNoising to ready (2 + resamples). */
    uint64_t latency_cycles = 0;
};

/** Issues DP-Box command sequences on behalf of host software. */
class DpBoxDriver
{
  public:
    explicit DpBoxDriver(const DpBoxConfig &config);

    /**
     * Run the secure-boot initialization sequence: configure the
     * privacy budget and replenishment period, then seal them with
     * StartNoising. Must be called exactly once, first.
     *
     * @param budget Total privacy budget in nats, rounded down to the
     *        Q8 register; fatal() outside [2^-8, kMaxExactNats].
     * @param replenish_period Cycles between budget refills; 0 never.
     */
    void initialize(double budget, uint64_t replenish_period);

    /**
     * Configure noising parameters: epsilon (rounded to the nearest
     * power of two, Eq. 19 -- a warning is printed if it was not one)
     * and the sensor range registers.
     */
    void configure(double epsilon, const SensorRange &range);

    /** Select thresholding (true) or resampling (false). */
    void setThresholding(bool thresholding);

    /** Noise one sensor reading end to end. */
    DpBoxResult noise(double x);

    /** Epsilon actually in effect after power-of-two rounding. */
    double effectiveEpsilon() const;

    /** configure() calls whose epsilon had to be rounded to a power
     *  of two (each one also warns through common/logging). */
    uint64_t epsilonRoundingWarnings() const
    {
        return epsilon_rounding_warnings_;
    }

    /**
     * The device's fault counters with the driver's own contribution
     * (epsilon roundings) folded in -- the single FaultStats view a
     * deployment would export.
     */
    FaultStats faultStats() const;

    /** Direct access to the device model (tests, stats). */
    DpBox &device() { return box_; }
    const DpBox &device() const { return box_; }

  private:
    DpBox box_;
    bool initialized_ = false;
    bool configured_ = false;
    uint64_t epsilon_rounding_warnings_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_DPBOX_DRIVER_H
