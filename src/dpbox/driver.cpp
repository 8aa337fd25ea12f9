#include "dpbox/driver.h"

#include <cmath>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

/** Host-side surface: end-to-end noising latency in device cycles
 *  (the paper's 2-cycles-plus-resamples claim, Section V) and
 *  configuration hygiene. */
struct DriverMetrics
{
    LatencyHistogram &latency = telemetry::registry().histogram(
        "ulpdp_dpbox_noise_latency_cycles",
        "Device cycles from StartNoising to ready",
        "cycles", {2, 3, 4, 8, 16, 64, 256, 4096});
    Counter &roundings = telemetry::registry().counter(
        "ulpdp_driver_epsilon_roundings_total",
        "configure() calls whose epsilon was rounded to a power of 2",
        "events");
};

DriverMetrics &
driverMetrics()
{
    static DriverMetrics m;
    return m;
}

} // anonymous namespace

DpBoxDriver::DpBoxDriver(const DpBoxConfig &config) : box_(config) {}

void
DpBoxDriver::initialize(double budget, uint64_t replenish_period)
{
    if (initialized_)
        fatal("DpBoxDriver: initialize() may only run once (the "
              "device seals its budget configuration)");
    ULPDP_ASSERT(box_.phase() == DpBoxPhase::Initialization);

    // Budget register is Q.8 fixed point on the input port, filled by
    // rounding down: the device never seals more than was asked for.
    double budget_raw = std::floor(std::ldexp(budget, 8));
    if (!(budget_raw >= 1.0 && budget <= kMaxExactNats))
        fatal("DpBoxDriver: budget %g nats does not fit the Q8 budget "
              "register [2^-8, %g]", budget, kMaxExactNats);
    box_.step(DpBoxCommand::SetEpsilon,
              static_cast<int64_t>(budget_raw));
    box_.step(DpBoxCommand::SetRangeUpper,
              static_cast<int64_t>(replenish_period));
    box_.step(DpBoxCommand::StartNoising);
    initialized_ = true;
}

void
DpBoxDriver::configure(double epsilon, const SensorRange &range)
{
    if (!initialized_)
        fatal("DpBoxDriver: initialize() must run before configure()");
    if (!(epsilon > 0.0))
        fatal("DpBoxDriver: epsilon must be positive, got %g", epsilon);

    int n_m = static_cast<int>(std::llrint(-std::log2(epsilon)));
    if (n_m < 0)
        n_m = 0;
    if (n_m > 16)
        n_m = 16;
    double effective = std::ldexp(1.0, -n_m);
    if (std::abs(effective - epsilon) > 1e-12 * epsilon) {
        ++epsilon_rounding_warnings_;
        if (telemetry::enabled())
            driverMetrics().roundings.inc();
        warn("DpBoxDriver: epsilon %g is not a power of two; the "
             "device will use %g (n_m = %d)", epsilon, effective, n_m);
    }

    box_.step(DpBoxCommand::SetEpsilon, n_m);
    box_.step(DpBoxCommand::SetRangeLower, box_.toRaw(range.lo));
    box_.step(DpBoxCommand::SetRangeUpper, box_.toRaw(range.hi));
    configured_ = true;
}

void
DpBoxDriver::setThresholding(bool thresholding)
{
    if (!initialized_)
        fatal("DpBoxDriver: initialize() must run first");
    if (box_.thresholdingMode() != thresholding)
        box_.step(DpBoxCommand::SetThreshold);
}

DpBoxResult
DpBoxDriver::noise(double x)
{
    if (!configured_)
        fatal("DpBoxDriver: configure() must run before noise()");

    box_.step(DpBoxCommand::SetSensorValue, box_.toRaw(x));

    uint64_t start = box_.cycles();
    box_.step(DpBoxCommand::StartNoising);
    while (!box_.ready()) {
        box_.step(DpBoxCommand::DoNothing);
        // A device bug could starve us; the FSM guarantees progress,
        // so bound the wait generously and panic beyond it.
        if (box_.cycles() - start > (uint64_t{1} << 22))
            panic("DpBoxDriver: device never became ready");
    }

    DpBoxResult result;
    result.value = box_.fromRaw(box_.output());
    result.latency_cycles = box_.cycles() - start;
    if (telemetry::enabled())
        driverMetrics().latency.observe(
            static_cast<double>(result.latency_cycles));
    return result;
}

double
DpBoxDriver::effectiveEpsilon() const
{
    return std::ldexp(1.0, -box_.nm());
}

FaultStats
DpBoxDriver::faultStats() const
{
    FaultStats stats = box_.faultStats();
    stats.epsilon_rounding_warnings = epsilon_rounding_warnings_;
    return stats;
}

} // namespace ulpdp
