/**
 * @file
 * Synthetic sensor time series.
 *
 * The budget-replenishment experiments need *streams*, not bags of
 * values: a device noising one evolving signal over time, with the
 * budget refilling each epoch. These generators produce bounded,
 * deterministic time series with the shapes common in the paper's
 * application domains: a mean-reverting random walk (vital signs), a
 * diurnal pattern plus noise (home energy / temperature), and a
 * piecewise-constant activity signal (occupancy, device states).
 */

#ifndef ULPDP_DATA_TIMESERIES_H
#define ULPDP_DATA_TIMESERIES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sensor_range.h"

namespace ulpdp {

namespace timeseries {

/**
 * Mean-reverting (Ornstein-Uhlenbeck-like) walk clipped to the
 * range: x_{t+1} = x_t + rate * (mu - x_t) + sigma * N(0,1).
 */
std::vector<double> meanRevertingWalk(size_t n,
                                      const SensorRange &range,
                                      double mu, double rate,
                                      double sigma, uint64_t seed);

/**
 * Diurnal pattern: base + amplitude * sin(2 pi t / period) plus
 * Gaussian jitter of stddev @p jitter (>= 0; 0 draws no noise),
 * clipped to the range.
 */
std::vector<double> diurnal(size_t n, const SensorRange &range,
                            double base, double amplitude,
                            size_t period, double jitter,
                            uint64_t seed);

/**
 * Piecewise-constant level signal: holds one of @p num_levels
 * evenly spaced values, switching with probability @p switch_prob
 * per step.
 */
std::vector<double> piecewiseLevels(size_t n,
                                    const SensorRange &range,
                                    int num_levels,
                                    double switch_prob,
                                    uint64_t seed);

} // namespace timeseries

} // namespace ulpdp

#endif // ULPDP_DATA_TIMESERIES_H
