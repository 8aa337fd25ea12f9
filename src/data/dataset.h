/**
 * @file
 * Dataset abstraction for the evaluation benchmarks.
 *
 * The paper evaluates DP-Box on seven UCI Machine Learning Repository
 * datasets (Table I). Those files are not redistributable with this
 * repository, so src/data/generators.h provides synthetic substitutes
 * matched to each dataset's published size, range, mean, standard
 * deviation and qualitative shape.
 */

#ifndef ULPDP_DATA_DATASET_H
#define ULPDP_DATA_DATASET_H

#include <string>
#include <vector>

#include "core/sensor_range.h"

namespace ulpdp {

/** A named column of sensor readings with its declared range. */
struct Dataset
{
    /** Display name (Table I row label). */
    std::string name;

    /** Short description of what the readings are. */
    std::string description;

    /**
     * Declared sensor range. This is what the DP-Box would be
     * configured with -- the physically possible range -- and it can
     * be wider than the observed min/max.
     */
    SensorRange range{0.0, 1.0};

    /** The readings themselves. */
    std::vector<double> values;

    /** Number of entries. */
    size_t size() const { return values.size(); }

    /** Observed minimum. */
    double observedMin() const;

    /** Observed maximum. */
    double observedMax() const;

    /** Observed mean. */
    double mean() const;

    /** Observed population standard deviation. */
    double stddev() const;

    /**
     * A deterministic subsample of at most @p max_entries values
     * (stride sampling), used to keep the biggest Table I datasets
     * tractable in the benches.
     */
    Dataset subsample(size_t max_entries) const;

    /** Panic unless every value lies within the declared range. */
    void validate() const;
};

} // namespace ulpdp

#endif // ULPDP_DATA_DATASET_H
