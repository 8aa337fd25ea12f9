/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: standard
 * parameter construction, the four evaluation settings of Tables
 * II-V, and consistent banner printing.
 */

#ifndef ULPDP_BENCH_BENCH_UTIL_H
#define ULPDP_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/fxp_params.h"
#include "core/threshold_calc.h"
#include "data/dataset.h"
#include "query/utility.h"
#include "rng/noise_pmf.h"

namespace ulpdp {
namespace bench {

// The streaming JSON writer behind the machine-readable BENCH_*.json
// side-channel now lives in common/json.h (ulpdp::JsonWriter) so the
// telemetry exporters share it; the alias keeps bench::JsonWriter
// spelling working.
using JsonWriter = ulpdp::JsonWriter;

/**
 * The shared `--json <path>` bench flag: returns the path argument or
 * an empty string when the flag is absent. Fatal when the flag is
 * given without a path.
 */
std::string jsonPathFromArgs(int argc, char **argv);

/** Print a bench banner naming the table/figure being reproduced. */
void banner(const std::string &title, const std::string &what);

/**
 * Widest window half-extension T in [0, max_t] whose exact worst-case
 * loss @p loss_at(T) stays within @p bound (relative slack 1e-9):
 * doubling from T = 0, then bisection. Assumes the loss is
 * non-decreasing in T. Returns -1 if even T = 0 fails.
 */
int64_t widestWindow(int64_t max_t, double bound,
                     const std::function<double(int64_t)> &loss_at);

/** widestWindow() of the resampling mechanism over @p pmf. */
int64_t resamplingThreshold(const std::shared_ptr<const NoisePmf> &pmf,
                            int64_t span, double bound);

/**
 * Standard fixed-point parameters for a dataset: the paper's Bu = 17
 * URNG, a Delta of d/32, and 14 output bits (enough to never saturate
 * before the L = lambda Bu ln 2 support edge for eps >= 0.25).
 */
FxpMechanismParams standardParams(const Dataset &data, double epsilon,
                                  uint64_t seed = 1);

/** One row of a Tables II-V style comparison. */
struct SettingRow
{
    /** Setting name ("Ideal Local DP", "FxP HW Baseline", ...). */
    std::string setting;

    /** Utility result for the query under evaluation. */
    UtilityResult util;

    /** Exact-analysis verdict: is the setting eps'-LDP for the
     *  configured bound (n * eps)? */
    bool ldp = false;

    /** Worst-case exact privacy loss (inf for the naive baseline). */
    double worst_loss = 0.0;

    /**
     * Streaming-decoder MAE for the same query: each trial's sketch
     * slot counts decoded by the agg channel-inversion estimator
     * instead of evaluating the query on materialized reports. False
     * for the Ideal setting (no output grid to sketch on) and for
     * queries the decoder does not serve.
     */
    bool agg_supported = false;
    double agg_mae = 0.0;
    double agg_mae_std = 0.0;
};

/**
 * Run the paper's four settings (ideal / naive FxP / resampling /
 * thresholding) for one dataset and query -- methodology of Section V
 * with the loss bound n * eps, thresholds from the exact search --
 * plus the two registry mechanisms that postdate the paper
 * ("bounded-laplace", "discrete-laplace"), selected by name through
 * the mechanism registry so the tables triple as a registry
 * integration test: six rows per dataset.
 *
 * Implemented on the parallel fleet engine: the four settings run as
 * four cohorts of one fleet (dataset entry i = node i, trial t = every
 * node's t-th report), so the trial loop parallelises across cores
 * while staying bit-identical for every thread count.
 *
 * @param data Dataset (already subsampled if huge).
 * @param query Query under evaluation.
 * @param epsilon Privacy parameter (paper: 0.5).
 * @param loss_multiple Loss bound multiple n (paper segments use
 *        1.5-3; the tables use a device configured at n = 2).
 * @param trials Trials per setting.
 */
std::vector<SettingRow> runFourSettings(const Dataset &data,
                                        const Query &query,
                                        double epsilon,
                                        double loss_multiple,
                                        int trials, uint64_t seed = 1);

/**
 * The Table I datasets subsampled to a tractable size for the
 * utility benches (the paper runs 500 trials x all entries on a
 * server farm; we cap entries and trials and note it in the output).
 */
std::vector<Dataset> benchDatasets(size_t max_entries);

} // namespace bench
} // namespace ulpdp

#endif // ULPDP_BENCH_BENCH_UTIL_H
