/**
 * @file
 * The three measured phases of the benchmark. Each phase owns the
 * objects it measures (built in its constructor: that is the set-up
 * the caller times), drives one subsystem through its public API in a
 * closed loop, and reports metrics into a Results sink.
 *
 * Results keeps the first value recorded under a name, so a workload
 * reports its primary phase first and the companions after it: a
 * companion only fills in metrics the primary phase does not produce.
 */

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/fxp_params.h"
#include "fleet/fleet.h"

namespace perfbench {

/**
 * One measured subsystem. main() interleaves the phases of a run in
 * rounds (the primary phase's slice, then a slice of each companion)
 * so a slow stretch of the host lands on every phase alike, and calls
 * report() once at the end. Samples taken while the Tracer is enabled
 * are kept apart from untraced ones; their ratio is the tracing
 * overhead.
 */
class Phase
{
  public:
    virtual ~Phase() = default;

    /** Run repetitions (epochs, passes) for @p seconds, at least one,
     *  accumulating samples. */
    virtual void measure(double seconds, Results &out) = 0;

    /** Record the phase's metrics; @p trace adds the per-layer ones
     *  (and runs the layer replays they need). */
    virtual void report(bool trace, Results &out) = 0;
};

/** The two fleet configurations of the benchmark (README.md). */
enum class FleetKind
{
    /** Reference device, thresholding + resampling, agg off. */
    Hotloop,
    /** Four registry cohorts, off-centre data, budgets, agg on. */
    Stream,
};

/** One fleet phase: configuration, size and thread count. */
struct FleetShape
{
    FleetKind kind = FleetKind::Hotloop;
    /** Nodes per cohort. */
    uint64_t nodes = 0;
    /** Worker threads of the measured epochs. */
    unsigned threads = 1;
};

/** The fleet configuration of @p shape under workload seed @p seed. */
ulpdp::FleetConfig fleetConfig(const FleetShape &shape, uint64_t seed);

/**
 * Fleet epochs (and, for Stream, a decode of every trial row after
 * each epoch). @p tag prefixes the observations (fingerprint,
 * per-cohort checksums) the output checks compare.
 */
class FleetPhase : public Phase
{
  public:
    FleetPhase(const FleetShape &shape, uint64_t seed, std::string tag);
    ~FleetPhase() override;

    void measure(double seconds, Results &out) override;
    void report(bool trace, Results &out) override;

  private:
    /** One closed-loop epoch; returns the wall time of run(), s. */
    double epoch(unsigned threads, Results &out);
    /** Reports per second over epochs that took @p walls seconds.
     *  Every epoch of a phase releases the same number of reports. */
    double rate(const std::vector<double> &walls) const
    {
        return static_cast<double>(reports_per_epoch_) / mean(walls);
    }
    void replayLayers(double epoch1_ns_per_report, Results &out);

    FleetShape shape_;
    std::string tag_;
    ulpdp::FleetConfig config_;
    std::unique_ptr<ulpdp::FleetRunner> runner_;
    uint64_t fingerprint_ = 0;
    bool have_fingerprint_ = false;
    /** Merged per-trial slot counts of the first epoch, per agg
     *  cohort (the agg replay's input shape). */
    std::vector<std::vector<uint64_t>> first_slots_;
    /** Fresh (metered) reports per node of each cohort, from the first
     *  epoch's report. */
    std::vector<uint64_t> fresh_per_node_;
    /** Failed reports (overflows, integrity, dropped) and reports. */
    uint64_t fleet_failures_ = 0;
    uint64_t fleet_reports_ = 0;
    uint64_t reports_per_epoch_ = 0;
    /** Wall times of the untraced and of the traced epochs. */
    std::vector<double> walls_;
    std::vector<double> traced_walls_;
    std::vector<double> serial_;
    /** Every decode of the untraced and of the traced epochs. */
    LatencyLog decode_us_;
    LatencyLog traced_decode_us_;
    /** Mean abs decode error over the fresh rows of the last epoch. */
    double abs_err_ = 0.0;
};

/** One (Bu, eps) profile of the certify grid. */
ulpdp::FxpMechanismParams certifyProfile(int bu, double eps);

/** Full certifyAll() passes over a grid of profiles. */
class CertifyPhase : public Phase
{
  public:
    /** @p full_grid: Bu {16, 24, 32} x eps {1, 0.5}; else Bu 16,
     *  eps 1 only (the companion round). */
    CertifyPhase(bool full_grid, int jobs, uint64_t seed, std::string tag);

    void measure(double seconds, Results &out) override;
    void report(bool trace, Results &out) override;

  private:
    double pass(int jobs, Results &out);
    void replayStages(double pass1_s, Results &out);

    std::vector<ulpdp::FxpMechanismParams> grid_;
    int jobs_;
    uint64_t seed_;
    std::string tag_;
    uint64_t passes_ = 0;
    /** (mechanism, profile) pairs certified, and those that failed. */
    uint64_t pairs_ = 0;
    uint64_t uncertified_ = 0;
    /** Timing-free verdicts of the first pass, per profile key. */
    std::map<std::string, std::string> verdicts_;
    std::vector<double> pass_s_;
    std::vector<double> traced_pass_s_;
};

/** Power-loss storm passes against the flash budget ledger. */
class LedgerPhase : public Phase
{
  public:
    /** @p cycles per storm pass. Set-up = flash format + first mount. */
    LedgerPhase(uint64_t cycles, uint64_t seed, std::string tag);
    ~LedgerPhase() override;

    void measure(double seconds, Results &out) override;
    void report(bool trace, Results &out) override;

  private:
    /** Formatted, mounted part (set-up) and the accumulated samples. */
    struct State;

    uint64_t cycles_;
    uint64_t seed_;
    std::string tag_;
    std::unique_ptr<State> state_;
};

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
