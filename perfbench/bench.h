/**
 * @file
 * Shared plumbing of the repository benchmark: the result sink every
 * phase reports into, and sample statistics.
 *
 * A *phase* drives one subsystem through its public API (fleet,
 * certifier, ledger). A workload measures its primary phase for
 * --seconds and a small companion share of the other phases, so every
 * run prints every end-to-end metric; see README.md.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Arithmetic mean of @p v (0 when empty). */
double mean(const std::vector<double> &v);

/**
 * Every latency of one kind of call in a run, at the clock's 1 ns
 * resolution, and the repetitions (epochs, storm passes) they fell in.
 *
 * The tail is read from every call of the run pooled together. The
 * median is read per repetition and averaged over the repetitions: a
 * shared host alternates between a fast and a slow speed for seconds
 * at a time, and a pooled median sits in whichever speed held for more
 * than half the run, so it jumps by the whole gap between the two from
 * run to run. The average moves with the share of each.
 *
 * One counter per nanosecond below kBins keeps memory fixed however
 * many calls a run makes (so peak RSS does not grow with run length);
 * the rare slower call is kept exactly in a list.
 */
class LatencyLog
{
  public:
    /** Counters cover 0 .. 131 us; slower calls go to the list. */
    static constexpr size_t kBins = size_t{1} << 17;

    LatencyLog();

    /** Record one call that took @p d. */
    void add(Clock::duration d);

    /** Close the current repetition (no-op when it holds no call). */
    void endRepetition();

    uint64_t count() const { return count_; }

    /** Nearest-rank quantile @p q of every call, pooled, in
     *  microseconds (0 when empty). */
    double pooledUs(double q) const;

    /** Nearest-rank median of each closed repetition, averaged over
     *  the repetitions, in microseconds (0 when none). */
    double meanMedianUs() const;

  private:
    std::vector<uint32_t> bins_;
    std::vector<int64_t> slow_ns_;
    uint64_t count_ = 0;
    /** Calls of the open repetition. */
    std::vector<int64_t> open_ns_;
    double median_sum_us_ = 0.0;
    uint64_t repetitions_ = 0;
};

/** Time one call of @p fn into @p log; returns what @p fn returns. */
template <class Fn>
auto
timed(LatencyLog &log, Fn &&fn)
{
    Clock::time_point t0 = Clock::now();
    auto r = fn();
    log.add(Clock::now() - t0);
    return r;
}

/**
 * Result sink: named metrics with units, plus the observations the
 * output checks compare (checksums, verdicts, fingerprints) and any
 * check that already failed inside the process.
 */
class Results
{
  public:
    /** Record metric @p name; the first value recorded wins. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record an observation (first value wins) for the checks. */
    void observe(const std::string &key, const std::string &value);

    /** Record the per-repetition values behind metric @p name of
     *  phase @p tag (comma-separated, for the run record). */
    void repetitions(const std::string &tag, const std::string &name,
                     const std::vector<double> &values);

    /** A self-consistency check failed (message printed at exit). */
    void fail(const std::string &what);

    /** Count @p n attempted operations, @p failed of them failed. */
    void attempt(uint64_t n, uint64_t failed = 0);

    const std::map<std::string, std::pair<double, std::string>> &
    metrics() const
    {
        return metrics_;
    }
    const std::map<std::string, std::string> &observations() const
    {
        return observations_;
    }
    const std::vector<std::string> &failures() const { return failures_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failedOps() const { return failed_ops_; }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::map<std::string, std::string> observations_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ops_ = 0;
};

/** 16-digit lowercase hex of a 64-bit digest. */
std::string hex64(uint64_t v);

/** %.17g rendering (round-trips a double exactly). */
std::string exact(double v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
