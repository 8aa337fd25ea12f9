/**
 * @file
 * The process-wide pool of parked worker threads, and the chunked
 * parallel-for built on it.
 *
 * Threads are created lazily, grown to the widest dispatch seen, park
 * on a condition variable between dispatches and are reused by every
 * later one, so steady-state dispatch costs one mutex round-trip plus
 * a wakeup. The fleet's epochs and every parallelFor run on the one
 * pool, WorkerPool::shared(); no path creates a thread per call. The
 * pool lives as long as the process (it is never destroyed, so no
 * static destructor can outlive it). It lives in common because core
 * uses it and must not depend on fleet.
 *
 * Contracts:
 *  - The caller runs worker index 0 itself, so a one-worker dispatch
 *    runs inline and touches no lock.
 *  - Dispatches from two threads serialize on the pool.
 *  - A dispatch made from inside a running job runs all its worker
 *    indices inline on that thread, in index order, so no job can
 *    deadlock the pool.
 *  - An exception thrown by any worker, the caller's or a helper's,
 *    is rethrown on the caller after every worker has returned (the
 *    first one wins), and the pool stays usable.
 *
 * The pool schedules *workers*, never *work*: callers fix their
 * work-to-result mapping by index, so which thread ran which worker
 * index never moves a result bit.
 */

#ifndef ULPDP_COMMON_WORKER_POOL_H
#define ULPDP_COMMON_WORKER_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ulpdp {

/** Lazily grown pool of parked threads that run one job per dispatch. */
class WorkerPool
{
  public:
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** The one pool every parallel loop of the process runs on. */
    static WorkerPool &shared();

    /** Ensure at least @p helpers parked helper threads exist (the
     *  fleet calls it before its epoch timer starts). */
    void reserve(unsigned helpers);

    /** Run job(w) for every worker index w in [0, workers): the
     *  caller runs job(0), parked helpers the rest. Returns after
     *  every index completed. */
    void dispatch(unsigned workers,
                  const std::function<void(unsigned)> &job);

  private:
    WorkerPool() = default;

    void helperMain(unsigned id);

    /** Held by the caller for the whole of a pooled dispatch. */
    std::mutex dispatch_mutex_;
    std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> helpers_;
    const std::function<void(unsigned)> *job_ = nullptr;
    /** Dispatch counter; a helper runs when it observes a new value
     *  and its id is below the dispatch's active helper count. */
    uint64_t epoch_ = 0;
    unsigned active_helpers_ = 0;
    unsigned outstanding_ = 0;
    /** First exception a helper threw in the current dispatch. */
    std::exception_ptr helper_error_;
};

/** Number of hardware threads (never less than 1). */
inline int
hardwareJobs()
{
    return static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Invoke body(begin, end) over disjoint chunks covering [begin, end)
 * from up to `jobs` workers of WorkerPool::shared(). Workers claim
 * the next chunk with an atomic fetch_add, so imbalanced chunks
 * self-schedule. A throwing body stops further claims; the exception
 * is rethrown on the caller.
 *
 * @param jobs Worker count; <= 0 means hardwareJobs(). jobs == 1
 *        executes body(begin, end) inline, chunking skipped.
 * @param chunk Chunk size in indices (must be >= 1).
 * @param body Called as body(chunk_begin, chunk_end); must be safe
 *        to call concurrently for disjoint chunks. Results that must
 *        merge deterministically should be stored per chunk and
 *        combined by the caller in index order afterwards.
 */
void parallelFor(int64_t begin, int64_t end, int jobs, int64_t chunk,
                 const std::function<void(int64_t, int64_t)> &body);

} // namespace ulpdp

#endif // ULPDP_COMMON_WORKER_POOL_H
