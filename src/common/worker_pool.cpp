#include "common/worker_pool.h"

#include <atomic>

#include "common/logging.h"

namespace ulpdp {

namespace {

/** True while this thread runs a pool job: a dispatch from there runs
 *  inline instead of waiting for the pool it occupies. */
thread_local bool t_in_job = false;

/** Run job(w), keeping a throw in @p error unless it holds one. */
void
runCaught(const std::function<void(unsigned)> &job, unsigned w,
          std::exception_ptr &error)
{
    try {
        job(w);
    } catch (...) {
        if (!error)
            error = std::current_exception();
    }
}

} // anonymous namespace

WorkerPool &
WorkerPool::shared()
{
    static WorkerPool *pool = new WorkerPool;
    return *pool;
}

void
WorkerPool::reserve(unsigned helpers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (helpers_.size() < helpers) {
        unsigned id = static_cast<unsigned>(helpers_.size());
        helpers_.emplace_back([this, id] { helperMain(id); });
    }
}

void
WorkerPool::dispatch(unsigned workers,
                     const std::function<void(unsigned)> &job)
{
    if (workers <= 1) {
        job(0);
        return;
    }
    std::exception_ptr error;
    if (t_in_job) {
        for (unsigned w = 0; w < workers; ++w)
            runCaught(job, w, error);
    } else {
        std::lock_guard<std::mutex> serial(dispatch_mutex_);
        reserve(workers - 1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &job;
            active_helpers_ = outstanding_ = workers - 1;
            ++epoch_;
        }
        wake_cv_.notify_all();

        t_in_job = true;
        runCaught(job, 0, error);
        t_in_job = false;

        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return outstanding_ == 0; });
        job_ = nullptr;
        if (!error)
            error = helper_error_;
        helper_error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
WorkerPool::helperMain(unsigned id)
{
    t_in_job = true;
    uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_cv_.wait(lock, [&] { return epoch_ != seen_epoch; });
        seen_epoch = epoch_;
        if (id >= active_helpers_)
            continue; // parked out of this dispatch
        const std::function<void(unsigned)> *job = job_;
        lock.unlock();
        std::exception_ptr error;
        runCaught(*job, id + 1, error);
        lock.lock();
        if (!helper_error_)
            helper_error_ = error;
        if (--outstanding_ == 0)
            done_cv_.notify_all();
    }
}

void
parallelFor(int64_t begin, int64_t end, int jobs, int64_t chunk,
            const std::function<void(int64_t, int64_t)> &body)
{
    if (end <= begin)
        return;
    ULPDP_ASSERT(chunk >= 1);
    if (jobs <= 0)
        jobs = hardwareJobs();

    int64_t span = end - begin;
    int64_t nchunks = (span + chunk - 1) / chunk;
    if (jobs > nchunks)
        jobs = static_cast<int>(nchunks);

    if (jobs == 1) {
        body(begin, end);
        return;
    }

    // A throwing body drains the remaining chunks so peers return
    // promptly; the pool rethrows its exception on the caller.
    std::atomic<int64_t> next{0};
    WorkerPool::shared().dispatch(
        static_cast<unsigned>(jobs), [&](unsigned) {
            for (;;) {
                int64_t c = next.fetch_add(1, std::memory_order_relaxed);
                if (c >= nchunks)
                    return;
                int64_t lo = begin + c * chunk;
                int64_t hi = lo + chunk < end ? lo + chunk : end;
                try {
                    body(lo, hi);
                } catch (...) {
                    next.store(nchunks, std::memory_order_relaxed);
                    throw;
                }
            }
        });
}

} // namespace ulpdp
