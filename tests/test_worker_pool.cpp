/**
 * @file
 * Tests for the process-wide worker pool and the chunked parallel-for
 * built on it: full disjoint coverage of the index range, serial
 * inline path, exception propagation from worker threads, reuse of
 * the parked threads, and concurrent and nested calls.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/worker_pool.h"

namespace ulpdp {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    for (int jobs : {1, 2, 4, 0}) {
        for (int64_t chunk : {int64_t{1}, int64_t{7}, int64_t{64}}) {
            std::vector<std::atomic<int>> hits(1000);
            parallelFor(0, 1000, jobs, chunk,
                        [&](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i)
                                hits[static_cast<size_t>(i)]
                                    .fetch_add(1);
                        });
            for (size_t i = 0; i < hits.size(); ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "jobs=" << jobs << " chunk=" << chunk
                    << " i=" << i;
        }
    }
}

TEST(ParallelFor, EmptyAndOffsetRanges)
{
    int calls = 0;
    parallelFor(5, 5, 4, 8,
                [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    std::atomic<int64_t> sum{0};
    parallelFor(10, 20, 3, 3, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), (10 + 19) * 10 / 2);
}

TEST(ParallelFor, SerialPathRunsInline)
{
    // jobs == 1 must invoke the body once over the whole range (the
    // zero-overhead degenerate case callers rely on for determinism
    // arguments).
    int calls = 0;
    parallelFor(0, 100, 1, 8, [&](int64_t lo, int64_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 100);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesWorkerExceptions)
{
    EXPECT_THROW(
        parallelFor(0, 1000, 4, 1,
                    [&](int64_t lo, int64_t) {
                        if (lo == 500)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(WorkerPool, HelperExceptionReachesCaller)
{
    WorkerPool &pool = WorkerPool::shared();
    std::vector<std::atomic<int>> ran(4);
    EXPECT_THROW(pool.dispatch(4,
                               [&](unsigned w) {
                                   ran[w].fetch_add(1);
                                   if (w == 2)
                                       throw std::runtime_error("boom");
                               }),
                 std::runtime_error);
    for (size_t w = 0; w < ran.size(); ++w)
        EXPECT_EQ(ran[w].load(), 1) << "w=" << w;

    // The pool survives the throw: the next dispatch covers every
    // worker index exactly once.
    std::vector<std::atomic<int>> hits(4);
    pool.dispatch(4, [&](unsigned w) { hits[w].fetch_add(1); });
    for (size_t w = 0; w < hits.size(); ++w)
        EXPECT_EQ(hits[w].load(), 1) << "w=" << w;
}

std::atomic<int> g_body_threads{0};

/** Counts each distinct thread that calls it, once. */
void
countThisThread()
{
    struct Counted
    {
        Counted() { g_body_threads.fetch_add(1); }
    };
    thread_local Counted counted;
    (void)counted;
}

TEST(ParallelFor, ReusesParkedThreads)
{
    // Fifty calls at four jobs run on the caller plus the same three
    // parked helpers; a spawn per call would count ~150 threads. Each
    // chunk sleeps so that every worker gets chunks to run.
    for (int call = 0; call < 50; ++call)
        parallelFor(0, 256, 4, 4, [](int64_t, int64_t) {
            countThisThread();
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        });
    EXPECT_GE(g_body_threads.load(), 1);
    EXPECT_LE(g_body_threads.load(), 4);
}

/** True iff parallelFor covers [0, n) exactly once at @p jobs. */
bool
coversOnce(int64_t n, int jobs, int64_t chunk)
{
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    parallelFor(0, n, jobs, chunk, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto &h : hits) {
        if (h.load() != 1)
            return false;
    }
    return true;
}

TEST(ParallelFor, ConcurrentAndNestedCallsComplete)
{
    // Two threads dispatch at once (they serialize on the shared
    // pool), and one of them also runs a body that calls parallelFor
    // from inside a pool job (that inner call runs inline).
    std::atomic<int> bad{0};
    std::thread plain([&] {
        for (int rep = 0; rep < 20; ++rep) {
            if (!coversOnce(1000, 4, 7))
                bad.fetch_add(1);
        }
    });
    std::thread nested([&] {
        for (int rep = 0; rep < 20; ++rep) {
            std::vector<std::atomic<int>> rows(8);
            parallelFor(0, 8, 4, 1, [&](int64_t lo, int64_t hi) {
                for (int64_t r = lo; r < hi; ++r) {
                    rows[static_cast<size_t>(r)].fetch_add(1);
                    if (!coversOnce(300, 4, 5))
                        bad.fetch_add(1);
                }
            });
            for (const auto &r : rows) {
                if (r.load() != 1)
                    bad.fetch_add(1);
            }
        }
    });
    plain.join();
    nested.join();
    EXPECT_EQ(bad.load(), 0);
}

} // anonymous namespace
} // namespace ulpdp
