/**
 * @file
 * Fixed-size thread pool used by Zatel's group runner to execute the K
 * downscaled simulator instances concurrently (Section III-A step 6).
 * Queued tasks start highest priority first, FIFO among equals; the
 * default priority keeps a pool FIFO. The campaign JobPipeline keys
 * its stage units by job priority and stage rank, so this queue is the
 * only one a unit waits in.
 *
 * Correctness contract (exercised by tests/test_thread_pool_stress.cc and
 * verified under TSan, see docs/CORRECTNESS.md):
 *  - submit() after shutdown has begun throws instead of silently
 *    enqueuing a task that would never run (the future would hang).
 *  - parallelFor()/parallelForChunked() may be called from inside a pool
 *    task (nested parallelism): the calling thread helps execute queued
 *    tasks while it waits, so a pool of any size cannot deadlock on
 *    nested loops.
 *  - Exceptions thrown by loop bodies are captured and the first one is
 *    rethrown on the calling thread after every chunk has finished.
 *  - A throwing task never terminates a worker thread: every task runs
 *    inside a packaged_task, which stores the exception in the task's
 *    future instead of letting it unwind the worker loop.
 *  - If submit() throws partway through parallelForChunked's fan-out
 *    (shutdown raced the loop), the already-submitted chunks are still
 *    joined — the body reference stays valid for their whole run — and
 *    the submit failure is rethrown; waiters cannot hang on chunks
 *    that were never enqueued.
 */

#ifndef ZATEL_UTIL_THREAD_POOL_HH
#define ZATEL_UTIL_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace zatel
{

/**
 * A simple fixed-size worker pool.
 *
 * Tasks are std::function<void()>; submit() returns a future for join /
 * exception propagation. The destructor drains outstanding work.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 selects hardware_concurrency().
     */
    explicit ThreadPool(size_t num_threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task; the future resolves when it completes. Queued
     * tasks start in descending @p priority, FIFO among equals.
     * @throws std::runtime_error if shutdown has already begun (a task
     *         enqueued then would never run and its future would hang).
     */
    std::future<void> submit(std::function<void()> task,
                             int64_t priority = 0);

    /** Block until every submitted task has completed. */
    void waitAll();

    size_t workerCount() const { return workers_.size(); }

    /** Number of tasks queued but not yet started. */
    size_t queueDepth() const;

    /** Number of tasks currently executing on a worker (or a helping
     *  caller inside parallelForChunked). */
    size_t activeWorkers() const;

    /**
     * Run @p body(i) for i in [0, count) across the pool and wait.
     * Exceptions from tasks propagate out of the call. Equivalent to
     * parallelForChunked(count, 1, body).
     */
    void parallelFor(size_t count, const std::function<void(size_t)> &body);

    /**
     * Range-chunked parallel loop: [0, count) is split into chunks of
     * @p grain consecutive indices and one pool task is submitted per
     * chunk, cutting queue-lock contention from O(count) to
     * O(count / grain). @p grain == 0 selects an automatic grain of
     * roughly count / (4 x workers), so small counts degrade to one
     * task per index (maximal load balancing) and huge counts submit a
     * bounded number of tasks.
     *
     * Safe to call from inside a pool task: the caller helps drain the
     * queue while waiting. The first exception thrown by @p body is
     * rethrown here after all chunks finish.
     */
    void parallelForChunked(size_t count, size_t grain,
                            const std::function<void(size_t)> &body);

    /** Process-unique id of this pool; names its workers in traces
     *  ("pool<id>-w<i>", see docs/OBSERVABILITY.md). */
    uint32_t poolId() const { return poolId_; }

  private:
    /** A queued task plus its enqueue timestamp (only sampled while
     *  metrics are enabled; `timed` false otherwise). */
    struct QueuedTask
    {
        std::packaged_task<void()> work;
        std::chrono::steady_clock::time_point enqueued{};
        bool timed = false;
    };

    void workerLoop(size_t worker_index);

    /**
     * Pop and execute one queued task on the calling thread.
     * @return false when the queue was empty.
     */
    bool runOneTask();

    std::vector<std::thread> workers_;
    /** Queued tasks by descending priority; a multimap inserts at the
     *  end of an equal range, so equal priorities stay FIFO. */
    std::multimap<int64_t, QueuedTask, std::greater<int64_t>> tasks_;
    mutable std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    size_t inFlight_ = 0;
    size_t active_ = 0;
    bool shutdown_ = false;
    uint32_t poolId_ = 0;
};

} // namespace zatel

#endif // ZATEL_UTIL_THREAD_POOL_HH
