#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"

namespace zatel
{

namespace
{

/** Lazily-registered pool metrics (docs/OBSERVABILITY.md catalogue).
 *  Registration happens once; the handles stay valid forever and every
 *  update is a no-op while the global registry is disabled. */
struct PoolMetrics
{
    obs::Counter *tasksTotal;
    obs::Gauge *queueDepth;
    obs::Histogram *waitSeconds;
    obs::Histogram *runSeconds;
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics metrics = [] {
        auto &reg = obs::MetricsRegistry::global();
        PoolMetrics m;
        m.tasksTotal =
            reg.counter("zatel_pool_tasks_total",
                        "Tasks executed by ThreadPool workers");
        m.queueDepth = reg.gauge("zatel_pool_queue_depth",
                                 "Tasks queued but not yet started");
        m.waitSeconds = reg.histogram(
            "zatel_pool_task_wait_seconds",
            "Time a task spent queued before a worker picked it up",
            obs::Histogram::timeBuckets());
        m.runSeconds =
            reg.histogram("zatel_pool_task_run_seconds",
                          "Execution wall-time per pool task",
                          obs::Histogram::timeBuckets());
        return m;
    }();
    return metrics;
}

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

/** Process-wide pool id source ("pool<id>-w<i>" trace thread names). */
std::atomic<uint32_t> g_nextPoolId{0};

} // namespace

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
    }
    poolId_ = g_nextPoolId.fetch_add(1, std::memory_order_relaxed);
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    taskReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task, int64_t priority)
{
    QueuedTask queued;
    queued.work = std::packaged_task<void()>(std::move(task));
    std::future<void> future = queued.work.get_future();
    if (obs::metricsEnabled()) {
        queued.enqueued = std::chrono::steady_clock::now();
        queued.timed = true;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_) {
            // Workers may already have exited; an enqueued task would
            // never run and its future would never become ready.
            throw std::runtime_error(
                "ThreadPool::submit called during shutdown");
        }
        tasks_.emplace(priority, std::move(queued));
        ++inFlight_;
        poolMetrics().queueDepth->set(
            static_cast<double>(tasks_.size()));
    }
    taskReady_.notify_one();
    return future;
}

void
ThreadPool::waitAll()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.size();
}

size_t
ThreadPool::activeWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return active_;
}

void
ThreadPool::parallelFor(size_t count, const std::function<void(size_t)> &body)
{
    parallelForChunked(count, 1, body);
}

void
ThreadPool::parallelForChunked(size_t count, size_t grain,
                               const std::function<void(size_t)> &body)
{
    if (count == 0)
        return;
    if (grain == 0)
        grain = std::max<size_t>(1, count / (4 * workers_.size()));

    /** Join state shared between the chunk tasks and the caller. */
    struct LoopState
    {
        std::mutex mutex;
        std::condition_variable done;
        size_t remaining = 0;
        std::exception_ptr firstError;
    };
    auto state = std::make_shared<LoopState>();
    const size_t num_chunks = (count + grain - 1) / grain;
    state->remaining = num_chunks;

    size_t submitted = 0;
    std::exception_ptr submit_error;
    for (size_t c = 0; c < num_chunks; ++c) {
        const size_t begin = c * grain;
        const size_t end = std::min(count, begin + grain);
        // body is captured by reference: this function does not return
        // until every chunk has completed, so the reference stays valid.
        try {
            submit([state, begin, end, &body] {
                std::exception_ptr error;
                try {
                    for (size_t i = begin; i < end; ++i)
                        body(i);
                } catch (...) {
                    error = std::current_exception();
                }
                std::lock_guard<std::mutex> lock(state->mutex);
                if (error && !state->firstError)
                    state->firstError = error;
                if (--state->remaining == 0)
                    state->done.notify_all();
            });
        } catch (...) {
            // submit() refused (e.g. shutdown began). The chunks that
            // never made it into the queue will never decrement
            // `remaining`; forget them now so the join below cannot
            // wait forever, but DO still join the submitted ones —
            // they reference `body` and must finish before we unwind.
            submit_error = std::current_exception();
            break;
        }
        ++submitted;
    }
    if (submitted < num_chunks) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->remaining -= num_chunks - submitted;
        if (state->remaining == 0)
            state->done.notify_all();
    }

    // Wait for completion, helping to drain the queue so that nested
    // parallel loops issued from inside pool tasks cannot deadlock even
    // on a single-worker pool.
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(state->mutex);
            if (state->remaining == 0)
                break;
        }
        if (runOneTask())
            continue;
        // Queue empty but chunks still running on other threads: block
        // until the last chunk signals completion.
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(lock, [&state] { return state->remaining == 0; });
        break;
    }

    // A refused submit outranks a body error: it means part of the
    // iteration space never ran at all.
    if (submit_error)
        std::rethrow_exception(submit_error);
    if (state->firstError)
        std::rethrow_exception(state->firstError);
}

bool
ThreadPool::runOneTask()
{
    QueuedTask task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty())
            return false;
        task = std::move(tasks_.extract(tasks_.begin()).mapped());
        ++active_;
        poolMetrics().queueDepth->set(
            static_cast<double>(tasks_.size()));
    }
    // Task timing is sampled only when metrics were enabled at submit
    // time; otherwise the clock is never read on this path.
    if (task.timed)
        poolMetrics().waitSeconds->observe(elapsedSeconds(task.enqueued));
    const auto started = task.timed ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
    // packaged_task stores a thrown exception in the task's future, so
    // a throwing task can never unwind (and kill) a worker thread.
    task.work();
    if (task.timed)
        poolMetrics().runSeconds->observe(elapsedSeconds(started));
    poolMetrics().tasksTotal->inc();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --active_;
        --inFlight_;
        if (inFlight_ == 0)
            allDone_.notify_all();
    }
    return true;
}

void
ThreadPool::workerLoop(size_t worker_index)
{
    if (obs::tracingEnabled()) {
        obs::TraceRecorder::global().setThreadName(
            "pool" + std::to_string(poolId_) + "-w" +
            std::to_string(worker_index));
    }
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock,
                            [this] { return shutdown_ || !tasks_.empty(); });
            if (shutdown_ && tasks_.empty()) {
                // Drained; exit.
                return;
            }
        }
        // The queue may have been drained by a helping thread between
        // the wait and here; runOneTask simply finds it empty then.
        runOneTask();
    }
}

} // namespace zatel
