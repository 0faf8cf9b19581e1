/**
 * @file
 * Unit tests for the thread pool that runs Zatel's group simulations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace zatel
{
namespace
{

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&counter] { ++counter; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(50);
    pool.parallelFor(50, [&hits](size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPool, ExceptionPropagates)
{
    ThreadPool pool(2);
    auto future = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(10,
                                  [](size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error("bad");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, WaitAllBlocksUntilDone)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&counter] { ++counter; });
    pool.waitAll();
    EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, WorkerCountDefaultsPositive)
{
    ThreadPool pool;
    EXPECT_GE(pool.workerCount(), 1u);
}

TEST(ThreadPool, QueueDepthAndActiveWorkersTrackLoad)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.queueDepth(), 0u);
    EXPECT_EQ(pool.activeWorkers(), 0u);

    // Park both workers on a gate, then pile three tasks behind them.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<int> started{0};
    auto blocker = [&] {
        ++started;
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
    };
    std::vector<std::future<void>> futures;
    futures.push_back(pool.submit(blocker));
    futures.push_back(pool.submit(blocker));
    while (started.load() < 2)
        std::this_thread::yield();
    for (int i = 0; i < 3; ++i)
        futures.push_back(pool.submit([] {}));

    EXPECT_EQ(pool.activeWorkers(), 2u);
    EXPECT_EQ(pool.queueDepth(), 3u)
        << "tasks queued but not started behind two busy workers";

    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
    }
    gate_cv.notify_all();
    for (auto &f : futures)
        f.get();
    pool.waitAll();
    EXPECT_EQ(pool.queueDepth(), 0u);
    EXPECT_EQ(pool.activeWorkers(), 0u);
}

TEST(ThreadPool, HigherPriorityStartsFirstFifoAmongEquals)
{
    ThreadPool pool(1);
    // Hold the only worker on a gate so every later task queues.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<bool> started{false};
    std::vector<std::future<void>> futures;
    futures.push_back(pool.submit([&] {
        started = true;
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
    }));
    while (!started.load())
        std::this_thread::yield();

    std::vector<std::string> order;
    const auto record = [&order](std::string label) {
        return [&order, label] { order.push_back(label); };
    };
    futures.push_back(pool.submit(record("0"), 0));
    futures.push_back(pool.submit(record("5a"), 5));
    futures.push_back(pool.submit(record("5b"), 5));
    futures.push_back(pool.submit(record("1"), 1));
    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
    }
    gate_cv.notify_all();
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(order, (std::vector<std::string>{"5a", "5b", "1", "0"}));
}

TEST(ThreadPool, SingleWorkerSerializes)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
    for (auto &f : futures)
        f.get();
    // One worker executes in FIFO order.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

} // namespace
} // namespace zatel
