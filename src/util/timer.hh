/**
 * @file
 * Wall-clock and thread CPU-time timers for measuring simulation running
 * time and speedups.
 */

#ifndef ZATEL_UTIL_TIMER_HH
#define ZATEL_UTIL_TIMER_HH

#include <chrono>
#include <ctime>

namespace zatel
{

/** Monotonic wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = std::chrono::steady_clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    elapsedSeconds() const
    {
        auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID). Unlike a
 * wall clock it does not count time the thread waited for a core, so a
 * simulation timed this way costs the same whether or not other
 * simulations run beside it. Start and read it on the same thread.
 */
class ThreadCpuTimer
{
  public:
    ThreadCpuTimer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = now(); }

    /** CPU seconds this thread used since construction or reset(). */
    double elapsedSeconds() const { return now() - start_; }

  private:
    static double
    now()
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }

    double start_ = 0.0;
};

} // namespace zatel

#endif // ZATEL_UTIL_TIMER_HH
