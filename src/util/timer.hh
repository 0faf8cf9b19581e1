/**
 * @file
 * Wall-clock timer for measuring simulation running time and speedups.
 */

#ifndef ZATEL_UTIL_TIMER_HH
#define ZATEL_UTIL_TIMER_HH

#include <chrono>

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

} // namespace zatel

#endif // ZATEL_UTIL_TIMER_HH
