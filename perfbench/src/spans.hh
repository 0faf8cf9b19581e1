/**
 * @file
 * Bench-side spans. The traced run wraps each call it makes into a
 * layer's public functions in a Span recorded on the benchmark's own
 * obs::TraceRecorder (the program's global recorder stays off, so no
 * span inside src/ is recorded or paid for). A Span also times itself,
 * with or without a recorder, so untraced and traced runs measure the
 * same intervals.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_recorder.hh"

namespace perfbench
{

class Span
{
  public:
    /** Opens a span named @p name on @p recorder (null: timing only). */
    Span(zatel::obs::TraceRecorder *recorder, const char *name);
    Span(zatel::obs::TraceRecorder *recorder, const char *name,
         int64_t arg);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close the span (first call only); returns its length in ms. */
    double stopMs();

  private:
    zatel::obs::TraceRecorder *recorder_;
    std::chrono::steady_clock::time_point start_;
    bool open_ = true;
    double ms_ = 0.0;
};

/** Total and self time of every span with one name. */
struct SpanTotals
{
    uint64_t count = 0;
    double totalUs = 0.0;
    /** Duration minus the time covered by direct child spans. */
    double selfUs = 0.0;
};

/** Aggregate @p events (a TraceRecorder snapshot) by span name. */
std::map<std::string, SpanTotals>
spanTotals(const std::vector<zatel::obs::TraceEvent> &events);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
