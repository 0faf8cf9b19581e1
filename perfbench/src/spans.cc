#include "spans.hh"

#include <algorithm>

namespace perfbench
{

Span::Span(zatel::obs::TraceRecorder *recorder, const char *name)
    : recorder_(recorder)
{
    if (recorder_ != nullptr)
        recorder_->beginSpan(name);
    start_ = std::chrono::steady_clock::now();
}

Span::Span(zatel::obs::TraceRecorder *recorder, const char *name,
           int64_t arg)
    : recorder_(recorder)
{
    if (recorder_ != nullptr)
        recorder_->beginSpan(name, arg);
    start_ = std::chrono::steady_clock::now();
}

Span::~Span()
{
    stopMs();
}

double
Span::stopMs()
{
    if (open_) {
        ms_ = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
        if (recorder_ != nullptr)
            recorder_->endSpan();
        open_ = false;
    }
    return ms_;
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<zatel::obs::TraceEvent> &events)
{
    std::vector<const zatel::obs::TraceEvent *> order;
    order.reserve(events.size());
    for (const zatel::obs::TraceEvent &event : events)
        order.push_back(&event);
    // Per thread, parents start no later than their children; on a tie
    // the shallower span is the parent.
    std::sort(order.begin(), order.end(),
              [](const auto *a, const auto *b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->tsMicros != b->tsMicros)
                      return a->tsMicros < b->tsMicros;
                  return a->depth < b->depth;
              });

    std::map<std::string, SpanTotals> totals;
    std::vector<double> self(order.size(), 0.0);
    std::vector<size_t> open; // indices into order, innermost last
    for (size_t i = 0; i < order.size(); ++i) {
        const zatel::obs::TraceEvent &event = *order[i];
        self[i] = event.durMicros;
        while (!open.empty()) {
            const zatel::obs::TraceEvent &top = *order[open.back()];
            if (top.tid == event.tid &&
                event.tsMicros < top.tsMicros + top.durMicros)
                break;
            open.pop_back();
        }
        if (!open.empty() && order[open.back()]->depth + 1 == event.depth)
            self[open.back()] -= event.durMicros;
        open.push_back(i);
    }
    for (size_t i = 0; i < order.size(); ++i) {
        SpanTotals &entry = totals[order[i]->name];
        ++entry.count;
        entry.totalUs += order[i]->durMicros;
        entry.selfUs += std::max(0.0, self[i]);
    }
    return totals;
}

} // namespace perfbench
