#include "obs/trace_recorder.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "util/logging.hh"

namespace zatel::obs
{

/**
 * Per-thread span storage. The owning thread appends behind buffer-local
 * (uncontended) locking; exporters lock each buffer briefly to copy.
 * Buffers are owned by the recorder via shared_ptr so span data survives
 * thread exit (ThreadPool workers die with their pool).
 */
struct TraceRecorder::ThreadBuffer
{
    /** An open (begun, not yet ended) span on this thread. */
    struct OpenSpan
    {
        /** Static-storage name (hot path); null when owned is used. */
        const char *staticName = nullptr;
        std::string ownedName;
        double tsMicros = 0.0;
        int64_t arg = 0;
        bool hasArg = false;
    };

    std::mutex mutex;
    std::vector<TraceEvent> events;
    std::vector<OpenSpan> open;
    std::string name;
    uint32_t tid = 0;
};

namespace
{

/**
 * Thread-local cache: (recorder, generation) -> buffer. A tiny linear
 * vector because a thread rarely talks to more than two recorders (the
 * global one plus maybe a test instance).
 */
struct TlsEntry
{
    const TraceRecorder *recorder = nullptr;
    uint64_t generation = 0;
    std::shared_ptr<TraceRecorder::ThreadBuffer> buffer;
};

thread_local std::vector<TlsEntry> t_buffers;

/**
 * Process-wide generation source. Generations must be unique across
 * ALL recorder instances, not just within one: a test-scoped recorder
 * can be destroyed and a new one constructed at the same address, and
 * a per-recorder counter would then hand the new instance the old
 * instance's cached thread buffer.
 */
std::atomic<uint64_t> g_nextGeneration{1};

} // namespace

TraceRecorder::TraceRecorder() = default;
TraceRecorder::~TraceRecorder() = default;

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::enable()
{
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    nextTid_ = 0;
    epoch_ = std::chrono::steady_clock::now();
    everEnabled_.store(true, std::memory_order_release);
    generation_.store(
        g_nextGeneration.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_relaxed);
    // Release: epoch_/generation_ writes become visible to any thread
    // that observes enabled() == true.
    enabled_.store(true, std::memory_order_release);
}

void
TraceRecorder::disable()
{
    enabled_.store(false, std::memory_order_release);
}

double
TraceRecorder::nowMicros() const
{
    if (!everEnabled_.load(std::memory_order_acquire))
        return 0.0;
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

TraceRecorder::ThreadBuffer *
TraceRecorder::localBuffer()
{
    const uint64_t gen = generation_.load(std::memory_order_relaxed);
    for (TlsEntry &entry : t_buffers) {
        if (entry.recorder == this) {
            if (entry.generation == gen)
                return entry.buffer.get();
            // Stale (recorder was re-enabled): drop and re-register.
            entry.buffer.reset();
        }
    }
    auto buffer = std::make_shared<ThreadBuffer>();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buffer->tid = nextTid_++;
        buffers_.push_back(buffer);
    }
    // Reuse a stale slot for this recorder if one exists.
    for (TlsEntry &entry : t_buffers) {
        if (entry.recorder == this) {
            entry.generation = gen;
            entry.buffer = buffer;
            return entry.buffer.get();
        }
    }
    t_buffers.push_back({this, gen, buffer});
    return t_buffers.back().buffer.get();
}

TraceRecorder::ThreadBuffer *
TraceRecorder::findLocalBuffer() const
{
    const uint64_t gen = generation_.load(std::memory_order_relaxed);
    for (const TlsEntry &entry : t_buffers) {
        if (entry.recorder == this && entry.generation == gen)
            return entry.buffer.get();
    }
    return nullptr;
}

void
TraceRecorder::beginSpanImpl(const char *static_name,
                             std::string owned_name, int64_t arg,
                             bool has_arg)
{
    ThreadBuffer *buffer = localBuffer();
    std::lock_guard<std::mutex> lock(buffer->mutex);
    ThreadBuffer::OpenSpan span;
    span.staticName = static_name;
    span.ownedName = std::move(owned_name);
    span.tsMicros = nowMicros();
    span.arg = arg;
    span.hasArg = has_arg;
    buffer->open.push_back(std::move(span));
}

void
TraceRecorder::beginSpan(const char *name)
{
    if (!enabled())
        return;
    ZATEL_ASSERT(name != nullptr, "span name must not be null");
    beginSpanImpl(name, std::string(), 0, false);
}

void
TraceRecorder::beginSpan(std::string name)
{
    if (!enabled())
        return;
    ZATEL_ASSERT(!name.empty(), "span name must not be empty");
    beginSpanImpl(nullptr, std::move(name), 0, false);
}

void
TraceRecorder::beginSpan(const char *name, int64_t arg)
{
    if (!enabled())
        return;
    ZATEL_ASSERT(name != nullptr, "span name must not be null");
    beginSpanImpl(name, std::string(), arg, true);
}

void
TraceRecorder::endSpan()
{
    // Intentionally not gated on enabled(): a span begun before a
    // disable() must still pop so RAII scopes stay balanced.
    ThreadBuffer *buffer = findLocalBuffer();
    if (buffer == nullptr) {
        // Never recorded on this thread this generation: the matching
        // beginSpan was a disabled no-op.
        return;
    }
    std::lock_guard<std::mutex> lock(buffer->mutex);
    ZATEL_ASSERT(!buffer->open.empty(),
                 "endSpan without a matching beginSpan on this thread");
    ThreadBuffer::OpenSpan span = std::move(buffer->open.back());
    buffer->open.pop_back();

    TraceEvent event;
    event.name = span.staticName != nullptr ? std::string(span.staticName)
                                            : std::move(span.ownedName);
    event.tsMicros = span.tsMicros;
    event.durMicros = std::max(0.0, nowMicros() - span.tsMicros);
    event.tid = buffer->tid;
    event.depth = static_cast<uint32_t>(buffer->open.size());
    event.arg = span.arg;
    event.hasArg = span.hasArg;
    buffer->events.push_back(std::move(event));
}

void
TraceRecorder::setThreadName(std::string name)
{
    if (!enabled())
        return;
    ThreadBuffer *buffer = localBuffer();
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->name = std::move(name);
}

size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t count = 0;
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        count += buffer->events.size();
    }
    return count;
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            events.insert(events.end(), buffer->events.begin(),
                          buffer->events.end());
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.tsMicros != b.tsMicros)
                             return a.tsMicros < b.tsMicros;
                         return a.tid < b.tid;
                     });
    return events;
}

std::vector<std::pair<uint32_t, std::string>>
TraceRecorder::threadNames() const
{
    std::vector<std::pair<uint32_t, std::string>> names;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        if (!buffer->name.empty())
            names.emplace_back(buffer->tid, buffer->name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

namespace
{

/** Fixed-point microseconds (Chrome accepts fractional ts/dur). */
std::string
formatMicros(double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.3f", value);
    return text;
}

} // namespace

std::string
TraceRecorder::exportChromeTrace() const
{
    std::ostringstream out;
    out << "{\"traceEvents\":[\n";
    bool first = true;
    auto comma = [&first, &out]() {
        if (!first)
            out << ",\n";
        first = false;
    };

    comma();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"zatel\"}}";
    for (const auto &[tid, name] : threadNames()) {
        comma();
        out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":"
            << tid << ",\"args\":{\"name\":\"" << jsonEscaped(name)
            << "\"}}";
    }
    for (const TraceEvent &event : snapshot()) {
        comma();
        out << "{\"ph\":\"X\",\"name\":\"" << jsonEscaped(event.name)
            << "\",\"cat\":\"zatel\",\"pid\":0,\"tid\":" << event.tid
            << ",\"ts\":" << formatMicros(event.tsMicros)
            << ",\"dur\":" << formatMicros(event.durMicros);
        if (event.hasArg)
            out << ",\"args\":{\"i\":" << event.arg << "}";
        out << "}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out.str();
}

bool
TraceRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << exportChromeTrace();
    return static_cast<bool>(out);
}

} // namespace zatel::obs
