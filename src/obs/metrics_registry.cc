#include "obs/metrics_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "util/logging.hh"

namespace zatel::obs
{

void
Gauge::add(double delta)
{
    if (!enabled_->load(std::memory_order_relaxed))
        return;
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
        // current reloaded by compare_exchange_weak.
    }
}

Histogram::Histogram(const std::atomic<bool> *enabled,
                     std::vector<double> bounds)
    : enabled_(enabled), bounds_(std::move(bounds))
{
    if (bounds_.empty())
        throw MetricsError("histogram needs at least one bucket bound");
    for (size_t i = 0; i < bounds_.size(); ++i) {
        if (std::isnan(bounds_[i]) || std::isinf(bounds_[i]))
            throw MetricsError(
                "histogram bounds must be finite (the +Inf bucket "
                "is implicit)");
        if (i > 0 && bounds_[i] <= bounds_[i - 1])
            throw MetricsError(
                "histogram bounds must be strictly increasing");
    }
    buckets_ =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i < bounds_.size() + 1; ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double value)
{
    if (!enabled_->load(std::memory_order_relaxed))
        return;
    ZATEL_ASSERT(!std::isnan(value),
                 "histogram observation must not be NaN");
    // First bucket whose upper bound is >= value (le semantics);
    // everything above the last bound lands in the implicit +Inf slot.
    const size_t idx = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double current = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
        // current reloaded by compare_exchange_weak.
    }
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> counts(bounds_.size() + 1);
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
    return counts;
}

std::vector<double>
Histogram::timeBuckets()
{
    return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
            5e-2, 1e-1,   0.25, 0.5,  1.0,    2.5,  5.0,  10.0,
            25.0, 50.0,   100.0};
}

std::vector<double>
Histogram::cycleBuckets()
{
    return {1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8,
            5e8, 1e9};
}

namespace
{

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name) {
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    }
    return true;
}

bool
validLabelName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_';
    };
    if (!head(name[0]))
        return false;
    for (char c : name) {
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    }
    return true;
}

/** Escape a Prometheus label value or HELP text. */
std::string
escapeValue(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

/** Render labels as {a="x",b="y"}; empty string for no labels. */
std::string
renderLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += key;
        out += "=\"";
        out += escapeValue(value);
        out += "\"";
    }
    out += "}";
    return out;
}

/** Shortest round-trippable-enough double rendering (%.17g is noisy;
 *  metric values tolerate %g with widened precision). */
std::string
formatDouble(double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%g", value);
    return text;
}

} // namespace

/** One (family, label set) pair with its live value object. */
struct MetricsRegistry::Series
{
    Labels labels;
    /** renderLabels(labels); the within-family identity key. */
    std::string labelKey;
    /** Exactly one of these is set, matching the family kind. */
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
};

/** All series sharing one metric name. */
struct MetricsRegistry::Family
{
    std::string name;
    std::string help;
    Kind kind = Kind::Counter;
    /** Bounds every histogram series of this family must share. */
    std::vector<double> bounds;
    std::vector<std::unique_ptr<Series>> series;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

void
MetricsRegistry::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

MetricsRegistry::Family &
MetricsRegistry::familyLocked(const std::string &name,
                              const std::string &help, Kind kind)
{
    if (!validMetricName(name))
        throw MetricsError("invalid metric name: '" + name + "'");
    for (auto &family : families_) {
        if (family->name == name) {
            if (family->kind != kind)
                throw MetricsError(
                    "metric '" + name +
                    "' already registered as a different kind");
            return *family;
        }
    }
    auto family = std::make_unique<Family>();
    family->name = name;
    family->help = help;
    family->kind = kind;
    families_.push_back(std::move(family));
    return *families_.back();
}

MetricsRegistry::Series &
MetricsRegistry::seriesLocked(Family &family, const Labels &labels)
{
    for (const auto &[key, value] : labels) {
        (void)value;
        if (!validLabelName(key))
            throw MetricsError("invalid label name '" + key +
                               "' on metric '" + family.name + "'");
    }
    const std::string labelKey = renderLabels(labels);
    for (auto &series : family.series) {
        if (series->labelKey == labelKey)
            return *series;
    }
    auto series = std::make_unique<Series>();
    series->labels = labels;
    series->labelKey = labelKey;
    family.series.push_back(std::move(series));
    return *family.series.back();
}

Counter *
MetricsRegistry::counter(const std::string &name, const std::string &help,
                         const Labels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Family &family = familyLocked(name, help, Kind::Counter);
    Series &series = seriesLocked(family, labels);
    if (!series.counter)
        series.counter.reset(new Counter(&enabled_));
    return series.counter.get();
}

Gauge *
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       const Labels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Family &family = familyLocked(name, help, Kind::Gauge);
    Series &series = seriesLocked(family, labels);
    if (!series.gauge)
        series.gauge.reset(new Gauge(&enabled_));
    return series.gauge.get();
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           std::vector<double> upperBounds,
                           const Labels &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Family &family = familyLocked(name, help, Kind::Histogram);
    if (family.series.empty()) {
        family.bounds = upperBounds;
    } else if (family.bounds != upperBounds) {
        throw MetricsError("metric '" + name +
                           "' re-registered with different buckets");
    }
    Series &series = seriesLocked(family, labels);
    if (!series.histogram)
        series.histogram.reset(
            new Histogram(&enabled_, std::move(upperBounds)));
    return series.histogram.get();
}

void
MetricsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &family : families_) {
        for (auto &series : family->series) {
            if (series->counter)
                series->counter->value_.store(0,
                                              std::memory_order_relaxed);
            if (series->gauge)
                series->gauge->value_.store(0.0,
                                            std::memory_order_relaxed);
            if (series->histogram) {
                Histogram &hist = *series->histogram;
                for (size_t i = 0; i < hist.bounds_.size() + 1; ++i)
                    hist.buckets_[i].store(0, std::memory_order_relaxed);
                hist.count_.store(0, std::memory_order_relaxed);
                hist.sum_.store(0.0, std::memory_order_relaxed);
            }
        }
    }
}

size_t
MetricsRegistry::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t count = 0;
    for (const auto &family : families_)
        count += family->series.size();
    return count;
}

namespace
{

/** Stable export order: families by name, series by label key. */
template <typename FamilyPtr>
std::vector<const typename FamilyPtr::element_type *>
sortedFamilies(const std::vector<FamilyPtr> &families)
{
    std::vector<const typename FamilyPtr::element_type *> sorted;
    sorted.reserve(families.size());
    for (const auto &family : families)
        sorted.push_back(family.get());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) { return a->name < b->name; });
    return sorted;
}

} // namespace

std::string
MetricsRegistry::prometheusText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    for (const Family *family : sortedFamilies(families_)) {
        const char *type = family->kind == Kind::Counter ? "counter"
                           : family->kind == Kind::Gauge ? "gauge"
                                                         : "histogram";
        out << "# HELP " << family->name << " "
            << escapeValue(family->help) << "\n";
        out << "# TYPE " << family->name << " " << type << "\n";

        std::vector<const Series *> series;
        series.reserve(family->series.size());
        for (const auto &entry : family->series)
            series.push_back(entry.get());
        std::sort(series.begin(), series.end(),
                  [](const Series *a, const Series *b) {
                      return a->labelKey < b->labelKey;
                  });

        for (const Series *entry : series) {
            if (family->kind == Kind::Counter) {
                out << family->name << entry->labelKey << " "
                    << entry->counter->value() << "\n";
            } else if (family->kind == Kind::Gauge) {
                out << family->name << entry->labelKey << " "
                    << formatDouble(entry->gauge->value()) << "\n";
            } else {
                const Histogram &hist = *entry->histogram;
                const auto counts = hist.bucketCounts();
                // _bucket samples are cumulative and always end with
                // the +Inf bucket equal to _count.
                uint64_t cumulative = 0;
                for (size_t i = 0; i < hist.upperBounds().size(); ++i) {
                    cumulative += counts[i];
                    Labels bucketLabels = entry->labels;
                    bucketLabels.emplace_back(
                        "le", formatDouble(hist.upperBounds()[i]));
                    out << family->name << "_bucket"
                        << renderLabels(bucketLabels) << " " << cumulative
                        << "\n";
                }
                cumulative += counts.back();
                Labels infLabels = entry->labels;
                infLabels.emplace_back("le", "+Inf");
                out << family->name << "_bucket"
                    << renderLabels(infLabels) << " " << cumulative
                    << "\n";
                out << family->name << "_sum" << entry->labelKey << " "
                    << formatDouble(hist.sum()) << "\n";
                out << family->name << "_count" << entry->labelKey << " "
                    << hist.count() << "\n";
            }
        }
    }
    return out.str();
}

std::string
MetricsRegistry::jsonText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"metrics\":[\n";
    bool firstSeries = true;
    for (const Family *family : sortedFamilies(families_)) {
        const char *kind = family->kind == Kind::Counter ? "counter"
                           : family->kind == Kind::Gauge ? "gauge"
                                                         : "histogram";
        std::vector<const Series *> series;
        series.reserve(family->series.size());
        for (const auto &entry : family->series)
            series.push_back(entry.get());
        std::sort(series.begin(), series.end(),
                  [](const Series *a, const Series *b) {
                      return a->labelKey < b->labelKey;
                  });

        for (const Series *entry : series) {
            if (!firstSeries)
                out << ",\n";
            firstSeries = false;
            out << "{\"name\":\"" << jsonEscaped(family->name)
                << "\",\"kind\":\"" << kind << "\",\"help\":\""
                << jsonEscaped(family->help) << "\",\"labels\":{";
            bool firstLabel = true;
            for (const auto &[key, value] : entry->labels) {
                if (!firstLabel)
                    out << ",";
                firstLabel = false;
                out << "\"" << jsonEscaped(key) << "\":\""
                    << jsonEscaped(value) << "\"";
            }
            out << "}";
            if (family->kind == Kind::Counter) {
                out << ",\"value\":" << entry->counter->value();
            } else if (family->kind == Kind::Gauge) {
                out << ",\"value\":"
                    << formatDouble(entry->gauge->value());
            } else {
                const Histogram &hist = *entry->histogram;
                const auto counts = hist.bucketCounts();
                out << ",\"count\":" << hist.count()
                    << ",\"sum\":" << formatDouble(hist.sum())
                    << ",\"bounds\":[";
                for (size_t i = 0; i < hist.upperBounds().size(); ++i) {
                    if (i > 0)
                        out << ",";
                    out << formatDouble(hist.upperBounds()[i]);
                }
                out << "],\"buckets\":[";
                for (size_t i = 0; i < counts.size(); ++i) {
                    if (i > 0)
                        out << ",";
                    out << counts[i];
                }
                out << "]";
            }
            out << "}";
        }
    }
    out << "\n]}\n";
    return out.str();
}

bool
MetricsRegistry::writeTo(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    out << (json ? jsonText() : prometheusText());
    return static_cast<bool>(out);
}

} // namespace zatel::obs
