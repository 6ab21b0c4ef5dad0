#include "trace.hh"

#include "common/json.hh"

namespace perfbench
{

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

Tracer::Scope
Tracer::span(const char *name)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    Span span;
    span.name = name;
    span.parent = open_.empty() ? 0 : open_.back() + 1;
    span.startNs = now();
    spans_.push_back(span);
    auto index = static_cast<std::uint32_t>(spans_.size() - 1);
    open_.push_back(index);
    return Scope(this, index);
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].endNs = tracer_->now();
    tracer_->open_.pop_back();
}

void
Tracer::reported(const char *name, double seconds)
{
    if (!enabled_ || open_.empty())
        return;
    Span span;
    span.name = name;
    span.parent = open_.back() + 1;
    span.startNs = spans_[open_.back()].startNs;
    span.endNs = span.startNs + static_cast<std::int64_t>(seconds * 1e9);
    span.reported = true;
    spans_.push_back(span);
}

std::map<std::string, SpanStats>
Tracer::summary(std::size_t from, std::size_t to) const
{
    std::vector<std::int64_t> self(to - from);
    for (std::size_t i = from; i < to; ++i) {
        std::int64_t duration = spans_[i].endNs - spans_[i].startNs;
        self[i - from] += duration;
        if (spans_[i].parent > from)
            self[spans_[i].parent - 1 - from] -= duration;
    }
    std::map<std::string, SpanStats> stats;
    for (std::size_t i = from; i < to; ++i) {
        SpanStats &entry = stats[spans_[i].name];
        ++entry.count;
        entry.totalS +=
            static_cast<double>(spans_[i].endNs - spans_[i].startNs) *
            1e-9;
        entry.selfS += static_cast<double>(self[i - from]) * 1e-9;
    }
    return stats;
}

void
Tracer::write(std::ostream &out) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        sdsp::JsonWriter w;
        w.beginObject()
            .field("id", static_cast<std::uint64_t>(i + 1))
            .field("parent", static_cast<std::uint64_t>(span.parent))
            .field("name", span.name)
            .field("start_ns", static_cast<std::int64_t>(span.startNs))
            .field("end_ns", static_cast<std::int64_t>(span.endNs))
            .field("reported", span.reported)
            .endObject();
        out << w.str() << '\n';
    }
}

} // namespace perfbench
