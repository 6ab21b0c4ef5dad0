/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The benchmark opens a span around every call it makes into a
 * simulator layer (runWorkload, DdgGraph construction, relax,
 * projectLattice, ...). Spans nest: each records the span that was
 * open when it started. Nothing is written while the workload runs;
 * the spans stay in memory and are dumped as JSON Lines at the end.
 *
 * A layer's self time is the summed duration of its spans minus the
 * part covered by their direct children. Where a layer times a part
 * of its own work and returns it (RunResult::simSeconds for the cycle
 * loop inside runWorkload), that part is recorded as a child span of
 * the given duration with `reported` set: its position inside the
 * parent is not known, only its length.
 *
 * A disabled Tracer reads no clock and stores nothing, so the untraced
 * run pays one branch per call site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** One timed call into a layer. */
struct Span
{
    /** "<layer>.<call>", e.g. "harness.runWorkload". */
    const char *name = "";
    /** Index + 1 of the enclosing span; 0 for a root span. */
    std::uint32_t parent = 0;
    /** Nanoseconds since the Tracer was created. */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Duration returned by the layer itself, not clocked here. */
    bool reported = false;
};

/** Aggregate of the spans sharing one name. */
struct SpanStats
{
    std::uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::uint32_t index)
            : tracer_(tracer), index_(index)
        {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::uint32_t index_;
    };

    /** Open a span named @p name (a string literal) until the
     *  returned Scope ends. */
    [[nodiscard]] Scope span(const char *name);

    /** Record a child of the innermost open span that lasted
     *  @p seconds, as timed by the layer itself. */
    void reported(const char *name, double seconds);

    /** Number of spans recorded. */
    std::size_t size() const { return spans_.size(); }

    /** Per span name over spans [@p from, @p to): how many, their
     *  summed duration and their summed self time (duration minus
     *  direct children). Children of a span in the range must be in
     *  the range too. */
    std::map<std::string, SpanStats> summary(std::size_t from,
                                             std::size_t to) const;

    /** Write every span as one JSON object per line. */
    void write(std::ostream &out) const;

  private:
    std::int64_t now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    /** Indices of the open spans, innermost last. */
    std::vector<std::uint32_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
