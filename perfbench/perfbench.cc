/**
 * @file
 * The repository benchmark program.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--scale PCT] [--revision TEXT] [--trace-out FILE]
 *               [--inject-failure]
 *     perfbench --emit-expected PCT
 *
 * Sets the workload up several times, then runs the whole passes of its
 * timed phase that fit S seconds at the workload's nominal pass time.
 * The last line of standard output is the result: {"correct",
 * "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
 * end-to-end ones; with --trace 1 an untraced phase is followed by a
 * traced one, each given S/2 seconds, and the metrics are the per-layer
 * ones, including the tracing overhead. The line before it is the run
 * manifest. See README.md in this directory.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "perfbench.hh"

extern char **environ;

using namespace perfbench;
using sdsp::JsonWriter;

namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetUps = 21;

/** A phase starts no pass after this many times its nominal length,
 *  so that a much slower build still ends within the run's limits. */
constexpr double kPhaseCap = 2.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Settings settings;
    std::string revision = "unknown";
    std::string traceOut;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** Nearest-rank percentile @p p (0..1) of @p values. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::max<std::size_t>(rank, 1) - 1];
}

/** The 1-, 5- and 15-minute load averages. */
std::vector<double>
loadAverage()
{
    std::vector<double> loads(3, 0.0);
    std::ifstream file("/proc/loadavg");
    for (double &load : loads)
        file >> load;
    return loads;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * The sweep engine reads SDSP_BENCH_FAULT, _TIMEOUT, _RETRIES, _BATCH,
 * _JOBS and friends from the environment (validateFrontier's runner
 * among them). A stray one would inject faults or budgets into the
 * measurement, so the benchmark refuses to run instead.
 */
void
refuseSweepEnvironment()
{
    for (char **entry = environ; *entry; ++entry) {
        if (std::strncmp(*entry, "SDSP_BENCH_", 11) == 0) {
            std::string name(*entry, std::strcspn(*entry, "="));
            std::fprintf(stderr,
                         "perfbench: refusing to run: %s is set; the "
                         "benchmark pins the sweep engine to one "
                         "worker with no faults, budgets, retries or "
                         "batching. Unset every SDSP_BENCH_* "
                         "variable.\n",
                         name.c_str());
            std::exit(2);
        }
    }
}

int
usage(int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: perfbench --workload paper_grid|critpath_grid|"
        "whatif_lattice --seed N --seconds S --trace 0|1\n"
        "                 [--scale PCT] [--revision TEXT] "
        "[--trace-out FILE]\n"
        "                 [--inject-failure]\n"
        "       perfbench --emit-expected PCT\n");
    return code;
}

/** The passes of a phase of @p seconds: at least one. */
std::size_t
passCount(const BenchWorkload &workload, double seconds)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(seconds / workload.passSeconds())));
}

/**
 * Pins the calling thread to one CPU of the set it may run on, in turn,
 * and restores that set when destroyed.
 *
 * On a virtual machine whose vCPUs share physical cores with other
 * tenants, one vCPU can run the program half as fast as another for
 * minutes, and the guest keeps a lone busy thread on the same vCPU. A
 * run that stays where it started measures that vCPU's neighbours.
 * Running successive passes on different CPUs lets each step's fastest
 * time (bestSamples) come from whichever CPU was least disturbed.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the CPU for pass @p pass; returns it, or -1 when the
     *  thread cannot be pinned. */
    int
    pin(std::size_t pass)
    {
        if (cpus_.empty())
            return -1;
        int cpu = cpus_[pass % cpus_.size()];
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
};

/**
 * passCount(@p seconds) passes of the timed phase, in orders drawn from
 * @p seed, each on the next CPU in turn. Only when a pass would start
 * after kPhaseCap x @p seconds are the remaining passes dropped.
 */
std::vector<Pass>
timedPhase(BenchWorkload &workload, Tracer &tracer, std::uint64_t seed,
           double seconds)
{
    std::mt19937_64 rng(seed);
    const std::size_t count = passCount(workload, seconds);
    CpuRotation rotation;
    std::vector<Pass> passes;
    auto start = std::chrono::steady_clock::now();
    do {
        int cpu = rotation.pin(passes.size());
        timespec cpu_start{}, cpu_end{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu_start);
        passes.push_back(workload.pass(tracer, rng));
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu_end);
        passes.back().cpu = cpu;
        passes.back().cpuS =
            static_cast<double>(cpu_end.tv_sec - cpu_start.tv_sec) +
            static_cast<double>(cpu_end.tv_nsec - cpu_start.tv_nsec) *
                1e-9;
    } while (passes.size() < count &&
             std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
                     .count() < kPhaseCap * seconds);
    return passes;
}

/** Metrics in output order: name, value, unit. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        writer_.key(name)
            .beginObject()
            .field("value", value)
            .field("unit", unit)
            .endObject();
    }

    JsonWriter &writer() { return writer_; }

  private:
    JsonWriter writer_;
};

/**
 * Each step's fastest time over @p passes (steps a pass did not take,
 * left at 0, are skipped). The number of passes is fixed by the run's
 * seconds, so the minimum is over as many samples whatever the speed.
 *
 * Passes are repeated because a host shared with other tenants can slow
 * the program by up to half for seconds to minutes at a time, through
 * contention for cores and caches (on a 4-vCPU KVM guest the
 * benchmark's CPU time rose with its wall time, so it was not
 * descheduling). Each step's fastest time over the run measures the
 * program rather than its neighbours, and is steadier run to run than
 * any whole pass. Every pass's wall time is kept in the manifest.
 */
std::vector<double>
bestSamples(const std::vector<Pass> &passes,
            std::vector<double> Pass::*samples)
{
    std::vector<double> best;
    for (const Pass &pass : passes) {
        const std::vector<double> &values = pass.*samples;
        best.resize(std::max(best.size(), values.size()), 0.0);
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] > 0.0 && (best[i] == 0.0 || values[i] < best[i]))
                best[i] = values[i];
        }
    }
    std::erase(best, 0.0);
    return best;
}

/** The time to run one pass with every step at its fastest. */
double
bestWall(const std::vector<Pass> &passes)
{
    std::vector<double> steps = bestSamples(passes, &Pass::stepS);
    return std::accumulate(steps.begin(), steps.end(), 0.0);
}

/** The end-to-end metrics of an untraced phase. */
void
endToEnd(Metrics &metrics, const std::vector<Pass> &passes,
         double setup_s)
{
    std::vector<double> sim_s = bestSamples(passes, &Pass::simS);
    double sim_total = std::accumulate(sim_s.begin(), sim_s.end(), 0.0);
    double rate =
        sim_total > 0.0 ? passes.front().simCycles / sim_total / 1e6 : 0.0;
    std::vector<double> point_ms = bestSamples(passes, &Pass::pointMs);
    metrics.add("setup_s", setup_s, "s");
    metrics.add("wall_s", bestWall(passes), "s");
    metrics.add("sim_mcycles_per_s", rate, "MSimCycles/s");
    metrics.add("point_ms_p50", percentile(point_ms, 0.50), "ms");
    metrics.add("point_ms_p95", percentile(point_ms, 0.95), "ms");
    metrics.add("peak_rss_mb", peakRssMb(), "MB");
}

/** The per-layer metrics of a traced run. */
void
perLayer(Metrics &metrics, const std::vector<Pass> &untraced,
         const std::vector<Pass> &traced, const Tracer &tracer,
         std::size_t setup_spans, std::uint64_t attempted,
         std::uint64_t failed)
{
    const double n = static_cast<double>(traced.size());
    auto setup = tracer.summary(0, setup_spans);
    auto timed = tracer.summary(setup_spans, tracer.size());
    auto total = [&](const char *name) { return timed[name].totalS / n; };
    auto self = [&](const char *name) { return timed[name].selfS / n; };
    // Deterministic counts are those of one pass; every pass repeats
    // the same work.
    const Counts &c = traced.front().counts;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto count = [](std::uint64_t value) {
        return static_cast<double>(value);
    };

    const double core_s = total("core.simulate");
    double run_s = 0.0;
    for (const Pass &pass : traced)
        run_s += pass.runS / n;
    metrics.add("core.sim_s", core_s, "s");
    metrics.add("core.ns_per_cycle", ratio(core_s * 1e9, count(c.cycles)),
                "ns");
    metrics.add("core.ns_per_inst",
                ratio(core_s * 1e9, count(c.committed)), "ns");
    metrics.add("core.cycles", count(c.cycles), "count");
    metrics.add("core.committed", count(c.committed), "count");
    metrics.add("core.ipc_mean", ratio(c.ipcSum, count(c.runs)), "IPC");
    metrics.add("core.su_occupancy_mean",
                ratio(c.suOccupancySum, count(c.runs)), "entries");
    metrics.add("core.su_full_stalls", count(c.suFullStalls), "count");
    metrics.add("core.flex_commits", count(c.flexCommits), "count");
    for (unsigned r = 0; r < sdsp::kNumStallReasons; ++r) {
        metrics.add(std::string("core.stall.") +
                        sdsp::stallReasonName(
                            static_cast<sdsp::StallReason>(r)) +
                        "_frac",
                    ratio(count(c.stalls[r]), count(c.threadCycles)),
                    "fraction");
    }

    metrics.add("memory.dcache_accesses", count(c.dcacheAccesses),
                "count");
    metrics.add("memory.dcache_hit_rate",
                ratio(count(c.dcacheHits), count(c.dcacheAccesses)),
                "fraction");
    metrics.add("memory.dcache_rejections", count(c.dcacheRejections),
                "count");
    metrics.add("branch.lookups", count(c.branchResolved), "count");
    metrics.add("branch.accuracy",
                c.branchResolved
                    ? 1.0 - ratio(count(c.branchMispredicts),
                                  count(c.branchResolved))
                    : 0.0,
                "fraction");

    metrics.add("harness.run_s", run_s, "s");
    metrics.add("harness.nonsim_s", self("harness.runWorkload"), "s");
    metrics.add("harness.resim_s", total("harness.validateFrontier"),
                "s");

    metrics.add("workloads.build_s",
                setup["workloads.build"].totalS / kSetUps, "s");
    metrics.add("workloads.builds",
                count(setup["workloads.build"].count / kSetUps), "count");
    metrics.add("analysis.bound_s",
                setup["analysis.dependence"].totalS / kSetUps, "s");
    metrics.add("analysis.bound_violations", count(c.boundViolations),
                "count");

    std::vector<double> relax_ms = bestSamples(untraced, &Pass::relaxMs);
    metrics.add("critpath.build_s", total("critpath.DdgGraph"), "s");
    metrics.add("critpath.verify_s", total("critpath.verifyExact"), "s");
    metrics.add("critpath.nodes", count(c.nodes), "count");
    metrics.add("critpath.edges", count(c.edges), "count");
    metrics.add("critpath.relax_s", total("critpath.relax"), "s");
    metrics.add("critpath.relaxes", count(c.relaxes), "count");
    metrics.add("critpath.relax_ms_p50", percentile(relax_ms, 0.50),
                "ms");
    metrics.add("critpath.relax_ms_p99", percentile(relax_ms, 0.99),
                "ms");
    metrics.add("critpath.inexact", count(c.inexact), "count");

    double project_s = total("explore.projectLattice");
    metrics.add("explore.record_s", total("explore.recordBaseline"), "s");
    metrics.add("explore.project_s", project_s, "s");
    metrics.add("explore.projections_per_s",
                ratio(count(c.projections), project_s), "1/s");
    metrics.add("explore.frontier_s", total("explore.paretoFrontier"),
                "s");
    metrics.add("explore.frontier_points", count(c.frontierPoints),
                "count");
    metrics.add("explore.resims", count(c.resims), "count");
    metrics.add("explore.pessimistic_points", count(c.pessimisticPoints),
                "count");
    metrics.add("explore.optimistic_violations",
                count(c.optimisticViolations), "count");
    metrics.add("explore.projection_err_max_pct", c.errMaxPct, "%");
    metrics.add("explore.projection_err_mean_pct", c.errMeanPct, "%");

    double traced_wall = bestWall(traced);
    metrics.add("perfbench.self_s",
                self("perfbench.pass") + self("perfbench.point"), "s");
    metrics.add("trace.wall_s", traced_wall, "s");
    metrics.add("trace.overhead_s", traced_wall - bestWall(untraced),
                "s");
    metrics.add("trace.spans",
                count(timed.empty() ? 0
                                    : (tracer.size() - setup_spans) /
                                          traced.size()),
                "count");
    metrics.add("ops_failed_frac",
                ratio(count(failed), count(attempted)), "fraction");
}

void
printManifest(const Options &options, unsigned scale,
              const std::vector<double> &load_before,
              const std::vector<Pass> &passes)
{
    JsonWriter w;
    w.beginObject().key("manifest").beginObject();
    w.field("workload", options.workload);
    w.field("seed", options.seed);
    w.field("scale_pct", scale);
    w.field("seconds", options.seconds);
    w.field("trace", options.trace);
    w.key("pass_wall_s").beginArray();
    for (const Pass &pass : passes)
        w.value(pass.wallS);
    w.endArray();
    w.key("pass_cpu_s").beginArray();
    for (const Pass &pass : passes)
        w.value(pass.cpuS);
    w.endArray();
    w.key("pass_on_cpu").beginArray();
    for (const Pass &pass : passes)
        w.value(static_cast<std::int64_t>(pass.cpu));
    w.endArray();
    w.field("set_ups", kSetUps);
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("ipo_lto", PERFBENCH_IPO);
#ifdef NDEBUG
    w.field("assert", "off (NDEBUG)");
#else
    w.field("assert", "on");
#endif
    w.field("sdsp_assert", "on");
    w.field("compiler", PERFBENCH_COMPILER);
    w.field("cxx_flags", PERFBENCH_CXX_FLAGS);
    w.field("revision", options.revision);
    w.field("nproc", static_cast<std::int64_t>(
                         sysconf(_SC_NPROCESSORS_ONLN)));
    w.key("load_before").beginArray();
    for (double load : load_before)
        w.value(load);
    w.endArray();
    w.key("load_after").beginArray();
    for (double load : loadAverage())
        w.value(load);
    w.endArray();
    w.endObject().endObject();
    std::printf("%s\n", w.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                fatal("perfbench: %s needs a value", arg.c_str());
            return argv[i];
        };
        auto number = [&](double lo, double hi) {
            std::string text = value();
            char *end = nullptr;
            double parsed = std::strtod(text.c_str(), &end);
            if (text.empty() || *end || !(parsed >= lo && parsed <= hi))
                fatal("perfbench: bad %s value: %s", arg.c_str(),
                      text.c_str());
            return parsed;
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed =
                static_cast<std::uint64_t>(number(0, 9.0e15));
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds = number(0, 3600);
            have_seconds = true;
        } else if (arg == "--trace") {
            options.trace = number(0, 1) != 0.0;
            have_trace = true;
        } else if (arg == "--scale") {
            options.settings.scale =
                static_cast<unsigned>(number(1, 1000));
        } else if (arg == "--revision") {
            options.revision = value();
        } else if (arg == "--trace-out") {
            options.traceOut = value();
        } else if (arg == "--inject-failure") {
            options.settings.injectFailure = true;
        } else if (arg == "--emit-expected") {
            refuseSweepEnvironment();
            emitExpected(static_cast<unsigned>(number(1, 1000)));
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            return usage(0);
        } else {
            std::fprintf(stderr, "perfbench: unknown option %s\n",
                         arg.c_str());
            return usage(2);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage(2);
    refuseSweepEnvironment();

    if (!options.settings.scale)
        options.settings.scale = defaultScale(options.workload);
    std::unique_ptr<BenchWorkload> workload =
        makeWorkload(options.workload, options.settings);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     options.workload.c_str());
        return usage(2);
    }

    std::vector<double> load_before = loadAverage();
    Tracer tracer(options.trace);
    Tracer untraced_tracer(false);

    // Set-ups move between CPUs like passes, so that their median is
    // not that of one disturbed CPU.
    std::vector<double> setups;
    {
        CpuRotation rotation;
        for (unsigned s = 0; s < kSetUps; ++s) {
            rotation.pin(s);
            auto start = std::chrono::steady_clock::now();
            workload->setUp(tracer, s == 0);
            setups.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
        }
    }
    const std::size_t setup_spans = tracer.size();

    // A traced run splits its seconds between the two phases.
    const double phase_s =
        options.trace ? options.seconds / 2.0 : options.seconds;
    std::vector<Pass> untraced =
        timedPhase(*workload, untraced_tracer, options.seed, phase_s);
    std::vector<Pass> traced;
    if (options.trace)
        traced = timedPhase(*workload, tracer, options.seed, phase_s);

    std::uint64_t attempted = 0, failed = 0;
    for (const auto *phase : {&untraced, &traced}) {
        for (const Pass &pass : *phase) {
            attempted += pass.attempted;
            failed += pass.failed;
        }
    }

    Metrics metrics;
    metrics.writer().beginObject();
    if (options.trace)
        perLayer(metrics, untraced, traced, tracer, setup_spans,
                 attempted, failed);
    else
        endToEnd(metrics, untraced, median(setups));
    metrics.writer().endObject();

    if (options.trace && !options.traceOut.empty()) {
        std::ofstream out(options.traceOut);
        if (!out)
            fatal("perfbench: cannot write %s",
                  options.traceOut.c_str());
        tracer.write(out);
    }

    printManifest(options, workload->scale(), load_before, untraced);
    JsonWriter result;
    result.beginObject()
        .field("correct", failed == 0)
        .field("attempted", attempted)
        .field("failed", failed)
        .key("metrics")
        .rawValue(metrics.writer().str())
        .endObject();
    std::printf("%s\n", result.str().c_str());
    return 0;
}
