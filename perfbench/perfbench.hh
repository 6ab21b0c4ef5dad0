/**
 * @file
 * The benchmark's three workloads and what one pass of each measures.
 *
 * Every workload is a closed loop on one thread: each design point or
 * pipeline stage starts when the previous call returns. A run sets the
 * workload up several times (set-up time is reported as the median),
 * then runs a fixed number of whole passes of the timed phase. A pass
 * is one complete reproduction: the whole paper grid, or the whole
 * explorer pipeline.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/processor.hh"
#include "harness/runner.hh"
#include "trace.hh"

namespace perfbench
{

/** Command-line settings a workload sees. */
struct Settings
{
    /** Problem scale in percent (Workload::build). */
    unsigned scale = 0;
    /** Give the first design point a wrong expected cycle count, so
     *  that one operation fails (the benchmark's own test). */
    bool injectFailure = false;
};

/** Deterministic simulated counts, summed over one pass. */
struct Counts
{
    std::uint64_t runs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    /** Σ cycles x threads: the cycles stall reasons are charged in. */
    std::uint64_t threadCycles = 0;
    double ipcSum = 0.0;
    double suOccupancySum = 0.0;
    std::uint64_t suFullStalls = 0;
    std::uint64_t flexCommits = 0;
    std::array<std::uint64_t, sdsp::kNumStallReasons> stalls{};
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t dcacheHits = 0;
    std::uint64_t dcacheRejections = 0;
    std::uint64_t branchResolved = 0;
    std::uint64_t branchMispredicts = 0;

    std::uint64_t boundViolations = 0;
    std::uint64_t nodes = 0;
    std::uint64_t edges = 0;
    std::uint64_t relaxes = 0;
    std::uint64_t inexact = 0;

    std::uint64_t projections = 0;
    std::uint64_t frontierPoints = 0;
    std::uint64_t resims = 0;
    std::uint64_t resimCycles = 0;
    std::uint64_t pessimisticPoints = 0;
    std::uint64_t optimisticViolations = 0;
    double errMaxPct = 0.0;
    double errMeanPct = 0.0;

    /** Add one simulation's statistics. */
    void addRun(const sdsp::RunResult &run);
};

/**
 * What one pass of the timed phase measured. Per-step vectors are
 * indexed by the step (a design point, a recording, a pipeline stage),
 * not by the order the pass ran them in, so passes in different orders
 * line up.
 */
struct Pass
{
    double wallS = 0.0;
    /** CPU time of the benchmark's thread over the pass. */
    double cpuS = 0.0;
    /** The CPU the pass was pinned to (-1: not pinned). */
    int cpu = -1;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Host seconds of every timed step; they add up to the pass. */
    std::vector<double> stepS;
    /** Simulated cycles of the pass, and the host seconds that
     *  simulated them, per simulating step. */
    double simCycles = 0.0;
    std::vector<double> simS;
    /** Σ RunResult::wallSeconds. */
    double runS = 0.0;
    /** Latency of each design point. */
    std::vector<double> pointMs;
    /** Latency of each relax call, indexed by point x what-if. */
    std::vector<double> relaxMs;
    Counts counts;
};

/** One benchmark workload. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Prepare everything the timed phase needs. @p first is the run's
     *  first set-up, which fills the process-lifetime assembly cache;
     *  later ones repeat the same work on fresh objects. */
    virtual void setUp(Tracer &tracer, bool first) = 0;

    /** One complete pass, in the order @p rng draws. */
    virtual Pass pass(Tracer &tracer, std::mt19937_64 &rng) = 0;

    /** Problem scale the workload runs at. */
    virtual unsigned scale() const = 0;

    /**
     * Host seconds one pass took at the default scale when the
     * benchmark was defined (4-vCPU Xeon KVM guest). A run of S seconds
     * makes round(S / passSeconds()) passes: the count is fixed by S,
     * not by how fast the passes go, so a faster build is not measured
     * over more samples than a slower one.
     */
    virtual double passSeconds() const = 0;
};

/** The workload named @p name, or null when there is none. */
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            const Settings &settings);

/** Default problem scale of workload @p name (0 when unknown). */
unsigned defaultScale(const std::string &name);

/**
 * Run every paper-grid point once at @p scale and print the expected
 * table (index, benchmark, threads, cycles, committed) the grid
 * workloads check against.
 */
void emitExpected(unsigned scale);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
