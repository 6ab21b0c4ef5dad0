/**
 * @file
 * paper_grid, critpath_grid and whatif_lattice.
 *
 * paper_grid runs every buildPaperGrid() point through runWorkload with
 * no sink: the paper's whole evaluation, nearly all of it the cycle
 * loop, across every machine variant the paper sweeps.
 *
 * critpath_grid runs the same points with a DdgRecorder attached, then
 * builds each DdgGraph, checks verifyExact and relaxes the six what-ifs
 * of sdsp_bench_critpath: the same core with recording on, plus graph
 * construction over 253 differently shaped graphs.
 *
 * whatif_lattice is the sdsp-explore pipeline: three recorded
 * baselines, the full 3456-point lattice projected through relax, the
 * Pareto frontier, and its re-simulation through validateFrontier.
 * Relax dominates it and the core does little.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "analysis/cfg.hh"
#include "analysis/ilp.hh"
#include "bench_util.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "critpath/ddg.hh"
#include "explore/explore.hh"
#include "perfbench.hh"

using namespace sdsp;
using namespace sdsp::bench;

namespace perfbench
{

namespace
{

/** The problem scale bench/golden/ holds the grid's cycle counts for. */
constexpr unsigned kGoldenScale = 25;

/** At most this many failure lines per run go to stderr. */
constexpr unsigned kMaxFailureReports = 20;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
reportFailure(unsigned &reported, const std::string &what)
{
    if (reported++ < kMaxFailureReports)
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

std::vector<std::size_t>
permutation(std::size_t n, std::mt19937_64 &rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

/** Expected simulated result of one paper-grid point. */
struct Expected
{
    std::string benchmark;
    unsigned threads = 0;
    Cycle cycles = 0;
    std::uint64_t committed = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("perfbench: cannot read %s", path.c_str());
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

/** The scale-25 golden grid that CI diffs sdsp_bench_all against. */
std::vector<Expected>
loadGolden(const std::string &path)
{
    std::string error;
    std::optional<JsonValue> doc = parseJson(readFile(path), &error);
    const JsonValue *runs = doc ? doc->find("runs") : nullptr;
    if (!runs || !runs->isArray())
        fatal("perfbench: %s: no runs array %s", path.c_str(),
              error.c_str());
    std::vector<Expected> table;
    for (const JsonValue &run : runs->items()) {
        const JsonValue *benchmark = run.find("benchmark");
        const JsonValue *threads = run.find("threads");
        const JsonValue *cycles = run.find("cycles");
        const JsonValue *committed = run.find("committed");
        if (!benchmark || !threads || !cycles || !committed)
            fatal("perfbench: %s: incomplete run entry", path.c_str());
        table.push_back({benchmark->asString(),
                         static_cast<unsigned>(
                             threads->toUint64().value_or(0)),
                         cycles->toUint64().value_or(0),
                         committed->toUint64().value_or(0)});
    }
    return table;
}

/** A table written by emitExpected(). */
std::vector<Expected>
loadTable(const std::string &path)
{
    std::istringstream lines(readFile(path));
    std::vector<Expected> table;
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::size_t index = 0;
        Expected row;
        if (!(fields >> index >> row.benchmark >> row.threads >>
              row.cycles >> row.committed) ||
            index != table.size())
            fatal("perfbench: %s: bad line '%s'", path.c_str(),
                  line.c_str());
        table.push_back(row);
    }
    return table;
}

/** Expected results for every point of @p grid at @p scale. */
std::vector<Expected>
loadExpected(const PaperGrid &grid, unsigned scale)
{
    std::vector<Expected> table =
        scale == kGoldenScale
            ? loadGolden(SDSP_REPO_ROOT
                         "/bench/golden/sdsp_bench_all_scale25.json")
            : loadTable(std::string(PERFBENCH_SOURCE_DIR) +
                        "/expected/grid_scale" +
                        std::to_string(scale) + ".tsv");
    if (table.size() != grid.points.size())
        fatal("perfbench: expected table for scale %u has %zu points, "
              "the paper grid has %zu",
              scale, table.size(), grid.points.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        const PaperGridPoint &point = grid.points[i];
        if (table[i].benchmark != point.workload->name() ||
            table[i].threads != point.config.numThreads)
            fatal("perfbench: expected table for scale %u point %zu is "
                  "%s/%ut, the grid has %s/%ut",
                  scale, i, table[i].benchmark.c_str(),
                  table[i].threads, point.workload->name().c_str(),
                  point.config.numThreads);
    }
    return table;
}

/** The six what-ifs sdsp_bench_critpath projects from every run. */
std::vector<WhatIf>
critpathWhatIfs()
{
    std::vector<WhatIf> what_ifs;
    for (const char *spec :
         {"issueWidth=16", "suEntries=64", "perfectDCache=1",
          "infiniteStoreBuffer=1", "bypassing=0",
          "issueWidth=16,suEntries=64"}) {
        WhatIf what_if;
        std::istringstream clauses(spec);
        std::string clause, error;
        while (std::getline(clauses, clause, ',')) {
            if (!what_if.applyKeyValue(clause, &error))
                fatal("perfbench: what-if %s: %s", spec,
                      error.c_str());
        }
        what_ifs.push_back(what_if);
    }
    return what_ifs;
}

/** paper_grid (no sink) and critpath_grid (DdgRecorder attached). */
class GridWorkload : public BenchWorkload
{
  public:
    GridWorkload(bool record, const Settings &settings)
        : record_(record), settings_(settings),
          grid_(buildPaperGrid()),
          expected_(loadExpected(grid_, settings.scale)),
          whatIfs_(critpathWhatIfs())
    {
        if (settings.injectFailure)
            ++expected_.front().cycles;
    }

    unsigned scale() const override { return settings_.scale; }

    double passSeconds() const override { return record_ ? 1.75 : 1.5; }

    void
    setUp(Tracer &tracer, bool first) override
    {
        // Assemble every (benchmark, threads) image once. The first
        // set-up fills the cachedWorkload cache the timed phase reads
        // from; later set-ups assemble the same images afresh.
        std::map<std::pair<std::string, unsigned>, WorkloadImage> images;
        for (const PaperGridPoint &point : grid_.points) {
            auto key = std::make_pair(point.workload->name(),
                                      point.config.numThreads);
            if (images.count(key))
                continue;
            auto span = tracer.span("workloads.build");
            const Workload &source =
                first ? *point.workload : workloadByName(key.first);
            images.emplace(key, source.build(key.second, scale()));
        }

        // Static IPC ceilings: the dependence summary depends on the
        // program and the FU latencies only, the bound on the shape.
        std::map<std::string, DependenceSummary> summaries;
        bounds_.clear();
        for (const PaperGridPoint &point : grid_.points) {
            const MachineConfig &config = point.config;
            std::string key = point.workload->name() + "/" +
                              std::to_string(config.numThreads);
            for (unsigned latency : config.fu.latency)
                key += "," + std::to_string(latency);
            auto it = summaries.find(key);
            if (it == summaries.end()) {
                auto span = tracer.span("analysis.dependence");
                const WorkloadImage &image = images.at(
                    {point.workload->name(), config.numThreads});
                DependenceSummary summary = analyzeDependence(
                    Cfg::build(image.program),
                    LatencyModel::fromLatencies(config.fu.latency));
                it = summaries.emplace(key, std::move(summary)).first;
            }
            IpcBoundInputs inputs;
            inputs.numThreads = config.numThreads;
            inputs.blockSize = config.blockSize;
            inputs.issueWidth = config.issueWidth;
            bounds_.push_back(staticIpcBound(it->second, inputs));
        }
    }

    Pass
    pass(Tracer &tracer, std::mt19937_64 &rng) override
    {
        Pass pass;
        pass.stepS.resize(grid_.points.size());
        pass.simS.resize(grid_.points.size());
        pass.pointMs.resize(grid_.points.size());
        if (record_)
            pass.relaxMs.resize(grid_.points.size() * whatIfs_.size());
        auto pass_start = std::chrono::steady_clock::now();
        auto pass_span = tracer.span("perfbench.pass");
        for (std::size_t index : permutation(grid_.points.size(), rng)) {
            ++pass.attempted;
            if (!runPoint(tracer, index, pass))
                ++pass.failed;
        }
        pass.wallS = secondsSince(pass_start);
        return pass;
    }

  private:
    /** One design point; false when any check fails. */
    bool
    runPoint(Tracer &tracer, std::size_t index, Pass &pass)
    {
        const PaperGridPoint &point = grid_.points[index];
        auto start = std::chrono::steady_clock::now();
        auto point_span = tracer.span("perfbench.point");
        bool point_timed = false;
        auto endPoint = [&] {
            if (!point_timed)
                pass.pointMs[index] = secondsSince(start) * 1e3;
            point_timed = true;
        };
        bool ok = true;
        try {
            std::unique_ptr<DdgRecorder> recorder;
            if (record_)
                recorder = std::make_unique<DdgRecorder>();
            RunResult run;
            {
                auto span = tracer.span("harness.runWorkload");
                run = runWorkload(*point.workload, point.config,
                                  scale(), recorder.get());
                tracer.reported("core.simulate", run.simSeconds);
            }
            pass.counts.addRun(run);
            pass.simCycles += static_cast<double>(run.cycles);
            pass.simS[index] = run.simSeconds;
            pass.runS += run.wallSeconds;
            ok = checkRun(index, run, pass.counts);

            if (record_ && run.finished) {
                std::unique_ptr<DdgGraph> graph;
                {
                    auto span = tracer.span("critpath.DdgGraph");
                    graph = std::make_unique<DdgGraph>(
                        recorder->trace(), point.config, run.cycles);
                }
                recorder.reset();
                std::string mismatch;
                {
                    auto span = tracer.span("critpath.verifyExact");
                    mismatch = graph->verifyExact();
                }
                pass.counts.nodes += graph->nodeCount();
                pass.counts.edges += graph->edgeCount();
                if (!mismatch.empty()) {
                    ++pass.counts.inexact;
                    reportFailure(failures_,
                                  describe(index) + ": inexact DDG: " +
                                      mismatch);
                    ok = false;
                }
                endPoint();
                for (std::size_t w = 0; w < whatIfs_.size(); ++w) {
                    auto relax_start = std::chrono::steady_clock::now();
                    auto span = tracer.span("critpath.relax");
                    graph->relax(whatIfs_[w]);
                    pass.relaxMs[index * whatIfs_.size() + w] =
                        secondsSince(relax_start) * 1e3;
                    ++pass.counts.relaxes;
                }
            }
        } catch (const std::exception &error) {
            reportFailure(failures_,
                          describe(index) + ": threw: " + error.what());
            ok = false;
        }
        endPoint();
        pass.stepS[index] = secondsSince(start);
        return ok;
    }

    /** "LL1 (<config>)", for failure reports. */
    std::string
    describe(std::size_t index) const
    {
        const PaperGridPoint &point = grid_.points[index];
        return point.workload->name() + " (" + point.config.toString() +
               ")";
    }

    bool
    checkRun(std::size_t index, const RunResult &run, Counts &counts)
    {
        if (!run.finished || !run.verified) {
            reportFailure(failures_,
                          describe(index) + ": " +
                              (run.finished ? "verification: "
                                            : "did not finish: ") +
                              run.verifyMessage);
            return false;
        }
        const Expected &expected = expected_[index];
        if (run.cycles != expected.cycles ||
            run.committed != expected.committed) {
            reportFailure(
                failures_,
                format("%s: %llu cycles / %llu committed, expected "
                       "%llu / %llu",
                       describe(index).c_str(),
                       static_cast<unsigned long long>(run.cycles),
                       static_cast<unsigned long long>(run.committed),
                       static_cast<unsigned long long>(expected.cycles),
                       static_cast<unsigned long long>(
                           expected.committed)));
            return false;
        }
        // The same check sdsp_bench_all applies: a verified run may
        // not out-commit its static dependence bound.
        double limit = bounds_[index].boundAtCycles(run.cycles) *
                       static_cast<double>(run.cycles);
        if (static_cast<double>(run.committed) > limit * (1.0 + 1e-9)) {
            ++counts.boundViolations;
            reportFailure(failures_,
                          describe(index) +
                              ": breaks its static IPC bound");
            return false;
        }
        return true;
    }

    bool record_;
    Settings settings_;
    PaperGrid grid_;
    std::vector<Expected> expected_;
    std::vector<WhatIf> whatIfs_;
    std::vector<StaticIpcBound> bounds_;
    unsigned failures_ = 0;
};

/** The sdsp-explore pipeline over the full lattice. */
class LatticeWorkload : public BenchWorkload
{
  public:
    explicit LatticeWorkload(const Settings &settings)
        : settings_(settings), base_(paperConfig(4))
    {
        // The recordings sdsp_bench_explore uses.
        for (const char *name : {"LL1", "LL5", "Sieve"})
            sources_.push_back(&workloadByName(name));
    }

    unsigned scale() const override { return settings_.scale; }

    double passSeconds() const override { return 1.75; }

    void
    setUp(Tracer &tracer, bool first) override
    {
        for (const Workload *source : sources_) {
            auto span = tracer.span("workloads.build");
            const Workload &builder =
                first ? cachedWorkload(*source) : *source;
            builder.build(base_.numThreads, scale());
        }
        auto span = tracer.span("explore.buildLattice");
        lattice_ = buildLattice(LatticeAxes::full(), base_);
    }

    Pass
    pass(Tracer &tracer, std::mt19937_64 &rng) override
    {
        // Steps: the recordings, the lattice points, the frontier cut,
        // then the frontier points' re-simulations.
        const std::size_t R = sources_.size(), P = lattice_.size();
        Pass pass;
        pass.stepS.resize(R + P + 1);
        pass.pointMs.resize(P);
        auto pass_start = std::chrono::steady_clock::now();
        auto pass_span = tracer.span("perfbench.pass");

        std::vector<ExploreRecording> recordings;
        for (std::size_t r : permutation(R, rng)) {
            ++pass.attempted;
            ExploreRecording recording;
            {
                auto start = std::chrono::steady_clock::now();
                auto span = tracer.span("explore.recordBaseline");
                recording = recordBaseline(cachedWorkload(*sources_[r]),
                                           base_, scale());
                pass.stepS[r] = secondsSince(start);
            }
            pass.counts.cycles += recording.measured;
            pass.counts.committed += recording.committed;
            if (recording.graph) {
                pass.counts.nodes += recording.graph->nodeCount();
                pass.counts.edges += recording.graph->edgeCount();
            }
            if (!recording.error.empty()) {
                ++pass.failed;
                if (recording.error.rfind("inexact", 0) == 0)
                    ++pass.counts.inexact;
                reportFailure(failures_, sources_[r]->name() + ": " +
                                             recording.error);
            }
            recordings.push_back(std::move(recording));
        }
        if (pass.failed) {
            pass.wallS = secondsSince(pass_start);
            return pass;
        }

        // One projectLattice call per lattice point, so that each
        // point's projection is a latency sample; points are
        // independent, so the result equals one call over all.
        std::vector<LatticePoint> points = lattice_;
        std::vector<LatticePoint> one(1);
        for (std::size_t i : permutation(P, rng)) {
            auto start = std::chrono::steady_clock::now();
            auto span = tracer.span("explore.projectLattice");
            one[0] = std::move(points[i]);
            projectLattice(one, recordings, 1);
            points[i] = std::move(one[0]);
            pass.stepS[R + i] = secondsSince(start);
            pass.pointMs[i] = pass.stepS[R + i] * 1e3;
        }
        pass.counts.projections = points.size();
        pass.counts.relaxes = points.size() * recordings.size();
        for (const LatticePoint &point : points) {
            if (point.confidence == Confidence::PessimisticBound)
                ++pass.counts.pessimisticPoints;
        }

        std::vector<std::size_t> frontier;
        {
            auto start = std::chrono::steady_clock::now();
            auto span = tracer.span("explore.paretoFrontier");
            frontier = paretoFrontier(points);
            pass.stepS[R + P] = secondsSince(start);
        }
        pass.counts.frontierPoints = frontier.size();

        // One validateFrontier call per frontier point, so that each
        // re-simulated point is a step of its own; points validate
        // independently, so the result equals one call over all.
        const std::size_t F = frontier.size();
        pass.stepS.resize(R + P + 1 + F);
        pass.simS.resize(F);
        std::vector<FrontierValidation> validations(F);
        for (std::size_t f : permutation(F, rng)) {
            auto start = std::chrono::steady_clock::now();
            auto span = tracer.span("harness.validateFrontier");
            validations[f] = validateFrontier(points, {frontier[f]},
                                              recordings, base_, scale(), 1)
                                 .front();
            pass.stepS[R + P + 1 + f] = secondsSince(start);
            pass.simS[f] = pass.stepS[R + P + 1 + f];
        }

        double error_sum = 0.0;
        std::size_t errors = 0;
        for (const FrontierValidation &validation : validations) {
            ++pass.attempted;
            const std::string &name = points[validation.point].name;
            pass.counts.resims += validation.resimulated.size();
            pass.counts.resimCycles += validation.resimTotal;
            if (!validation.allOk) {
                ++pass.failed;
                reportFailure(failures_,
                              "re-simulation of " + name + " failed");
                continue;
            }
            if (validation.optimisticViolation) {
                ++pass.failed;
                ++pass.counts.optimisticViolations;
                reportFailure(failures_,
                              name + ": optimistic-bound violation");
            }
            double error = std::fabs(validation.errorPercent);
            pass.counts.errMaxPct = std::max(pass.counts.errMaxPct,
                                             error);
            error_sum += error;
            ++errors;
        }
        if (errors)
            pass.counts.errMeanPct =
                error_sum / static_cast<double>(errors);
        pass.simCycles = static_cast<double>(pass.counts.resimCycles);
        pass.wallS = secondsSince(pass_start);
        return pass;
    }

  private:
    Settings settings_;
    MachineConfig base_;
    std::vector<const Workload *> sources_;
    std::vector<LatticePoint> lattice_;
    unsigned failures_ = 0;
};

} // namespace

void
Counts::addRun(const RunResult &run)
{
    ++runs;
    cycles += run.cycles;
    committed += run.committed;
    threadCycles += run.cycles * run.config.numThreads;
    ipcSum += run.ipc;
    suFullStalls += run.suStalls;
    flexCommits += run.flexCommits;
    for (const auto &row : run.stallCycles) {
        for (unsigned r = 0; r < kNumStallReasons; ++r)
            stalls[r] += row[r];
    }
    // A renamed stat must fail loudly, not read as 0.
    auto stat = [&](const char *name) {
        if (!run.stats.has(name))
            fatal("perfbench: the run's stats have no %s", name);
        return run.stats.get(name);
    };
    auto count = [&](const char *name) {
        return static_cast<std::uint64_t>(stat(name));
    };
    suOccupancySum += stat("sim.avgSuOccupancy");
    dcacheAccesses += count("dcache.accesses");
    dcacheHits += count("dcache.hits");
    dcacheRejections += count("dcache.rejections");
    branchResolved += count("btb.resolved");
    branchMispredicts += count("btb.mispredicts");
}

unsigned
defaultScale(const std::string &name)
{
    if (name == "paper_grid")
        return 25;
    if (name == "critpath_grid")
        return 2;
    if (name == "whatif_lattice")
        return 3;
    return 0;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, const Settings &settings)
{
    if (name == "paper_grid")
        return std::make_unique<GridWorkload>(false, settings);
    if (name == "critpath_grid")
        return std::make_unique<GridWorkload>(true, settings);
    if (name == "whatif_lattice")
        return std::make_unique<LatticeWorkload>(settings);
    return nullptr;
}

void
emitExpected(unsigned scale)
{
    PaperGrid grid = buildPaperGrid();
    std::printf("# index benchmark threads cycles committed "
                "(paper grid, scale %u)\n",
                scale);
    for (std::size_t i = 0; i < grid.points.size(); ++i) {
        const PaperGridPoint &point = grid.points[i];
        RunResult run =
            runWorkload(*point.workload, point.config, scale);
        requireGood(run);
        std::printf("%zu %s %u %llu %llu\n", i,
                    point.workload->name().c_str(),
                    point.config.numThreads,
                    static_cast<unsigned long long>(run.cycles),
                    static_cast<unsigned long long>(run.committed));
    }
}

} // namespace perfbench
