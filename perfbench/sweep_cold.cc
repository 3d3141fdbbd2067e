/**
 * @file
 * Workload `sweep-cold` (README.md): a closed loop of
 * pipeline::runSweep calls on one long-lived BatchEngine with the memo
 * cache off and workerCount() workers, so every call compiles nothing and recomputes every cell:
 * MA/MAC/MACS bounds and the simulated full, A- and X-process codes.
 *
 * Grid: the ten paper LFKs plus three DSL kernels re-tripped to a long
 * trip (more simulator work and a larger MemoryImage)
 * x every .machine file under machines/ plus the built-in C-240 table
 * x three vector lengths (one request per vector length). The seed
 * fixes the request order of every rotation; the grid and its job
 * order never change, so every seed does the same work.
 *
 * Oracle: an untimed first pass renders the golden request (machine
 * files x paper kernels, canonical order) and compares it byte for
 * byte with tests/golden/sweep_machines_all.json; every timed cell is
 * then compared with the first pass's exact RunStats and CPL figures.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "trace.h"

#include "lfk/kernels.h"
#include "lfk/paper_reference.h"
#include "machine/machine_file.h"
#include "macs/ax_transform.h"
#include "macs/bounds.h"
#include "macs/macs_bound.h"
#include "macs/workload.h"
#include "obs/metrics.h"
#include "pipeline/sweep.h"
#include "server/kernel_source.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "support/logging.h"
#include "support/strings.h"

namespace perfbench {

namespace {

using namespace macs;

/** DSL kernels compiled again at long trips (hand-assembled ones cannot be). */
const std::vector<int> kRetripIds = {1, 3, 7, 12};
const std::vector<long> kLongTrips = {16384, 65000};
/** One request per vector length; 0 keeps each machine's own. */
const std::vector<int> kVectorLengths = {0, 64, 100};
/** Set-ups before the timed phase, and again after it (SetupTimer). */
constexpr int kSetupReps = 51;
constexpr const char *kBuiltinName = "c240-builtin";

/**
 * Worker threads: one fewer than the host's CPUs (at least one). Each
 * call ends when its slowest job does, so with every CPU busy any other
 * process on the host that preempts a worker stretches the whole call;
 * the free CPU takes that load instead.
 */
unsigned
workerCount(const Args &args)
{
    return args.threads > 1 ? args.threads - 1 : 1;
}

/** Everything set-up builds: parsed machines, compiled kernels, engine. */
struct Grid
{
    std::vector<pipeline::SweepMachine> machines;
    std::vector<model::KernelCase> paperKernels;
    std::vector<model::KernelCase> kernels; ///< paper + re-tripped
    std::vector<pipeline::SweepRequest> requests;
    std::unique_ptr<pipeline::BatchEngine> engine;
};

Grid
buildGrid(const Args &args, obs::Registry &registry, Tracer *tracer)
{
    Grid g;
    Diagnostics diags;
    for (const std::string &path : machine::listMachineFiles(
             args.root + "/machines", diags)) {
        machine::MachineFile mf;
        Diagnostics d;
        bool ok = false;
        {
            ScopedSpan span(tracer, "machine.parse");
            ok = machine::loadMachineFile(path, mf, d);
        }
        if (!ok)
            fatal("machine file ", path, ": ", d.render());
        g.machines.push_back({mf.name, mf.description, path, mf.config});
    }
    if (diags.hasErrors() || g.machines.empty())
        fatal("no machine files under ", args.root, "/machines: ",
              diags.render());
    g.machines.push_back({kBuiltinName, "built-in Convex C-240 table",
                          "<builtin>",
                          machine::MachineConfig::convexC240()});

    std::vector<model::KernelCase> retripped;
    for (int id : lfk::lfkIds()) {
        lfk::Kernel k;
        {
            ScopedSpan span(tracer, "compiler.compile");
            k = lfk::makeKernel(id);
        }
        g.paperKernels.push_back(lfk::toKernelCase(k));
        bool retrip = false;
        for (int r : kRetripIds)
            retrip = retrip || r == id;
        if (!retrip)
            continue;
        // Kernel::remake keeps the arrays at their declared size, so
        // the long trips recompile the kernel's DSL source through the
        // loop front end, which sizes the arrays for the trip.
        for (long trip : kLongTrips) {
            model::KernelCase kc;
            Diagnostics d;
            bool ok = false;
            {
                ScopedSpan span(tracer, "compiler.compile");
                ok = server::kernelFromLoopSource(
                    k.sourceText, format("LFK%d@trip%ld", id, trip), trip, kc,
                    d);
            }
            if (!ok)
                fatal("re-tripped LFK", id, ": ", d.render());
            retripped.push_back(std::move(kc));
        }
    }
    // Long cells first, so the pool's tail is short cells: the job
    // order is fixed (it sets the makespan), only the request order of
    // a rotation comes from the seed.
    g.kernels = retripped;
    g.kernels.insert(g.kernels.end(), g.paperKernels.begin(),
                     g.paperKernels.end());

    for (int vl : kVectorLengths) {
        pipeline::SweepRequest r;
        r.machines = g.machines;
        r.kernels = g.kernels;
        r.vectorLength = vl;
        g.requests.push_back(std::move(r));
    }

    pipeline::EngineOptions opt;
    opt.workers = workerCount(args);
    opt.useCache = false;
    opt.metrics = &registry;
    g.engine = std::make_unique<pipeline::BatchEngine>(opt);
    return g;
}

/** Exact identity of one analysis: CPL figures and raw RunStats. */
std::string
digest(const model::KernelAnalysis &a)
{
    auto stats = [](const sim::RunStats &s) {
        return format("%.17g/%llu/%llu/%llu", s.cycles,
                      (unsigned long long)s.instructions,
                      (unsigned long long)s.flops,
                      (unsigned long long)s.memoryElements);
    };
    return format("%.17g %.17g %.17g %.17g %.17g %.17g %.17g ", a.maBound.bound,
                  a.macBound.bound, a.macs.cpl, a.macsFOnly.cpl,
                  a.macsMOnly.cpl, a.tP, a.tA) +
           format("%.17g ", a.tX) + stats(a.fullStats) + " " +
           stats(a.aStats) + " " + stats(a.xStats);
}

std::string
cellKey(const std::string &kernel, const std::string &machine, int vl)
{
    return kernel + "|" + machine + "|" + std::to_string(vl);
}

uint64_t
simulatedInstructions(const model::KernelAnalysis &a)
{
    return a.fullStats.instructions + a.aStats.instructions +
           a.xStats.instructions;
}

/** The oracle: digest of every cell, plus exact per-request work. */
struct Oracle
{
    std::map<std::string, std::string> cells;
    std::vector<uint64_t> requestInstructions;
    std::vector<double> requestCycles;
    double modelErrPct = 0.0;
};

/** Compare every cell of @p res with the oracle; count the wrong ones. */
void
verifySweep(const pipeline::SweepResult &res, int vl, const Oracle &oracle,
            Report &report)
{
    for (size_t k = 0; k < res.cells.size(); ++k) {
        for (size_t m = 0; m < res.cells[k].size(); ++m) {
            const pipeline::JobResult &cell = res.cells[k][m];
            std::string key =
                cellKey(res.kernelNames[k], res.machines[m].name, vl);
            auto it = oracle.cells.find(key);
            if (!cell.ok())
                report.fail(key + ": " + cell.error);
            else if (it == oracle.cells.end() ||
                     it->second != digest(*cell.analysis))
                report.fail(key + ": cell differs from the oracle");
        }
    }
}

Oracle
buildOracle(const Args &args, Grid &g, Report &report)
{
    Oracle o;

    // Golden: the machine files x paper kernels in canonical order.
    pipeline::SweepRequest golden;
    for (const pipeline::SweepMachine &m : g.machines)
        if (m.name != kBuiltinName)
            golden.machines.push_back(m);
    golden.kernels = g.paperKernels;
    pipeline::SweepResult gres = pipeline::runSweep(golden, *g.engine);
    std::string want;
    std::string path = args.root + "/tests/golden/sweep_machines_all.json";
    if (!readFile(path, want))
        fatal("cannot read ", path);
    if (pipeline::renderSweepJson(gres) != want)
        report.wrong("golden sweep differs from " + path);
    std::map<std::string, std::string> golden_cells;
    for (size_t k = 0; k < gres.cells.size(); ++k)
        for (size_t m = 0; m < gres.cells[k].size(); ++m)
            if (gres.cells[k][m].ok())
                golden_cells[cellKey(gres.kernelNames[k],
                                     gres.machines[m].name, 0)] =
                    digest(*gres.cells[k][m].analysis);

    for (const pipeline::SweepRequest &r : g.requests) {
        pipeline::SweepResult res = pipeline::runSweep(r, *g.engine);
        uint64_t instructions = 0;
        double cycles = 0.0;
        for (size_t k = 0; k < res.cells.size(); ++k) {
            for (size_t m = 0; m < res.cells[k].size(); ++m) {
                const pipeline::JobResult &cell = res.cells[k][m];
                std::string key = cellKey(res.kernelNames[k],
                                          res.machines[m].name,
                                          r.vectorLength);
                if (!cell.ok()) {
                    report.wrong(key + ": " + cell.error);
                    continue;
                }
                const model::KernelAnalysis &a = *cell.analysis;
                o.cells[key] = digest(a);
                instructions += simulatedInstructions(a);
                cycles += a.fullStats.cycles + a.aStats.cycles +
                          a.xStats.cycles;
                auto gold = golden_cells.find(key);
                if (gold != golden_cells.end() && gold->second != o.cells[key])
                    report.wrong(key + ": differs from the golden sweep");
            }
        }
        o.requestInstructions.push_back(instructions);
        o.requestCycles.push_back(cycles);
    }

    // Model error against the paper's measured t_p (Table 5) on the
    // built-in C-240 at its own vector length.
    pipeline::SweepRequest c240;
    c240.machines = {g.machines.back()};
    c240.kernels = g.paperKernels;
    pipeline::SweepResult cres = pipeline::runSweep(c240, *g.engine);
    double err = 0.0;
    size_t n = 0;
    for (size_t k = 0; k < cres.cells.size(); ++k) {
        const pipeline::JobResult &cell = cres.cells[k][0];
        int id = lfk::lfkIds()[k];
        const lfk::PaperReference &ref = lfk::paperReference().at(id);
        if (!cell.ok())
            continue;
        err += std::abs(cell.analysis->tP - ref.tpCpl) / ref.tpCpl;
        ++n;
    }
    o.modelErrPct = n ? 100.0 * err / static_cast<double>(n) : 0.0;
    return o;
}

size_t
cellCount(const pipeline::SweepRequest &r)
{
    return r.kernels.size() * r.machines.size();
}

/** Aggregated engine counters of the timed calls (pipeline layer). */
struct EngineTotals
{
    double jobs = 0.0, queueWaitUs = 0.0, computeUs = 0.0, wallUs = 0.0;
    double workers = 1.0;

    void
    add(const pipeline::BatchStats &s)
    {
        jobs += static_cast<double>(s.jobs);
        queueWaitUs += s.queueWaitUs;
        computeUs += s.computeUs;
        wallUs += s.wallUs;
        workers = static_cast<double>(s.workers);
    }
};

/** The closed loop: whole seeded rotations until @p seconds pass. */
struct LoopResult
{
    std::vector<std::vector<double>> callUs; ///< by request
    std::vector<double> rotationUs; ///< summed call time of each rotation
    double instructions = 0.0;
    EngineTotals engine;
};

LoopResult
closedLoop(Grid &g, const Oracle &oracle, Rng &rng, double seconds,
           Report &report)
{
    LoopResult out;
    out.callUs.resize(g.requests.size());
    std::vector<size_t> order(g.requests.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    double end = nowUs() + seconds * 1e6;
    while (nowUs() < end) {
        rng.shuffle(order);
        double rotation = 0.0;
        for (size_t i : order) {
            const pipeline::SweepRequest &r = g.requests[i];
            double t0 = nowUs();
            pipeline::SweepResult res = pipeline::runSweep(r, *g.engine);
            double dt = nowUs() - t0;
            rotation += dt;
            out.callUs[i].push_back(dt);
            out.instructions +=
                static_cast<double>(oracle.requestInstructions[i]);
            out.engine.add(res.stats);
            report.attempt(cellCount(r));
            verifySweep(res, r.vectorLength, oracle, report);
        }
        out.rotationUs.push_back(rotation);
    }
    return out;
}

/**
 * Cells per second of the median rotation: robust to a burst of host
 * noise inside one run, and the same work in every rotation.
 */
double
cellsPerSecond(const Grid &g, const LoopResult &loop)
{
    double cells = 0.0;
    for (const pipeline::SweepRequest &r : g.requests)
        cells += static_cast<double>(cellCount(r));
    return cells / (median(loop.rotationUs) / 1e6);
}

/**
 * One cell, decomposed into the library calls analyzeKernel makes,
 * each inside a span: bounds, A/X transforms, and the three simulator
 * runs (construction, input set-up, and run).
 */
model::KernelAnalysis
decomposedCell(const model::KernelCase &kc, const machine::MachineConfig &cfg,
               Tracer *tracer, uint64_t op)
{
    ScopedSpan cell(tracer, "cell", op);
    model::KernelAnalysis a;
    a.name = kc.name;
    a.ma = kc.ma;
    a.sourceFlopsPerPoint = kc.sourceFlopsPerPoint;
    a.points = kc.points;
    {
        ScopedSpan span(tracer, "macs.bounds", op);
        auto body = kc.program.innerLoop();
        a.mac = model::countAssembly(body);
        a.maBound = model::pipeBound(kc.ma);
        a.macBound = model::pipeBound(a.mac);
        a.macs = model::evaluateMacs(body, cfg, cfg.maxVectorLength);
        a.macsFOnly = model::evaluateMacsFOnly(body, cfg, cfg.maxVectorLength);
        a.macsMOnly = model::evaluateMacsMOnly(body, cfg, cfg.maxVectorLength);
    }
    isa::Program aprog, xprog;
    {
        ScopedSpan span(tracer, "macs.ax", op);
        aprog = model::makeAProcess(kc.program);
        xprog = model::makeXProcess(kc.program);
    }
    auto run = [&](const char *name, const isa::Program &prog) {
        ScopedSpan span(tracer, name, op);
        sim::Simulator simulator(cfg, prog, sim::SimOptions{});
        if (kc.setup)
            kc.setup(simulator);
        return simulator.run();
    };
    a.fullStats = run("sim.run.full", kc.program);
    a.aStats = run("sim.run.a", aprog);
    a.xStats = run("sim.run.x", xprog);
    double points = static_cast<double>(kc.points);
    a.tP = a.fullStats.cycles / points;
    a.tA = a.aStats.cycles / points;
    a.tX = a.xStats.cycles / points;
    return a;
}

/**
 * The decomposed loop: the same requests, with the cells handed to
 * workerCount() benchmark threads that run decomposedCell() (traced
 * when @p tracer is set). Returns the summed host time of the
 * requests; adds cells and instructions.
 */
double
decomposedLoop(const Args &args, Grid &g, const Oracle &oracle, Rng &rng,
               double seconds, Tracer *tracer, Report &report, double &cells,
               double &instructions)
{
    struct Task
    {
        const model::KernelCase *kernel;
        const pipeline::SweepMachine *machine;
    };
    std::vector<size_t> order(g.requests.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    double busy_us = 0.0;
    uint64_t next_op = 0;
    double end = nowUs() + seconds * 1e6;
    while (nowUs() < end) {
        rng.shuffle(order);
        for (size_t i : order) {
            const pipeline::SweepRequest &r = g.requests[i];
            std::vector<Task> tasks;
            for (const model::KernelCase &k : r.kernels)
                for (const pipeline::SweepMachine &m : r.machines)
                    tasks.push_back({&k, &m});
            std::vector<std::string> digests(tasks.size());
            std::atomic<size_t> cursor{0};
            uint64_t base_op = next_op;
            auto worker = [&] {
                for (;;) {
                    size_t t = cursor.fetch_add(1);
                    if (t >= tasks.size())
                        return;
                    machine::MachineConfig cfg = tasks[t].machine->config;
                    if (r.vectorLength > 0)
                        cfg.maxVectorLength = r.vectorLength;
                    digests[t] = digest(decomposedCell(
                        *tasks[t].kernel, cfg, tracer, base_op + t));
                }
            };
            double t0 = nowUs();
            std::vector<std::thread> pool;
            for (unsigned w = 0; w < workerCount(args); ++w)
                pool.emplace_back(worker);
            for (std::thread &th : pool)
                th.join();
            busy_us += nowUs() - t0;
            next_op += tasks.size();
            cells += static_cast<double>(tasks.size());
            instructions += static_cast<double>(oracle.requestInstructions[i]);
            report.attempt(tasks.size());
            for (size_t t = 0; t < tasks.size(); ++t) {
                std::string key = cellKey(tasks[t].kernel->name,
                                          tasks[t].machine->name,
                                          r.vectorLength);
                auto it = oracle.cells.find(key);
                if (it == oracle.cells.end() || it->second != digests[t])
                    report.fail(key + ": decomposed cell differs from the oracle");
            }
        }
    }
    return busy_us;
}

void
addPipelineMetrics(Report &report, const LoopResult &loop,
                   const pipeline::BatchEngine &engine)
{
    const EngineTotals &e = loop.engine;
    report.add("pipeline.queue_wait_us",
               e.jobs > 0 ? e.queueWaitUs / e.jobs : 0.0, "us");
    report.add("pipeline.compute_us",
               e.jobs > 0 ? e.computeUs / e.jobs : 0.0, "us");
    report.add("pipeline.worker_util",
               e.wallUs > 0 ? e.computeUs / (e.wallUs * e.workers) : 0.0,
               "ratio");
    const pipeline::AnalysisCache &cache = engine.cache();
    double claims = static_cast<double>(cache.hits() + cache.misses());
    report.add("pipeline.cache_hit_ratio",
               claims > 0 ? static_cast<double>(cache.hits()) / claims : 0.0,
               "ratio");
    report.add("pipeline.cache_evictions",
               static_cast<double>(cache.evictions()), "count");
}

void
addTracedMetrics(Report &report, const Tracer &tracer, const Oracle &oracle,
                 double traced_instructions)
{
    auto totals = tracer.totals();
    auto meanOf = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.meanUs();
    };
    auto totalOf = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.totalUs;
    };
    report.add("compiler.compile_us", meanOf("compiler.compile"), "us");
    report.add("compiler.compiles",
               static_cast<double>(totals["compiler.compile"].count), "count");
    report.add("machine.parse_us", meanOf("machine.parse"), "us");
    report.add("macs.bounds_us", meanOf("macs.bounds"), "us");
    report.add("macs.ax_us", meanOf("macs.ax"), "us");
    report.add("sim.run_us.full", meanOf("sim.run.full"), "us");
    report.add("sim.run_us.a", meanOf("sim.run.a"), "us");
    report.add("sim.run_us.x", meanOf("sim.run.x"), "us");
    double sim_us = totalOf("sim.run.full") + totalOf("sim.run.a") +
                    totalOf("sim.run.x");
    report.add("sim.host_ns_per_instr",
               traced_instructions > 0 ? 1000.0 * sim_us / traced_instructions
                                       : 0.0,
               "ns");
    double rot_instr = 0.0, rot_cycles = 0.0;
    for (size_t i = 0; i < oracle.requestInstructions.size(); ++i) {
        rot_instr += static_cast<double>(oracle.requestInstructions[i]);
        rot_cycles += oracle.requestCycles[i];
    }
    report.add("sim.instructions", rot_instr, "count");
    report.add("sim.cycles", rot_cycles, "count");
    report.add("trace.spans", static_cast<double>(tracer.size()), "count");
}

} // namespace

Report
runSweepCold(const Args &args)
{
    Report report;
    obs::Registry registry;
    std::unique_ptr<Grid> grid;
    auto setup_once = [&] {
        grid.reset();
        double t0 = nowUs();
        grid = std::make_unique<Grid>(buildGrid(args, registry, nullptr));
        return (nowUs() - t0) / 1e6;
    };
    SetupTimer setup;
    setup.measure(kSetupReps, setup_once);
    Grid &g = *grid;
    Oracle oracle = buildOracle(args, g, report);
    Rng rng(args.seed);

    if (!args.trace) {
        LoopResult loop = closedLoop(g, oracle, rng, args.seconds, report);
        report.add("throughput_per_s", cellsPerSecond(g, loop), "1/s");
        addLatencyMetrics(report, loop.callUs, 0.9);
        setup.measure(kSetupReps, setup_once); // replaces the grid
        setup.report(report);
        return report;
    }

    // Traced run, in quarters: the engine loop (its own counters), the
    // cells decomposed into library calls on benchmark threads, untraced
    // and traced (the two give the tracing overhead), and the sim/mp
    // layer, which no end-to-end workload times (mp_layer.cc).
    Tracer tracer;
    (void)buildGrid(args, registry, &tracer); // compile + parse spans
    const double part = args.seconds / 4;
    LoopResult loop = closedLoop(g, oracle, rng, part, report);
    double busy = 0.0;
    for (double us : loop.rotationUs)
        busy += us;
    double plain_cells = 0.0, plain_instr = 0.0;
    double plain_us =
        decomposedLoop(args, g, oracle, rng, part, nullptr, report,
                       plain_cells, plain_instr);
    double cells = 0.0, instructions = 0.0;
    double traced_us =
        decomposedLoop(args, g, oracle, rng, part, &tracer, report, cells,
                       instructions);
    double plain_cps = plain_cells / (plain_us / 1e6);
    double traced_cps = cells / (traced_us / 1e6);
    addMpLayer(args, part, tracer, report);

    addPipelineMetrics(report, loop, *g.engine);
    addTracedMetrics(report, tracer, oracle, instructions);
    report.add("sim.minstr_per_s", loop.instructions / busy, "Minstr/s");
    report.add("macs.model_err_pct", oracle.modelErrPct, "%");
    report.add("trace.overhead_pct", 100.0 * (plain_cps / traced_cps - 1.0),
               "%");
    std::fprintf(stderr,
                 "perfbench: engine %.1f cells/s; decomposed untraced %.1f, "
                 "traced %.1f cells/s\n",
                 cellsPerSecond(g, loop), plain_cps, traced_cps);
    printSelfTimes(tracer);
    if (!args.traceOut.empty() && !writeChromeTrace(tracer, args.traceOut))
        report.wrong("cannot write " + args.traceOut);
    return report;
}

} // namespace perfbench
