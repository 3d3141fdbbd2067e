/**
 * @file
 * macs — command-line front end to the library.
 *
 *   macs kernels                         list the LFK workloads
 *   macs analyze <id>                    hierarchy report for one LFK
 *   macs mp [id] [opts]                  multi-CPU contention run
 *       --kernel N      LFK id (or give it positionally; default 1)
 *       --cpus N        fleet size (default: the machine's CPUs)
 *       --mix M         independent (default) / lockstep / strip
 *       --engine E      coupled (default) / analytic
 *       --machine F     .machine file (default: built-in C-240)
 *       --json PATH     write schema macs-mp-v1 ('-' for stdout)
 *   macs compile <file> [opts]           DSL loop -> assembly + bounds
 *       --trip N        iterations (default 512)
 *       --array n:w     declare array n with w words (repeatable)
 *       --scalar        compile for the scalar unit
 *   macs bounds <file.s>                 MAC/MACS/MACS-D of assembly
 *   macs simulate <file.s> [--trace]     run assembly on the C-240
 *   macs trace <kernel> [opts]           Chrome trace of one run
 *       <kernel>        lfk1 / 7 / file.s
 *       --chrome PATH   write Chrome trace JSON ('-' for stdout),
 *                       self-checked against the simulator totals
 *       --metrics PATH  write macs_sim_* metrics JSON
 *       --variant V     machine variant (default baseline)
 *   macs batch [ids|files] [opts]        parallel batch analysis
 *       --workers N     worker threads (default: hardware)
 *       --variant V     machine variant (repeatable)
 *       --vl N          strip/vector length override (repeatable)
 *       --repeat N      submit the job set N times (cache demo)
 *       --trip N        iterations for .loop file jobs (default 512)
 *       --json PATH     write the JSON report ('-' for stdout)
 *       --md PATH       write the markdown report ('-' for stdout)
 *       --timing        include scheduling-dependent stats sections
 *       --no-cache      disable memoization
 *       --metrics PATH  write gap-attribution metrics JSON
 *                       (byte-identical for any --workers value)
 *       --checkpoint F  crash-safe journal: resume completed jobs
 *                       from F, append each new analysis
 *       --job-timeout M per-job wall-clock deadline in ms (0 = off)
 *       --retries N     retry budget for transient faults (default 2)
 *       --faults SPEC   fault plan (same grammar as MACS_FAULTS)
 *       --sim-tier T    simulator tier: fast (default) or reference
 *                       (bit-identical results; docs/SIMULATOR.md)
 *   macs sweep [ids|files] [opts]        kernel x machine sweep matrix
 *       --machines P    .machine file or directory of them
 *                       (repeatable; docs/MACHINES.md)
 *       --variant V     add a built-in variant column (repeatable)
 *       --workers N     worker threads (default: hardware)
 *       --vl N          strip/vector length override for every cell
 *       --trip N        iterations for .loop file jobs (default 512)
 *       --json PATH     write the JSON matrix ('-' for stdout)
 *       --md PATH       write the markdown matrix ('-' for stdout)
 *       --timing        include scheduling-dependent stats
 *       --no-cache      disable memoization
 *       --sim-tier T    simulator tier: fast (default) or reference
 *   macs serve [opts]                    HTTP analysis server
 *       --port N        listen port (0 = ephemeral; default 8080)
 *       --port-file F   write the bound port to F (for scripts)
 *       --workers N     compute workers (default: hardware)
 *       --queue N       per-request 503 once N requests wait for a
 *                       compute worker (default 64)
 *       --shards N      event-loop shards (0 = auto; default 0)
 *       --max-connections N  accept-time 503 beyond N open
 *                            connections (default 4096)
 *       --cache-cap N   LRU bound of the shared cache (default 1024)
 *       --processes N   SO_REUSEPORT worker processes under a
 *                       supervisor (default 1 = no supervisor)
 *       --heartbeat-ms N   worker heartbeat interval (default 100)
 *       --liveness-ms N    missed-heartbeat kill deadline (2000)
 *       --restart-budget N per-slot restarts before the slot is
 *                          abandoned and the fleet degrades (8)
 *       --drain-timeout N  per-worker drain grace in ms (30000)
 *       SIGTERM/SIGINT  graceful drain, exit 0 (docs/SERVER.md);
 *                       supervised fleets drain worker-by-worker and
 *                       exit 4 only when every slot is dead
 *   macs http <method> <target> [opts]   client for `macs serve`
 *   macs version                         build + schema versions
 *
 * Batch exit codes (docs/ROBUSTNESS.md): 0 = all jobs succeeded,
 * 2 = partial failure, 3 = total failure; 1 = invocation error.
 * `macs serve` reports the same contract per request in the
 * X-MACS-Exit-Code response header.
 *
 * Assembly files use the syntax of isa/parser.h; loop files use the
 * DSL of compiler/loop_parser.h. Positional batch arguments ending in
 * .loop are analyzed alongside (or instead of) the LFK set; all input
 * paths are validated before any worker starts.
 */

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/codegen.h"
#include "compiler/loop_parser.h"
#include "faults/fault_injection.h"
#include "isa/parser.h"
#include "lfk/kernels.h"
#include "macs/gap_metrics.h"
#include "macs/hierarchy.h"
#include "macs/macsd.h"
#include "machine/machine_config.h"
#include "machine/machine_file.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sim_metrics.h"
#include "obs/trace_export.h"
#include "pipeline/checkpoint.h"
#include "pipeline/mp_report.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "pipeline/sweep.h"
#include "server/client.h"
#include "server/kernel_source.h"
#include "server/server.h"
#include "supervisor/proc_faults.h"
#include "supervisor/supervisor.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "support/logging.h"
#include "support/strings.h"

namespace {

using namespace macs;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path, "': ", std::strerror(errno));
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

int
cmdKernels()
{
    std::printf("%-6s %-4s %-8s %-6s %s\n", "name", "flop", "points",
                "t_MA", "description");
    for (int id : lfk::lfkIds()) {
        lfk::Kernel k = lfk::makeKernel(id);
        std::printf("%-6s %-4d %-8ld %-6d %s\n", k.name.c_str(),
                    k.flopsPerPoint, k.points,
                    std::max(k.ma.tF(), k.ma.tM()), k.description.c_str());
    }
    for (int id : lfk::scalarLfkIds()) {
        lfk::Kernel k = lfk::makeKernel(id);
        std::printf("%-6s %-4d %-8ld %-6s %s\n", k.name.c_str(),
                    k.flopsPerPoint, k.points, "-", k.description.c_str());
    }
    return 0;
}

int
cmdAnalyze(const std::string &arg)
{
    long id = 0;
    if (!parseInt(arg, id))
        fatal("analyze expects an LFK number, got '", arg, "'");
    machine::MachineConfig cfg = machine::MachineConfig::convexC240();
    lfk::Kernel k = lfk::makeKernel(static_cast<int>(id));
    std::printf("%s — %s\n%s\n", k.name.c_str(), k.description.c_str(),
                k.sourceText.c_str());
    model::KernelAnalysis a =
        model::analyzeKernel(lfk::toKernelCase(k), cfg);
    std::printf("%s", model::renderReport(a, cfg).c_str());
    return 0;
}

int
cmdMp(const std::vector<std::string> &args)
{
    pipeline::MpRequest req;
    std::string json_path;
    bool have_kernel = false;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *what) -> const std::string & {
            if (i + 1 >= args.size())
                fatal(what, " expects an argument");
            return args[++i];
        };
        if (a == "--kernel") {
            long id = 0;
            if (!parseInt(next("--kernel"), id))
                fatal("--kernel expects an LFK number");
            req.kernelId = static_cast<int>(id);
            have_kernel = true;
        } else if (a == "--cpus") {
            long n = 0;
            if (!parseInt(next("--cpus"), n) || n < 1)
                fatal("--cpus expects a positive CPU count");
            req.cpus = static_cast<int>(n);
        } else if (a == "--mix") {
            const std::string &m = next("--mix");
            if (!lfk::parseMpMix(m, req.mix))
                fatal("unknown mix '", m,
                      "' (known: independent, lockstep, strip)");
        } else if (a == "--engine") {
            const std::string &e = next("--engine");
            if (!pipeline::parseMpEngine(e, req.engine))
                fatal("unknown engine '", e,
                      "' (known: coupled, analytic)");
        } else if (a == "--machine") {
            const std::string &path = next("--machine");
            machine::MachineFile mf;
            Diagnostics diags("macs mp");
            if (!machine::loadMachineFile(path, mf, diags))
                diags.throwIfErrors();
            req.config = mf.config;
            req.machineName = mf.name;
        } else if (a == "--json") {
            json_path = next("--json");
        } else if (!have_kernel && !a.empty() && a[0] != '-') {
            long id = 0;
            if (!parseInt(a, id))
                fatal("mp expects an LFK number, got '", a, "'");
            req.kernelId = static_cast<int>(id);
            have_kernel = true;
        } else {
            fatal("unknown mp option '", a, "'");
        }
    }

    pipeline::MpAnalysis analysis = pipeline::runMpAnalysis(req);
    if (!json_path.empty()) {
        std::string body = pipeline::renderMpJson(analysis);
        if (json_path == "-") {
            std::fputs(body.c_str(), stdout);
        } else {
            std::ofstream out(json_path);
            if (!out)
                fatal("cannot write '", json_path,
                      "': ", std::strerror(errno));
            out << body;
        }
    } else {
        std::fputs(pipeline::renderMpText(analysis).c_str(), stdout);
    }
    return 0;
}

int
cmdCompile(const std::vector<std::string> &args)
{
    if (args.empty())
        fatal("compile expects a loop file");
    compiler::CompileOptions opt;
    opt.tripCount = 512;
    std::string path = args[0];
    for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--trip" && i + 1 < args.size()) {
            long trip = 0;
            if (!parseInt(args[++i], trip))
                fatal("--trip expects a number");
            opt.tripCount = trip;
        } else if (args[i] == "--array" && i + 1 < args.size()) {
            auto parts = split(args[++i], ':');
            long words = 0;
            if (parts.size() != 2 || !parseInt(parts[1], words))
                fatal("--array expects name:words");
            opt.arrays.push_back(
                {parts[0], static_cast<size_t>(words)});
        } else if (args[i] == "--scalar") {
            opt.vectorize = false;
        } else if (args[i] == "--unroll" && i + 1 < args.size()) {
            long u = 0;
            if (!parseInt(args[++i], u))
                fatal("--unroll expects a number");
            opt.unroll = static_cast<int>(u);
        } else {
            fatal("unknown compile option '", args[i], "'");
        }
    }

    compiler::Loop loop = compiler::parseLoop(readFile(path));
    if (opt.arrays.empty()) {
        // Undeclared arrays default to a generous extent.
        compiler::SourceAnalysis sa = compiler::analyzeSource(loop);
        (void)sa;
        for (const auto &s : loop.stmts) {
            if (s.arrayDst)
                opt.arrays.push_back({s.dstName, 1u << 16});
        }
        // Conservatively declare every identifier-like array too: the
        // compiler reports missing ones, so rely on --array for those.
    }

    compiler::CompileResult res = compiler::compile(loop, opt);
    std::printf("%s", res.program.toString().c_str());

    machine::MachineConfig cfg = machine::MachineConfig::convexC240();
    model::PipeBound ma = model::pipeBound(res.analysis.ma);
    model::PipeBound mac = model::pipeBound(res.macCounts);
    std::printf("\n; t_MA  = %.0f CPL\n; t_MAC = %.0f CPL\n", ma.bound,
                mac.bound);
    if (opt.vectorize) {
        model::MacsResult macs =
            model::evaluateMacs(res.program.innerLoop(), cfg);
        std::printf("; t_MACS = %.3f CPL (%zu chimes)\n", macs.cpl,
                    macs.chimes.size());
    }
    return 0;
}

int
cmdBounds(const std::string &path)
{
    isa::Program prog = isa::assemble(readFile(path));
    machine::MachineConfig cfg = machine::MachineConfig::convexC240();
    auto body = prog.innerLoop();

    model::WorkloadCounts mac = model::countAssembly(body);
    model::PipeBound b = model::pipeBound(mac);
    model::MacsResult macs = model::evaluateMacs(body, cfg);
    model::MacsDResult d = model::evaluateMacsD(prog, cfg);

    std::printf("workload (MAC): f_a=%d f_m=%d l=%d s=%d\n", mac.fAdd,
                mac.fMul, mac.loads, mac.stores);
    std::printf("t_MAC    = %.0f CPL\n", b.bound);
    std::printf("t_MACS   = %.3f CPL\n", macs.cpl);
    std::printf("t_MACS-D = %.3f CPL (worst memory rate %.2f "
                "cycles/element)\n",
                d.macs.cpl, d.worstMemoryRate);
    std::printf("chimes:\n%s",
                model::renderChimes(body, macs.chimes).c_str());
    return 0;
}

int
cmdSimulate(const std::vector<std::string> &args)
{
    if (args.empty())
        fatal("simulate expects an assembly file");
    bool trace = false, profile = false;
    for (size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--trace")
            trace = true;
        else if (args[i] == "--profile")
            profile = true;
        else
            fatal("unknown simulate option '", args[i], "'");
    }
    isa::Program prog = isa::assemble(readFile(args[0]));
    machine::MachineConfig cfg = machine::MachineConfig::convexC240();
    sim::SimOptions opt;
    opt.trace = trace;
    opt.profile = profile;
    sim::Simulator s(cfg, prog, opt);
    sim::RunStats st = s.run();
    std::printf("cycles              %.1f (%.2f us at %.0f MHz)\n",
                st.cycles, st.cycles * cfg.clockNs() / 1000.0,
                cfg.clockMhz);
    std::printf("instructions        %llu (%llu vector, %llu scalar)\n",
                (unsigned long long)st.instructions,
                (unsigned long long)st.vectorInstructions,
                (unsigned long long)st.scalarInstructions);
    std::printf("vector elements     %llu (%llu flops, %llu memory)\n",
                (unsigned long long)st.vectorElements,
                (unsigned long long)st.flops,
                (unsigned long long)st.memoryElements);
    std::printf("refresh stalls      %.0f cycles\n",
                st.refreshStallCycles);
    if (st.flops)
        std::printf("performance         %.3f CPF = %.2f MFLOPS\n",
                    st.cpf(), st.mflops(cfg.clockMhz));
    if (trace)
        std::printf("\n%s", s.timeline().render(32).c_str());
    if (profile)
        std::printf("\nstall attribution:\n%s",
                    s.profile().render().c_str());
    return 0;
}

machine::MachineConfig variantConfig(const std::string &name);
void writeReport(const std::string &path, const std::string &text);

/**
 * `macs trace <kernel>`: run one kernel with tracing + profiling and
 * summarize where cycles went; --chrome writes the Chrome trace JSON
 * (chrome://tracing, Perfetto) and self-checks it: the per-pipe
 * busy-span sums recovered from the written file must equal the
 * simulator's RunStats exactly.
 */
int
cmdTrace(const std::vector<std::string> &args)
{
    if (args.empty())
        fatal("trace expects a kernel: lfk<N>, <N>, or a .s file");
    std::string spec = args[0];
    std::string chrome_path, metrics_path, variant = "baseline";
    for (size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *what) -> const std::string & {
            if (i + 1 >= args.size())
                fatal(what, " expects an argument");
            return args[++i];
        };
        if (a == "--chrome")
            chrome_path = next("--chrome");
        else if (a == "--metrics")
            metrics_path = next("--metrics");
        else if (a == "--variant")
            variant = next("--variant");
        else
            fatal("unknown trace option '", a, "'");
    }

    // Resolve the kernel: "lfk1" / "1" name an LFK workload (with its
    // canonical data setup); anything ending in .s is an assembly file.
    machine::MachineConfig cfg = variantConfig(variant);
    isa::Program prog;
    std::string name;
    std::function<void(sim::Simulator &)> setup;
    if (spec.size() > 2 && spec.substr(spec.size() - 2) == ".s") {
        prog = isa::assemble(readFile(spec));
        name = spec;
    } else {
        std::string t = toLower(spec);
        if (t.rfind("lfk", 0) == 0)
            t = t.substr(3);
        long id = 0;
        if (!parseInt(t, id))
            fatal("trace expects lfk<N>, <N>, or a .s file, got '",
                  spec, "'");
        lfk::Kernel k = lfk::makeKernel(static_cast<int>(id));
        prog = k.program;
        name = k.name;
        setup = k.setup;
    }

    sim::SimOptions opt;
    opt.trace = true;
    opt.profile = true;
    sim::Simulator s(cfg, prog, opt);
    if (setup)
        setup(s);
    sim::RunStats st = s.run();

    std::printf("%s on %s: %.1f cycles, %llu vector instructions\n",
                name.c_str(), variant.c_str(), st.cycles,
                (unsigned long long)st.vectorInstructions);
    static const char *const pipe_names[3] = {"load/store", "add",
                                              "multiply"};
    for (int p = 0; p < 3; ++p)
        std::printf("  pipe %-10s busy %10.1f cycles (%5.1f%%)\n",
                    pipe_names[p], st.pipeBusy(p),
                    st.cycles > 0.0
                        ? 100.0 * st.pipeBusy(p) / st.cycles
                        : 0.0);
    std::printf("  refresh stalls  %10.1f cycles\n",
                st.refreshStallCycles);
    std::printf("  bank conflicts  %10.1f cycles\n",
                st.bankConflictCycles);
    if (!s.profile().empty())
        std::printf("\nstall attribution:\n%s",
                    s.profile().render().c_str());

    if (!chrome_path.empty()) {
        obs::TraceExportOptions topt;
        topt.processName = "macs " + name + " (" + variant + ")";
        std::string json =
            obs::renderChromeTrace(s.timeline(), st, topt);
        writeReport(chrome_path, json);
        // Self-check the written document: re-parse and re-sum. Any
        // deviation from the simulator's accounting is a bug.
        obs::TraceTotals totals = obs::summarizeChromeTrace(json);
        for (int p = 0; p < 3; ++p) {
            if (totals.pipeBusy[p] != st.pipeBusy(p))
                panic("trace self-check failed: pipe ", p,
                      " busy sum ", totals.pipeBusy[p],
                      " != simulator ", st.pipeBusy(p));
        }
        std::fprintf(stderr,
                     "self-check ok: %zu spans, per-pipe busy sums "
                     "match the simulator exactly\n",
                     totals.streamEvents);
    }
    if (!metrics_path.empty()) {
        obs::Registry reg;
        obs::Labels labels{{"kernel", name}, {"config", variant}};
        obs::recordRunStats(reg, st, labels);
        obs::recordStallProfile(reg, s.profile(), labels);
        writeReport(metrics_path, obs::renderJson(reg));
    }
    return 0;
}

machine::MachineConfig
variantConfig(const std::string &name)
{
    // One resolver shared with `macs serve` (docs/SERVER.md): the CLI
    // and the HTTP endpoints accept exactly the same variant names.
    return machine::MachineConfig::variant(name);
}

void
writeReport(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '", path, "'");
    out << text;
    std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(),
                 text.size());
}

/**
 * Compile one `.loop` DSL file into a KernelCase for the batch via
 * the same helper `macs serve` uses for HTTP loop sources
 * (server/kernel_source.h), so a loop sent over HTTP is compiled
 * byte-identically to the same file given here. Parse and compile
 * errors go to @p diags; returns false on failure.
 */
bool
loopFileKernel(const std::string &path, long trip,
               model::KernelCase &out, Diagnostics &diags)
{
    std::string text;
    {
        std::ifstream in(path);
        if (!in) {
            diags.error(detail::concat("cannot open '", path,
                                       "': ", std::strerror(errno)));
            return false;
        }
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    return server::kernelFromLoopSource(text, path, trip, out, diags);
}

int
cmdBatch(const std::vector<std::string> &args)
{
    std::vector<int> ids(lfk::lfkIds());
    std::vector<std::string> variants, loop_files;
    std::vector<int> vls;
    std::string json_path, md_path, metrics_path, checkpoint_path;
    std::string fault_spec;
    long workers = 0, repeat = 1, retries = 2, trip = 512;
    long cache_cap = 0;
    double job_timeout_ms = 0.0;
    bool timing = false, use_cache = true, ids_given = false;
    sim::SimTier sim_tier = sim::SimOptions{}.tier;

    // Collect EVERY argument error before giving up, compiler-style.
    Diagnostics diags("macs batch");
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *what) -> const std::string & {
            static const std::string empty;
            if (i + 1 >= args.size()) {
                diags.error(
                    detail::concat(what, " expects an argument"));
                return empty;
            }
            return args[++i];
        };
        if (a == "--workers") {
            if (!parseInt(next("--workers"), workers) || workers < 0)
                diags.error("--workers expects a non-negative number");
        } else if (a == "--variant") {
            variants.push_back(next("--variant"));
        } else if (a == "--vl") {
            long vl = 0;
            if (!parseInt(next("--vl"), vl) || vl <= 0)
                diags.error("--vl expects a positive number");
            else
                vls.push_back(static_cast<int>(vl));
        } else if (a == "--repeat") {
            if (!parseInt(next("--repeat"), repeat) || repeat < 1)
                diags.error("--repeat expects a positive number");
        } else if (a == "--trip") {
            if (!parseInt(next("--trip"), trip) || trip < 1)
                diags.error("--trip expects a positive number");
        } else if (a == "--retries") {
            if (!parseInt(next("--retries"), retries) || retries < 0)
                diags.error("--retries expects a non-negative number");
        } else if (a == "--cache-cap") {
            if (!parseInt(next("--cache-cap"), cache_cap) ||
                cache_cap < 0)
                diags.error(
                    "--cache-cap expects a non-negative number");
        } else if (a == "--job-timeout") {
            if (!parseDouble(next("--job-timeout"), job_timeout_ms) ||
                job_timeout_ms < 0.0)
                diags.error(
                    "--job-timeout expects a non-negative number of "
                    "milliseconds");
        } else if (a == "--checkpoint") {
            checkpoint_path = next("--checkpoint");
        } else if (a == "--faults") {
            fault_spec = next("--faults");
        } else if (a == "--sim-tier") {
            const std::string &name = next("--sim-tier");
            if (!sim::parseSimTier(name, sim_tier))
                diags.error("--sim-tier expects 'reference' or "
                            "'fast'");
        } else if (a == "--json") {
            json_path = next("--json");
        } else if (a == "--md") {
            md_path = next("--md");
        } else if (a == "--metrics") {
            metrics_path = next("--metrics");
        } else if (a == "--timing") {
            timing = true;
        } else if (a == "--no-cache") {
            use_cache = false;
        } else if (a == "all") {
            ids = lfk::lfkIds();
            ids_given = true;
        } else if (a.size() > 5 &&
                   a.compare(a.size() - 5, 5, ".loop") == 0) {
            loop_files.push_back(a);
        } else if (startsWith(a, "--")) {
            diags.error(
                detail::concat("unknown batch option '", a, "'"));
        } else {
            // A comma-separated LFK id list, e.g. "1,7,12".
            std::vector<int> parsed;
            bool ok = true;
            for (const auto &part : split(a, ',')) {
                long id = 0;
                if (!parseInt(part, id)) {
                    diags.error(detail::concat(
                        "batch expects LFK ids, 'all', or .loop "
                        "files, got '",
                        a, "'"));
                    ok = false;
                    break;
                }
                parsed.push_back(static_cast<int>(id));
            }
            if (ok) {
                // Accumulate across arguments so `macs batch 1 2 3`
                // and `macs batch 1,2,3` mean the same job set (the
                // first id list still replaces the all-kernels
                // default).
                if (!ids_given)
                    ids.clear();
                ids.insert(ids.end(), parsed.begin(), parsed.end());
                ids_given = true;
            }
        }
    }
    for (const std::string &variant : variants) {
        try {
            (void)variantConfig(variant);
        } catch (const FatalError &e) {
            diags.error(e.what());
        }
    }
    // A fault plan given on the command line is validated here too, so
    // a bad spec is reported alongside every other argument problem.
    faults::FaultPlan fault_plan;
    if (!fault_spec.empty())
        fault_plan = faults::FaultPlan::parse(fault_spec, diags);
    diags.throwIfErrors();

    // VALIDATE EVERY INPUT PATH before spinning up workers: a missing
    // or malformed file is reported together with all the others, not
    // by dying on the first mid-batch.
    if (loop_files.empty() == false && !ids_given)
        ids.clear(); // file jobs given, no explicit ids: files only
    std::vector<model::KernelCase> file_kernels;
    for (const std::string &path : loop_files) {
        model::KernelCase kc;
        if (loopFileKernel(path, trip, kc, diags))
            file_kernels.push_back(std::move(kc));
    }
    diags.throwIfErrors();

    if (variants.empty())
        variants.push_back("baseline");
    if (vls.empty())
        vls.push_back(0); // machine default

    std::vector<pipeline::BatchJob> jobs;
    for (long rep = 0; rep < repeat; ++rep) {
        for (const std::string &variant : variants) {
            machine::MachineConfig cfg = variantConfig(variant);
            for (int vl : vls) {
                for (int id : ids) {
                    lfk::Kernel k = lfk::makeKernel(id);
                    pipeline::BatchJob job;
                    job.label = k.name;
                    if (vl > 0)
                        job.label += format("@vl%d", vl);
                    job.configName = variant;
                    job.kernel = lfk::toKernelCase(k);
                    job.config = cfg;
                    job.options.tier = sim_tier;
                    job.vectorLength = vl;
                    jobs.push_back(std::move(job));
                }
                for (const model::KernelCase &kc : file_kernels) {
                    pipeline::BatchJob job;
                    job.label = kc.name;
                    if (vl > 0)
                        job.label += format("@vl%d", vl);
                    job.configName = variant;
                    job.kernel = kc;
                    job.config = cfg;
                    job.options.tier = sim_tier;
                    job.vectorLength = vl;
                    jobs.push_back(std::move(job));
                }
            }
        }
    }

    pipeline::EngineOptions opt;
    opt.workers = static_cast<size_t>(workers);
    opt.useCache = use_cache;
    opt.maxRetries = static_cast<int>(retries);
    opt.jobTimeoutMs = job_timeout_ms;
    opt.cacheCapacity = static_cast<size_t>(cache_cap);

    std::unique_ptr<faults::FaultInjector> injector;
    if (!fault_spec.empty()) {
        injector =
            std::make_unique<faults::FaultInjector>(fault_plan);
        opt.faults = injector.get();
    }

    std::unique_ptr<pipeline::CheckpointJournal> journal;
    if (!checkpoint_path.empty()) {
        // The journal consults the same injector as the engine for
        // its cache-corrupt / io-write-fail sites.
        journal = std::make_unique<pipeline::CheckpointJournal>(
            checkpoint_path, nullptr,
            injector != nullptr ? injector.get()
                                : &faults::FaultInjector::global());
        pipeline::CheckpointJournal::LoadStats ls = journal->open();
        if (ls.loaded + ls.corrupt + ls.torn > 0)
            std::fprintf(stderr,
                         "checkpoint '%s': %zu record(s) resumed, "
                         "%zu corrupt, %zu torn\n",
                         checkpoint_path.c_str(), ls.loaded,
                         ls.corrupt, ls.torn);
        opt.checkpoint = journal.get();
    }

    pipeline::BatchEngine engine(opt);
    pipeline::BatchResult result = engine.run(jobs);

    if (json_path.empty() && md_path.empty() && metrics_path.empty())
        md_path = "-"; // default: markdown on stdout
    if (!json_path.empty())
        writeReport(json_path,
                    pipeline::renderBatchJson(result, timing));
    if (!md_path.empty())
        writeReport(md_path,
                    pipeline::renderBatchMarkdown(result, timing));
    if (!metrics_path.empty()) {
        // Gap attribution as macs_model_* gauges. Recorded into a
        // fresh registry from the analysis results only — a pure
        // function of the job content, so the bytes are identical for
        // any --workers value (the engine's scheduling metrics go to
        // the global registry, not here).
        obs::Registry reg;
        for (const pipeline::JobResult &r : result.results)
            if (r.ok())
                model::recordGapMetrics(reg, *r.analysis, r.configName,
                                        r.label);
        writeReport(metrics_path, obs::renderJson(reg));
    }
    std::fprintf(stderr, "%s\n",
                 pipeline::renderStatsLine(result.stats).c_str());

    // The error manifest: every failed job, its classification, and
    // how many attempts it was given.
    if (!result.errors.empty()) {
        std::fprintf(stderr,
                     "error manifest (%zu of %zu job(s) failed):\n",
                     result.errors.size(), result.stats.jobs);
        for (const pipeline::ErrorRecord &e : result.errors)
            std::fprintf(
                stderr, "  job #%zu %s [%s]: %s (%s, %d attempt%s)\n",
                e.jobIndex, e.label.c_str(), e.configName.c_str(),
                e.message.c_str(), pipeline::errorKindName(e.kind),
                e.attempts, e.attempts == 1 ? "" : "s");
    }
    // Exit-code contract (docs/ROBUSTNESS.md): 0 clean, 2 partial
    // failure (some valid results), 3 total failure.
    return result.exitCode();
}

int
cmdSweep(const std::vector<std::string> &args)
{
    std::vector<int> ids(lfk::lfkIds());
    std::vector<std::string> machine_args, variants, loop_files;
    std::string json_path, md_path;
    long workers = 0, trip = 512, vl = 0, cache_cap = 0;
    bool timing = false, use_cache = true, ids_given = false;
    sim::SimTier sim_tier = sim::SimOptions{}.tier;

    // Collect EVERY argument error before giving up, compiler-style.
    Diagnostics diags("macs sweep");
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *what) -> const std::string & {
            static const std::string empty;
            if (i + 1 >= args.size()) {
                diags.error(
                    detail::concat(what, " expects an argument"));
                return empty;
            }
            return args[++i];
        };
        if (a == "--machines") {
            machine_args.push_back(next("--machines"));
        } else if (a == "--variant") {
            variants.push_back(next("--variant"));
        } else if (a == "--workers") {
            if (!parseInt(next("--workers"), workers) || workers < 0)
                diags.error("--workers expects a non-negative number");
        } else if (a == "--vl") {
            if (!parseInt(next("--vl"), vl) || vl <= 0)
                diags.error("--vl expects a positive number");
        } else if (a == "--trip") {
            if (!parseInt(next("--trip"), trip) || trip < 1)
                diags.error("--trip expects a positive number");
        } else if (a == "--cache-cap") {
            if (!parseInt(next("--cache-cap"), cache_cap) ||
                cache_cap < 0)
                diags.error(
                    "--cache-cap expects a non-negative number");
        } else if (a == "--sim-tier") {
            const std::string &name = next("--sim-tier");
            if (!sim::parseSimTier(name, sim_tier))
                diags.error("--sim-tier expects 'reference' or "
                            "'fast'");
        } else if (a == "--json") {
            json_path = next("--json");
        } else if (a == "--md") {
            md_path = next("--md");
        } else if (a == "--timing") {
            timing = true;
        } else if (a == "--no-cache") {
            use_cache = false;
        } else if (a == "all") {
            ids = lfk::lfkIds();
            ids_given = true;
        } else if (a.size() > 8 &&
                   a.compare(a.size() - 8, 8, ".machine") == 0) {
            machine_args.push_back(a);
        } else if (a.size() > 5 &&
                   a.compare(a.size() - 5, 5, ".loop") == 0) {
            loop_files.push_back(a);
        } else if (startsWith(a, "--")) {
            diags.error(
                detail::concat("unknown sweep option '", a, "'"));
        } else {
            std::vector<int> parsed;
            bool ok = true;
            for (const auto &part : split(a, ',')) {
                long id = 0;
                if (!parseInt(part, id)) {
                    diags.error(detail::concat(
                        "sweep expects LFK ids, 'all', .loop files, "
                        "or .machine files, got '",
                        a, "'"));
                    ok = false;
                    break;
                }
                parsed.push_back(static_cast<int>(id));
            }
            if (ok) {
                if (!ids_given)
                    ids.clear();
                ids.insert(ids.end(), parsed.begin(), parsed.end());
                ids_given = true;
            }
        }
    }
    if (machine_args.empty() && variants.empty())
        diags.error("sweep needs at least one --machines FILE|DIR "
                    "or --variant NAME");
    diags.throwIfErrors();

    // Expand directories to their *.machine files (sorted), then
    // parse and validate EVERY machine before any job runs; a
    // malformed file is reported alongside all the others.
    std::vector<std::string> machine_paths;
    for (const std::string &arg : machine_args) {
        std::error_code ec;
        if (std::filesystem::is_directory(arg, ec)) {
            for (const std::string &p :
                 machine::listMachineFiles(arg, diags))
                machine_paths.push_back(p);
        } else {
            machine_paths.push_back(arg);
        }
    }
    pipeline::SweepRequest request;
    for (const std::string &path : machine_paths) {
        machine::MachineFile mf;
        if (machine::loadMachineFile(path, mf, diags))
            request.machines.push_back({mf.name, mf.description, path,
                                        mf.config});
    }
    for (const std::string &variant : variants) {
        try {
            request.machines.push_back(
                {variant, "built-in variant", "<builtin>",
                 variantConfig(variant)});
        } catch (const FatalError &e) {
            diags.error(e.what());
        }
    }
    std::vector<model::KernelCase> file_kernels;
    for (const std::string &path : loop_files) {
        model::KernelCase kc;
        if (loopFileKernel(path, trip, kc, diags))
            file_kernels.push_back(std::move(kc));
    }
    if (loop_files.empty() == false && !ids_given)
        ids.clear(); // file kernels given, no explicit ids: files only
    for (int id : ids)
        request.kernels.push_back(lfk::toKernelCase(lfk::makeKernel(id)));
    for (model::KernelCase &kc : file_kernels)
        request.kernels.push_back(std::move(kc));
    request.options.tier = sim_tier;
    request.vectorLength = static_cast<int>(vl);
    if (!pipeline::validateSweep(request, diags) || diags.hasErrors())
        diags.throwIfErrors();

    pipeline::EngineOptions opt;
    opt.workers = static_cast<size_t>(workers);
    opt.useCache = use_cache;
    opt.cacheCapacity = static_cast<size_t>(cache_cap);
    pipeline::BatchEngine engine(opt);
    pipeline::SweepResult result = pipeline::runSweep(request, engine);

    if (json_path.empty() && md_path.empty())
        md_path = "-"; // default: markdown on stdout
    if (!json_path.empty())
        writeReport(json_path,
                    pipeline::renderSweepJson(result, timing));
    if (!md_path.empty())
        writeReport(md_path,
                    pipeline::renderSweepMarkdown(result, timing));
    std::fprintf(stderr, "%s\n",
                 pipeline::renderStatsLine(result.stats).c_str());
    return result.exitCode();
}

#ifndef MACS_VERSION_STRING
#define MACS_VERSION_STRING "dev"
#endif

int
cmdVersion()
{
    // Build version plus every stable schema this binary emits, so a
    // consumer can check compatibility before parsing any output.
    std::printf("macs %s\n", MACS_VERSION_STRING);
    std::printf("schemas: macs-batch-v1, macs-sweep-v1, "
                "macs-analysis-v1, macs-metrics-v1, macs-trace-v1, "
                "macs-mp-v1, macs-error-v1, macs-health-v1, "
                "macs-version-v1\n");
    return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void
onStopSignal(int)
{
    g_stop_requested = 1;
}

int
cmdServe(const std::vector<std::string> &args)
{
    std::string host = "127.0.0.1", checkpoint_path, fault_spec;
    std::string port_file;
    long port = 8080, workers = 0, queue = 64, cache_cap = 1024;
    long request_timeout = 5000, retries = 2, trip = 512;
    long max_body = 0, shards = 0, max_conns = 4096;
    long processes = 1, heartbeat_ms = 100, liveness_ms = 2000;
    long restart_budget = 8, drain_timeout = 30000;
    double job_timeout_ms = 0.0;

    Diagnostics diags("macs serve");
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *what) -> const std::string & {
            static const std::string empty;
            if (i + 1 >= args.size()) {
                diags.error(
                    detail::concat(what, " expects an argument"));
                return empty;
            }
            return args[++i];
        };
        if (a == "--host") {
            host = next("--host");
        } else if (a == "--port") {
            if (!parseInt(next("--port"), port) || port < 0 ||
                port > 65535)
                diags.error("--port expects a port number (0 = "
                            "ephemeral)");
        } else if (a == "--port-file") {
            port_file = next("--port-file");
        } else if (a == "--workers") {
            if (!parseInt(next("--workers"), workers) || workers < 0)
                diags.error("--workers expects a non-negative number");
        } else if (a == "--queue") {
            if (!parseInt(next("--queue"), queue) || queue < 1)
                diags.error("--queue expects a positive number");
        } else if (a == "--shards") {
            if (!parseInt(next("--shards"), shards) || shards < 0)
                diags.error("--shards expects a non-negative number "
                            "(0 = auto)");
        } else if (a == "--processes") {
            if (!parseInt(next("--processes"), processes) ||
                processes < 1 || processes > supervisor::kMaxWorkers)
                diags.error(format(
                    "--processes expects a number in [1, %d]",
                    supervisor::kMaxWorkers));
        } else if (a == "--heartbeat-ms") {
            if (!parseInt(next("--heartbeat-ms"), heartbeat_ms) ||
                heartbeat_ms < 1)
                diags.error("--heartbeat-ms expects a positive number "
                            "of milliseconds");
        } else if (a == "--liveness-ms") {
            if (!parseInt(next("--liveness-ms"), liveness_ms) ||
                liveness_ms < 1)
                diags.error("--liveness-ms expects a positive number "
                            "of milliseconds");
        } else if (a == "--restart-budget") {
            if (!parseInt(next("--restart-budget"), restart_budget) ||
                restart_budget < 0)
                diags.error(
                    "--restart-budget expects a non-negative number");
        } else if (a == "--drain-timeout") {
            if (!parseInt(next("--drain-timeout"), drain_timeout) ||
                drain_timeout < 1)
                diags.error("--drain-timeout expects a positive "
                            "number of milliseconds");
        } else if (a == "--max-connections") {
            if (!parseInt(next("--max-connections"), max_conns) ||
                max_conns < 1)
                diags.error(
                    "--max-connections expects a positive number");
        } else if (a == "--cache-cap") {
            if (!parseInt(next("--cache-cap"), cache_cap) ||
                cache_cap < 0)
                diags.error(
                    "--cache-cap expects a non-negative number");
        } else if (a == "--request-timeout") {
            if (!parseInt(next("--request-timeout"),
                          request_timeout) ||
                request_timeout < 1)
                diags.error("--request-timeout expects a positive "
                            "number of milliseconds");
        } else if (a == "--job-timeout") {
            if (!parseDouble(next("--job-timeout"), job_timeout_ms) ||
                job_timeout_ms < 0.0)
                diags.error(
                    "--job-timeout expects a non-negative number of "
                    "milliseconds");
        } else if (a == "--retries") {
            if (!parseInt(next("--retries"), retries) || retries < 0)
                diags.error("--retries expects a non-negative number");
        } else if (a == "--trip") {
            if (!parseInt(next("--trip"), trip) || trip < 1)
                diags.error("--trip expects a positive number");
        } else if (a == "--max-body") {
            if (!parseInt(next("--max-body"), max_body) ||
                max_body < 1)
                diags.error(
                    "--max-body expects a positive number of bytes");
        } else if (a == "--checkpoint") {
            checkpoint_path = next("--checkpoint");
        } else if (a == "--faults") {
            fault_spec = next("--faults");
        } else {
            diags.error(
                detail::concat("unknown serve option '", a, "'"));
        }
    }
    if (liveness_ms <= heartbeat_ms)
        diags.error("--liveness-ms must exceed --heartbeat-ms");
    faults::FaultPlan fault_plan;
    if (!fault_spec.empty())
        fault_plan = faults::FaultPlan::parse(fault_spec, diags);
    diags.throwIfErrors();

    // Socket sends pass MSG_NOSIGNAL, but the supervised heartbeat
    // pipe uses plain write(2): a vanished peer must be EPIPE, never
    // a process-killing SIGPIPE.
    server::ignoreSigpipe();

    // Options shared by the single-process server and every
    // supervised worker; the caller plugs in the per-process bits
    // (port, fleet, injector, journal).
    auto makeOptions = [&](faults::FaultInjector *inj,
                           pipeline::CheckpointJournal *jr) {
        server::ServerOptions opt;
        opt.host = host;
        opt.port = static_cast<int>(port);
        opt.workers = static_cast<size_t>(workers);
        opt.queueCapacity = static_cast<size_t>(queue);
        opt.shards = static_cast<size_t>(shards);
        opt.maxConnections = static_cast<size_t>(max_conns);
        opt.requestTimeoutMs = static_cast<int>(request_timeout);
        opt.defaultTrip = trip;
        opt.versionString = MACS_VERSION_STRING;
        if (max_body > 0)
            opt.limits.maxBodyBytes = static_cast<size_t>(max_body);
        opt.service.maxRetries = static_cast<int>(retries);
        opt.service.jobTimeoutMs = job_timeout_ms;
        opt.service.cacheCapacity = static_cast<size_t>(cache_cap);
        opt.service.checkpoint = jr;
        opt.service.faults = inj;
        opt.faults = inj;
        return opt;
    };
    auto openJournal =
        [&](const std::string &path, const faults::FaultInjector *inj)
        -> std::unique_ptr<pipeline::CheckpointJournal> {
        auto journal = std::make_unique<pipeline::CheckpointJournal>(
            path, nullptr,
            inj != nullptr ? inj : &faults::FaultInjector::global());
        pipeline::CheckpointJournal::LoadStats ls = journal->open();
        if (ls.loaded + ls.corrupt + ls.torn > 0)
            std::fprintf(stderr,
                         "checkpoint '%s': %zu record(s) resumed, "
                         "%zu corrupt, %zu torn\n",
                         path.c_str(), ls.loaded, ls.corrupt,
                         ls.torn);
        return journal;
    };

    // Graceful drain on SIGTERM/SIGINT (docs/SERVER.md): the handler
    // only flips an atomic flag; this thread notices it, stops
    // accepting, lets every in-flight request finish, and exits 0.
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);

    if (processes > 1) {
        // Supervised fleet (docs/SERVER.md "Multi-process serving").
        // A SO_REUSEPORT holder socket resolves an ephemeral --port 0
        // to the concrete port every worker must share; it never
        // accepts, and is closed the moment the whole fleet is ready
        // (on_ready below) — before the port file invites clients in.
        server::Listener holder;
        holder.open(host, static_cast<int>(port), 1, true);
        const int fleet_port = holder.boundPort();

        supervisor::SupervisorOptions sup;
        sup.processes = static_cast<int>(processes);
        sup.heartbeatIntervalMs = static_cast<int>(heartbeat_ms);
        sup.livenessTimeoutMs = static_cast<int>(liveness_ms);
        sup.restart.budget = static_cast<int>(restart_budget);
        sup.drainTimeoutMs = static_cast<int>(drain_timeout);
        sup.stopFlag = &g_stop_requested;

        auto worker_main =
            [&](const supervisor::WorkerContext &ctx) -> int {
            // Child process. The inherited stop flag and holder fd
            // belong to the supervisor's story: reset ours, drop the
            // holder.
            g_stop_requested = 0;
            holder.close();

            std::unique_ptr<faults::FaultInjector> winjector;
            if (!fault_spec.empty())
                winjector =
                    std::make_unique<faults::FaultInjector>(fault_plan);
            supervisor::armProcFaults(
                winjector != nullptr ? *winjector
                                     : faults::FaultInjector::global(),
                ctx.slot, ctx.incarnation);

            // Per-worker journal: a shared append-only file would
            // interleave records across processes.
            std::unique_ptr<pipeline::CheckpointJournal> wjournal;
            if (!checkpoint_path.empty())
                wjournal = openJournal(
                    detail::concat(checkpoint_path, ".w",
                                   std::to_string(ctx.slot)),
                    winjector.get());

            server::ServerOptions wopt =
                makeOptions(winjector.get(), wjournal.get());
            wopt.port = fleet_port;
            wopt.reusePort = true;
            wopt.workerIndex = ctx.slot;
            wopt.fleet = ctx.fleet;

            server::Server srv(wopt);
            srv.start();

            // Heartbeat: one byte per interval. The FIRST beat
            // doubles as the readiness signal (our SO_REUSEPORT
            // socket is bound and accepting). EPIPE means the
            // supervisor is gone — self-drain rather than serve on
            // as an orphan.
            while (g_stop_requested == 0) {
                char beat = 1;
                if (::write(ctx.heartbeatFd, &beat, 1) < 0 &&
                    errno == EPIPE)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        ctx.heartbeatIntervalMs));
            }
            srv.drain();
            server::closeFd(ctx.heartbeatFd);
            std::fprintf(stderr,
                         "macs serve: worker %d: drained cleanly\n",
                         ctx.slot);
            return 0;
        };

        bool port_file_failed = false;
        supervisor::Supervisor fleet(sup, worker_main, [&] {
            holder.close();
            if (!port_file.empty()) {
                std::ofstream pf(port_file);
                if (pf)
                    pf << fleet_port << "\n";
                else {
                    std::fprintf(
                        stderr,
                        "macs serve: cannot write port file '%s'\n",
                        port_file.c_str());
                    port_file_failed = true;
                    g_stop_requested = 1;
                }
            }
            std::fprintf(stderr,
                         "macs serve: supervising %ld workers on "
                         "%s:%d (queue %ld, cache cap %ld)\n",
                         processes, host.c_str(), fleet_port, queue,
                         cache_cap);
        });
        int rc = fleet.run();
        return port_file_failed && rc == 0 ? 1 : rc;
    }

    std::unique_ptr<faults::FaultInjector> injector;
    if (!fault_spec.empty())
        injector = std::make_unique<faults::FaultInjector>(fault_plan);

    std::unique_ptr<pipeline::CheckpointJournal> journal;
    if (!checkpoint_path.empty())
        journal = openJournal(checkpoint_path, injector.get());

    server::Server srv(makeOptions(injector.get(), journal.get()));

    srv.start();
    if (!port_file.empty()) {
        std::ofstream pf(port_file);
        if (!pf)
            fatal("cannot write port file '", port_file, "'");
        pf << srv.port() << "\n";
    }
    std::fprintf(stderr,
                 "macs serve: listening on %s:%d "
                 "(queue %ld, cache cap %ld)\n",
                 host.c_str(), srv.port(), queue, cache_cap);

    while (g_stop_requested == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::fprintf(stderr, "macs serve: draining...\n");
    srv.drain();
    std::fprintf(stderr, "macs serve: drained cleanly\n");
    return 0;
}

int
cmdHttp(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        fatal("http expects: macs http <METHOD> <target> --port N "
              "[--host H] [--data STR | --body FILE] [--retry N] "
              "[--timeout MS] [--content-type CT]");
    const std::string &method = args[0];
    const std::string &target = args[1];
    std::string host = "127.0.0.1", data, body_path;
    std::string content_type = "application/json";
    long port = 8080, timeout = 5000, attempts = 1;

    Diagnostics diags("macs http");
    for (size_t i = 2; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&](const char *what) -> const std::string & {
            static const std::string empty;
            if (i + 1 >= args.size()) {
                diags.error(
                    detail::concat(what, " expects an argument"));
                return empty;
            }
            return args[++i];
        };
        if (a == "--host") {
            host = next("--host");
        } else if (a == "--port") {
            if (!parseInt(next("--port"), port) || port < 1 ||
                port > 65535)
                diags.error("--port expects a port number");
        } else if (a == "--data") {
            data = next("--data");
        } else if (a == "--body") {
            body_path = next("--body");
        } else if (a == "--retry") {
            if (!parseInt(next("--retry"), attempts) || attempts < 1)
                diags.error("--retry expects a positive number of "
                            "attempts");
        } else if (a == "--timeout") {
            if (!parseInt(next("--timeout"), timeout) || timeout < 1)
                diags.error("--timeout expects a positive number of "
                            "milliseconds");
        } else if (a == "--content-type") {
            content_type = next("--content-type");
        } else {
            diags.error(
                detail::concat("unknown http option '", a, "'"));
        }
    }
    diags.throwIfErrors();

    if (!body_path.empty()) {
        if (body_path == "-") {
            std::ostringstream os;
            os << std::cin.rdbuf();
            data = os.str();
        } else {
            std::ifstream in(body_path);
            if (!in)
                fatal("cannot open '", body_path,
                      "': ", std::strerror(errno));
            std::ostringstream os;
            os << in.rdbuf();
            data = os.str();
        }
    }

    server::HttpClient client(host, static_cast<int>(port),
                              static_cast<int>(timeout));
    server::ClientResponse response;
    bool ok = attempts > 1
                  ? client.requestWithRetry(method, target, data,
                                            response,
                                            static_cast<int>(attempts))
                  : client.request(method, target, data, response,
                                   content_type);
    if (!ok) {
        std::fprintf(stderr, "macs http: no response from %s:%ld%s\n",
                     host.c_str(), port, target.c_str());
        return 1;
    }
    std::fprintf(stderr, "HTTP %d\n", response.status);
    std::fputs(response.body.c_str(), stdout);
    return response.status >= 200 && response.status < 300 ? 0 : 2;
}

void
usage()
{
    std::printf(
        "usage: macs <command> [args]\n"
        "  kernels                 list the LFK workloads\n"
        "  analyze <id>            MACS hierarchy report for one LFK\n"
        "  mp [id] [opts]          multi-CPU contention run "
        "(docs/MULTICPU.md; --kernel N,\n"
        "                          --cpus N, --mix independent|"
        "lockstep|strip,\n"
        "                          --engine coupled|analytic, "
        "--machine FILE, --json PATH)\n"
        "  compile <file> [opts]   compile a DSL loop "
        "(--trip N, --array n:w, --scalar, --unroll N)\n"
        "  bounds <file.s>         MAC/MACS/MACS-D bounds of assembly\n"
        "  simulate <file.s>       run assembly on the simulated C-240 "
        "[--trace] [--profile]\n"
        "  trace <kernel>          per-pipe Chrome trace of one run "
        "(lfk1 | 7 | file.s;\n"
        "                          --chrome PATH, --metrics PATH, "
        "--variant V)\n"
        "  batch [ids|all|files.loop] [opts]\n"
        "                          parallel batch analysis "
        "(--workers N, --variant V, --vl N,\n"
        "                          --repeat N, --trip N, --json PATH, "
        "--md PATH, --metrics PATH,\n"
        "                          --timing, --no-cache, "
        "--checkpoint FILE, --job-timeout MS,\n"
        "                          --retries N, --cache-cap N, "
        "--faults SPEC, --sim-tier T)\n"
        "  sweep [ids|all|files.loop] [opts]\n"
        "                          kernel x machine sweep matrix "
        "(--machines FILE|DIR,\n"
        "                          --variant V, --workers N, --vl N, "
        "--trip N, --json PATH,\n"
        "                          --md PATH, --timing, --no-cache, "
        "--cache-cap N, --sim-tier T)\n"
        "  serve [opts]            HTTP analysis server "
        "(docs/SERVER.md; --host H, --port N,\n"
        "                          --port-file PATH, --workers N, "
        "--queue N, --cache-cap N,\n"
        "                          --shards N, --max-connections N,\n"
        "                          --request-timeout MS, "
        "--job-timeout MS, --retries N, --trip N,\n"
        "                          --max-body BYTES, "
        "--checkpoint FILE, --faults SPEC,\n"
        "                          --processes N, --heartbeat-ms MS, "
        "--liveness-ms MS,\n"
        "                          --restart-budget N, "
        "--drain-timeout MS)\n"
        "  http <method> <target>  in-process HTTP client for serve "
        "(--port N, --host H,\n"
        "                          --data STR, --body FILE, "
        "--retry N, --timeout MS)\n"
        "  version                 print the build version and the "
        "emitted schema versions\n"
        "exit codes (docs/ROBUSTNESS.md): 0 = success; 1 = invocation "
        "or input error\n"
        "  (bad arguments, unreadable files, multi-error "
        "diagnostics); for `batch`:\n"
        "  0 = every job succeeded, 2 = partial failure (some valid "
        "results),\n"
        "  3 = total failure (no job produced a result). `serve` "
        "mirrors the same\n"
        "  0/2/3 per request in the X-MACS-Exit-Code response "
        "header; a supervised\n"
        "  fleet (--processes > 1) exits 4 only when every worker "
        "slot is dead.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Exit-code contract: 1 = invocation / input error (including the
    // multi-error diagnostics report), and for `batch` 0/2/3 =
    // clean / partial / total failure (docs/ROBUSTNESS.md).
    if (argc < 2) {
        usage();
        return 1;
    }
    std::vector<std::string> args(argv + 2, argv + argc);
    std::string cmd = argv[1];
    try {
        if (cmd == "kernels")
            return cmdKernels();
        if (cmd == "analyze" && !args.empty())
            return cmdAnalyze(args[0]);
        if (cmd == "mp")
            return cmdMp(args);
        if (cmd == "compile")
            return cmdCompile(args);
        if (cmd == "bounds" && !args.empty())
            return cmdBounds(args[0]);
        if (cmd == "simulate")
            return cmdSimulate(args);
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "batch")
            return cmdBatch(args);
        if (cmd == "sweep")
            return cmdSweep(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "http")
            return cmdHttp(args);
        if (cmd == "version" || cmd == "--version")
            return cmdVersion();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "macs: %s\n", e.what());
        return 1;
    }
    usage();
    return 1;
}
