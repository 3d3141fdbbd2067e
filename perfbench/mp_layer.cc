/**
 * @file
 * The sim/mp layer of sweep-cold's traced run (README.md): multi-CPU
 * requests on the built-in C-240 with its 4 CPUs, {LFK1, LFK7, LFK12}
 * x {independent, lockstep, strip} on the coupled engine, plus the same
 * kernels x {independent, lockstep} on the analytic engine (it cannot
 * strip-mine).
 *
 * This is a per-layer measurement only. A workload timing these
 * requests end to end was dropped: a coupled run hands off every
 * element between its CPU threads, so on a shared 4-CPU host its time
 * swings with whatever else runs (ten-seed spreads of 0.30 to 0.56 at 4
 * and at 2 CPUs), past the 0.25 bound.
 *
 * Oracle: every request runs once through pipeline::runMpAnalysis,
 * untimed; the LFK1 bodies must match tests/golden/mp_matrix.json byte
 * for byte, and every traced coupled run must reproduce the first
 * pass's collision count.
 */

#include <sys/resource.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

#include "lfk/mp_workload.h"
#include "pipeline/mp_report.h"
#include "sim/mp/coupled.h"
#include "sim/multi_cpu.h"
#include "sim/simulator.h"
#include "support/logging.h"

namespace perfbench {

namespace {

using namespace macs;

const std::vector<int> kKernelIds = {1, 7, 12};
constexpr int kCpus = 4;

struct MpCase
{
    pipeline::MpRequest request;
    std::string key; ///< "LFK1/independent/coupled"
    /**
     * The request's compiled P-CPU workload (the traced pass runs it).
     * Shared so the jobs' program pointers stay valid when cases move.
     */
    std::shared_ptr<const lfk::MpWorkload> workload;
};

/** Every request with its P-CPU workload compiled. */
std::vector<MpCase>
buildCases(Tracer &tracer)
{
    std::vector<MpCase> cases;
    for (int id : kKernelIds) {
        for (pipeline::MpEngine engine :
             {pipeline::MpEngine::Coupled, pipeline::MpEngine::Analytic}) {
            for (lfk::MpMix mix : {lfk::MpMix::Independent,
                                   lfk::MpMix::LockStep, lfk::MpMix::Strip}) {
                if (engine == pipeline::MpEngine::Analytic &&
                    mix == lfk::MpMix::Strip)
                    continue;
                MpCase c;
                c.request.kernelId = id;
                c.request.mix = mix;
                c.request.cpus = kCpus;
                c.request.engine = engine;
                c.key = "LFK" + std::to_string(id) + "/" +
                        lfk::mpMixName(mix) + "/" +
                        pipeline::mpEngineName(engine);
                {
                    ScopedSpan span(&tracer, "mp.build");
                    c.workload = std::make_shared<const lfk::MpWorkload>(
                        lfk::buildMpWorkload(id, mix, kCpus));
                }
                cases.push_back(std::move(c));
            }
        }
    }
    return cases;
}

/** The golden bodies by case key (the file is their concatenation). */
std::map<std::string, std::string>
loadGolden(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        fatal("cannot read ", path);
    const std::string head = "{\n  \"schema\": \"macs-mp-v1\"";
    std::vector<size_t> starts;
    for (size_t at = text.find(head); at != std::string::npos;
         at = text.find(head, at + 1))
        starts.push_back(at);
    auto field = [](const std::string &body, const std::string &name) {
        std::string tag = "\"" + name + "\": \"";
        size_t at = body.find(tag);
        if (at == std::string::npos)
            return std::string();
        at += tag.size();
        return body.substr(at, body.find('"', at) - at);
    };
    std::map<std::string, std::string> out;
    for (size_t i = 0; i < starts.size(); ++i) {
        size_t end = i + 1 < starts.size() ? starts[i + 1] : text.size();
        std::string body = text.substr(starts[i], end - starts[i]);
        out[field(body, "kernel") + "/" + field(body, "mix") + "/" +
            field(body, "engine")] = body;
    }
    return out;
}

double
cpuSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
}

/** What the decomposed passes add up. */
struct MpTotals
{
    double userS = 0.0, sysS = 0.0, coupledRuns = 0.0;
    double passCollisions = 0.0, passAccesses = 0.0; ///< of one pass
};

/**
 * One decomposed pass over the cases, each library call in a span:
 * the coupled engine (with getrusage around it), the same P programs
 * as solo fast-tier runs, and the analytic fixed point.
 */
void
decomposedPass(const std::vector<MpCase> &cases,
               const std::map<std::string, uint64_t> &collisions,
               Tracer &tracer, Report &report, MpTotals &t)
{
    machine::MachineConfig cfg = machine::MachineConfig::convexC240();
    uint64_t op = 0;
    t.passCollisions = 0.0;
    t.passAccesses = 0.0;
    for (const MpCase &c : cases) {
        const lfk::MpWorkload &w = *c.workload;
        if (c.request.engine == pipeline::MpEngine::Analytic) {
            std::vector<sim::CpuJob> jobs;
            for (const sim::mp::CoupledJob &j : w.jobs)
                jobs.push_back({j.program, j.setup});
            sim::MultiCpuOptions opt;
            (void)lfk::toWorkloadMix(c.request.mix, opt.mix);
            ScopedSpan span(&tracer, "mp.analytic", op++);
            (void)sim::runMultiCpu(jobs, cfg, opt);
            continue;
        }
        struct rusage before = {}, after = {};
        getrusage(RUSAGE_SELF, &before);
        sim::mp::CoupledResult res;
        {
            ScopedSpan span(&tracer, "mp.coupled", op);
            res = sim::mp::runCoupled(w.jobs, cfg, {});
        }
        getrusage(RUSAGE_SELF, &after);
        t.userS += cpuSeconds(after.ru_utime) - cpuSeconds(before.ru_utime);
        t.sysS += cpuSeconds(after.ru_stime) - cpuSeconds(before.ru_stime);
        t.coupledRuns += 1.0;
        uint64_t hits = 0;
        for (const sim::mp::CoupledCpuResult &cpu : res.cpus) {
            hits += cpu.shared.collisions;
            t.passAccesses += static_cast<double>(cpu.shared.elements +
                                                  cpu.shared.scalarAccesses);
        }
        t.passCollisions += static_cast<double>(hits);
        report.attempt();
        if (collisions.at(c.key) != hits)
            report.fail(c.key + ": coupled collisions differ from the oracle");
        for (const sim::mp::CoupledJob &j : w.jobs) {
            ScopedSpan span(&tracer, "mp.solo_fast", op);
            sim::Simulator solo(cfg, *j.program, sim::SimOptions{});
            if (j.setup)
                j.setup(solo);
            (void)solo.run();
        }
        ++op;
    }
}

} // namespace

void
addMpLayer(const Args &args, double seconds, Tracer &tracer, Report &report)
{
    std::vector<MpCase> cases = buildCases(tracer);

    std::map<std::string, std::string> golden =
        loadGolden(args.root + "/tests/golden/mp_matrix.json");
    std::map<std::string, uint64_t> collisions;
    size_t pinned = 0;
    for (const MpCase &c : cases) {
        pipeline::MpAnalysis a = pipeline::runMpAnalysis(c.request);
        collisions[c.key] = a.collisions;
        auto it = golden.find(c.key);
        if (it == golden.end())
            continue;
        ++pinned;
        if (it->second != pipeline::renderMpJson(a))
            report.wrong(c.key + ": differs from tests/golden/mp_matrix.json");
    }
    if (pinned != golden.size())
        report.wrong("not every golden mp body is covered by the requests");

    MpTotals t;
    double end = nowUs() + seconds * 1e6;
    do {
        decomposedPass(cases, collisions, tracer, report, t);
    } while (nowUs() < end);

    auto totals = tracer.totals();
    double coupled = totals["mp.coupled"].totalUs;
    double solo = totals["mp.solo_fast"].totalUs;
    double coupled_count = static_cast<double>(totals["mp.coupled"].count);
    report.add("mp.coupled_us", totals["mp.coupled"].meanUs(), "us");
    report.add("mp.user_s", t.userS / t.coupledRuns, "s");
    report.add("mp.sys_s", t.sysS / t.coupledRuns, "s");
    report.add("mp.collisions", t.passCollisions, "count");
    report.add("mp.accesses", t.passAccesses, "count");
    report.add("mp.solo_fast_us", solo / coupled_count, "us");
    report.add("mp.coupled_vs_solo", solo > 0 ? coupled / solo : 0.0, "ratio");
    report.add("mp.analytic_us", totals["mp.analytic"].meanUs(), "us");
}

} // namespace perfbench
