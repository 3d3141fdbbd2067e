/**
 * @file
 * perfbench — the repository benchmark program (README.md).
 *
 *   perfbench --workload sweep-cold|serve-mixed --seed N
 *             --seconds S --trace 0|1 [--root DIR] [--trace-out FILE]
 *
 * Runs one workload for S host seconds on inputs generated from the
 * seed, checks every output against its oracle, and prints one JSON
 * object as the last line of stdout: {"correct", "attempted",
 * "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
 * set; with --trace 1 they are the per-layer set, taken from spans the
 * benchmark records around its calls into each library.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Report;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics; every workload reports all of them. */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_tail_us", "us"},
};

/**
 * Per-layer metrics of the traced run, by layer. A workload that does
 * not load a layer reports 0 for it (README.md's metric map says which
 * workload loads which layer).
 */
const std::vector<MetricSpec> kPerLayer = {
    {"compiler.compile_us", "us"},
    {"compiler.compiles", "count"},
    {"machine.parse_us", "us"},
    {"macs.bounds_us", "us"},
    {"macs.ax_us", "us"},
    {"macs.model_err_pct", "%"},
    {"sim.run_us.full", "us"},
    {"sim.run_us.a", "us"},
    {"sim.run_us.x", "us"},
    {"sim.instructions", "count"},
    {"sim.cycles", "count"},
    {"sim.host_ns_per_instr", "ns"},
    {"sim.minstr_per_s", "Minstr/s"},
    {"pipeline.queue_wait_us", "us"},
    {"pipeline.compute_us", "us"},
    {"pipeline.worker_util", "ratio"},
    {"pipeline.cache_hit_ratio", "ratio"},
    {"pipeline.cache_evictions", "count"},
    {"server.parse_us", "us"},
    {"server.handle_us", "us"},
    {"server.render_us", "us"},
    {"server.serialize_us", "us"},
    {"server.client_us", "us"},
    {"server.open_p50_us", "us"},
    {"server.open_p95_us", "us"},
    {"server.transport_gap_us", "us"},
    {"server.bytes_per_resp", "bytes"},
    {"server.gen_late_ms", "ms"},
    {"server.drain_ms", "ms"},
    {"server.max_rung_rps", "req/s"},
    {"mp.coupled_us", "us"},
    {"mp.user_s", "s"},
    {"mp.sys_s", "s"},
    {"mp.collisions", "count"},
    {"mp.accesses", "count"},
    {"mp.solo_fast_us", "us"},
    {"mp.coupled_vs_solo", "ratio"},
    {"mp.analytic_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload sweep-cold|serve-mixed "
                 "--seed N --seconds S --trace 0|1\n"
                 "                 [--root DIR] [--trace-out FILE]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    args.threads = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--root")
            args.root = value;
        else if (flag == "--trace-out")
            args.traceOut = value;
        else
            return false;
    }
    return !args.workload.empty() && args.seconds > 0.0;
}

/** Render @p report restricted to @p specs as the final JSON line. */
bool
printResult(const Report &report, const std::vector<MetricSpec> &specs,
            bool missing_is_zero)
{
    std::string out = "{\"correct\": ";
    out += report.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &spec : specs) {
        const Metric *m = report.find(spec.name);
        double value = m != nullptr ? m->value : 0.0;
        if (m == nullptr && !missing_is_zero) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                         spec.name);
            return false;
        }
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         spec.name);
            return false;
        }
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", spec.name, value, spec.unit);
        out += buf;
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage("bad arguments");

    Report report;
    try {
        if (args.workload == "sweep-cold")
            report = perfbench::runSweepCold(args);
        else if (args.workload == "serve-mixed")
            report = perfbench::runServeMixed(args);
        else
            return usage(("unknown workload '" + args.workload + "'")
                             .c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    if (report.attempted == 0) {
        std::fprintf(stderr, "perfbench: no op was attempted\n");
        return 1;
    }
    report.add("peak_rss_mb", perfbench::peakRssMb(), "MB");
    perfbench::logRusage();
    bool ok = args.trace ? printResult(report, kPerLayer, true)
                         : printResult(report, kEndToEnd, false);
    return ok ? 0 : 1;
}
