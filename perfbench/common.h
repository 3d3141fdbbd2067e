/**
 * @file
 * Shared plumbing of the repository benchmark (README.md): command-line
 * arguments, the result object every workload fills, host-time clocks,
 * order statistics, and the seeded generator that makes every input.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

/** Parsed command line (see main.cc for the flags). */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Repository root: machines/ and tests/golden/ are read from it. */
    std::string root = ".";
    /** Chrome trace-event file of a traced run ("" = do not write). */
    std::string traceOut;
    /** Thread and connection budget: the host's CPUs (at least 1). */
    unsigned threads = 1;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one run reports: ops attempted and failed (a wrong output
 * counts as failed), whether every output matched its oracle, and the
 * metrics. main.cc renders it as the final JSON line.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** Count @p n attempted ops. */
    void attempt(uint64_t n = 1) { attempted += n; }

    /** Count one failed or wrong op; the first few are logged. */
    void fail(const std::string &why);

    /** Mark the outputs wrong without counting an op (oracle setup). */
    void wrong(const std::string &why);

    const Metric *find(const std::string &name) const;

    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** Host microseconds on the steady clock. */
double nowUs();

/** Median / arithmetic mean / q-quantile (0..1, linear) of samples. @{ */
double median(std::vector<double> samples);
double mean(const std::vector<double> &samples);
double quantile(std::vector<double> samples, double q);
/** @} */

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();

/** Log this process's CPU seconds and page faults to stderr. */
void logRusage();

/** Read a whole file; false when it cannot be opened. */
bool readFile(const std::string &path, std::string &out);

/** splitmix64: the one generator every seeded input comes from. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t next();
    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform double in [0, 1). */
    double unit();
    /** Exponential gap with mean 1 / @p rate. */
    double exponential(double rate);

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/**
 * Set-up times of one run. A workload sets up several times before its
 * timed phase and again after it, so `setup_s` (the median of all) is
 * taken at two moments of the run and not at one moment of the host.
 */
class SetupTimer
{
  public:
    /** Run @p setup @p reps times; each call returns its host seconds. */
    template <typename Fn>
    void
    measure(int reps, Fn &&setup)
    {
        for (int rep = 0; rep < reps; ++rep)
            samples_.push_back(setup());
    }

    /** Add `setup_s`, the median of every measured set-up. */
    void
    report(Report &report) const
    {
        report.add("setup_s", median(samples_), "s");
    }

  private:
    std::vector<double> samples_;
};

/**
 * Add the latency metrics of a timed op stream (README.md):
 * latency_p50_us is the geometric mean over op types of each type's
 * median, so a mix of fast and slow request types does not jump from
 * one type to the next; latency_tail_us is the @p tail_q quantile of
 * the ops of type @p tail_type, or of all ops pooled when @p tail_type
 * is negative.
 */
void addLatencyMetrics(Report &report,
                       const std::vector<std::vector<double>> &by_type,
                       double tail_q, int tail_type = -1);

/** Workload entry points. @{ */
Report runSweepCold(const Args &args);
Report runServeMixed(const Args &args);
/** @} */

/**
 * Traced-run layer of sim/mp (mp_layer.cc): run the multi-CPU requests
 * through their oracle, then decomposed passes in spans for @p seconds,
 * and add the mp.* per-layer metrics.
 */
void addMpLayer(const Args &args, double seconds, Tracer &tracer,
                Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
