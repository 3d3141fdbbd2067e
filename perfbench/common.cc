#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/** Wrong outputs logged to stderr before the log goes quiet. */
constexpr uint64_t kLoggedFailures = 8;

} // namespace

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string &why)
{
    ++failed;
    correct = false;
    if (failed <= kLoggedFailures)
        std::fprintf(stderr, "perfbench: FAILED op: %s\n", why.c_str());
}

void
Report::wrong(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "perfbench: WRONG output: %s\n", why.c_str());
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

double
nowUs()
{
    using namespace std::chrono;
    return duration<double, std::micro>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    return sum / static_cast<double>(samples.size());
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
logRusage()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(stderr,
                 "perfbench: cpu user %.3f s, sys %.3f s, page faults %ld "
                 "minor / %ld major\n",
                 static_cast<double>(ru.ru_utime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec) / 1e6,
                 static_cast<double>(ru.ru_stime.tv_sec) +
                     static_cast<double>(ru.ru_stime.tv_usec) / 1e6,
                 ru.ru_minflt, ru.ru_majflt);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::exponential(double rate)
{
    return -std::log1p(-unit()) / rate;
}

void
addLatencyMetrics(Report &report,
                  const std::vector<std::vector<double>> &by_type,
                  double tail_q, int tail_type)
{
    std::vector<double> pooled;
    double log_sum = 0.0;
    size_t types = 0;
    for (const std::vector<double> &ops : by_type) {
        if (ops.empty())
            continue;
        log_sum += std::log(median(ops));
        ++types;
        pooled.insert(pooled.end(), ops.begin(), ops.end());
    }
    double n = static_cast<double>(std::max<size_t>(types, 1));
    report.add("latency_p50_us", std::exp(log_sum / n), "us");
    const std::vector<double> &tail =
        tail_type < 0 ? pooled : by_type[static_cast<size_t>(tail_type)];
    report.add("latency_tail_us", quantile(tail, tail_q), "us");
    std::fprintf(stderr,
                 "perfbench: %zu timed ops of %zu types; pooled p50 %.1f "
                 "p90 %.1f p95 %.1f p99 %.1f us; tail = p%g of %zu %s "
                 "(their p50 %.1f us)\n",
                 pooled.size(), types, quantile(pooled, 0.5),
                 quantile(pooled, 0.9), quantile(pooled, 0.95),
                 quantile(pooled, 0.99), tail_q * 100.0, tail.size(),
                 tail_type < 0 ? "ops pooled" : "ops of one type",
                 median(tail));
}

} // namespace perfbench
