#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<int64_t> openSpans;

} // namespace

int64_t
Tracer::begin(const char *name, uint64_t op)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = openSpans.empty() ? -1 : openSpans.back();
    s.startUs = nowUs();
    int64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.tid = tidLocked();
        id = static_cast<int64_t>(spans_.size());
        spans_.push_back(s);
    }
    openSpans.push_back(id);
    return id;
}

void
Tracer::end(int64_t id)
{
    double t = nowUs();
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].endUs = t;
}

void
Tracer::record(const char *name, double start_us, double end_us,
               uint64_t op)
{
    Span s;
    s.name = name;
    s.startUs = start_us;
    s.endUs = end_us;
    s.op = op;
    std::lock_guard<std::mutex> lock(mu_);
    s.tid = tidLocked();
    spans_.push_back(s);
}

uint32_t
Tracer::tidLocked()
{
    uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
    return tids_.try_emplace(key, static_cast<uint32_t>(tids_.size()))
        .first->second;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_us[static_cast<size_t>(s.parent)] += s.endUs - s.startUs;
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Totals &t = out[s.name];
        double dur = s.endUs - s.startUs;
        ++t.count;
        t.totalUs += dur;
        t.selfUs += dur - child_us[i];
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    double epoch = spans_.empty() ? 0.0 : spans_.front().startUs;
    for (const Span &s : spans_)
        epoch = std::min(epoch, s.startUs);
    std::ostringstream os;
    os << "{\n  \"traceEvents\": [\n";
    os << "    {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
          "\"args\": {\"name\": \"perfbench\"}}";
    char buf[320];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      ",\n    {\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                      "\"cat\": \"layer\", \"name\": \"%s\", \"ts\": %.3f, "
                      "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                      "\"parent\": %lld, \"op\": %llu}}",
                      s.tid, s.name, s.startUs - epoch,
                      s.endUs - s.startUs, i,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.op));
        os << buf;
    }
    os << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n";
    os << "  \"otherData\": {\"schema\": \"macs-perfbench-trace-v1\", "
          "\"timeUnit\": \"host us\"}\n}\n";
    return os.str();
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

void
printSelfTimes(const Tracer &tracer)
{
    std::fprintf(stderr, "perfbench: per-layer span times (host)\n");
    std::fprintf(stderr, "  %-22s %9s %12s %12s %10s\n", "span", "count",
                 "total_ms", "self_ms", "mean_us");
    for (const auto &[name, t] : tracer.totals())
        std::fprintf(stderr, "  %-22s %9llu %12.3f %12.3f %10.2f\n",
                     name.c_str(), static_cast<unsigned long long>(t.count),
                     t.totalUs / 1000.0, t.selfUs / 1000.0, t.meanUs());
}

bool
writeChromeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << tracer.chromeJson();
    return out.good();
}

} // namespace perfbench
