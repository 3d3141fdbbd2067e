/**
 * @file
 * In-memory span recorder of the traced run (README.md, "Tracing").
 *
 * Spans are recorded by the benchmark's own code around its calls into
 * the libraries' public functions; nothing inside src/ is instrumented.
 * Each span carries a name, host start/end, the span that was open on
 * the same thread when it began (its parent), and the op id of the
 * request or cell it belongs to. Spans stay in memory and are written
 * once, at the end, as Chrome trace events (the format `macs trace
 * --chrome` emits). A layer's self time is its span time minus the
 * part its child spans cover.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        double startUs = 0.0;
        double endUs = 0.0;
        int64_t parent = -1;
        uint64_t op = 0;
        uint32_t tid = 0;
    };

    /** Per-name aggregate of closed spans. */
    struct Totals
    {
        uint64_t count = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;

        double meanUs() const
        {
            return count ? totalUs / static_cast<double>(count) : 0.0;
        }
    };

    /** Open a span on this thread (its parent is the innermost open). */
    int64_t begin(const char *name, uint64_t op);
    /** Close the span @p id opened by begin() on this thread. */
    void end(int64_t id);
    /** Record an already-measured interval (no parent). */
    void record(const char *name, double start_us, double end_us,
                uint64_t op);

    /** Aggregates by span name. */
    std::map<std::string, Totals> totals() const;

    /** Chrome trace-event JSON of every span. */
    std::string chromeJson() const;

    size_t size() const;

  private:
    /** Small id of the calling thread for the trace file; mu_ held. */
    uint32_t tidLocked();

    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
    std::map<uint64_t, uint32_t> tids_; // thread hash -> small id
};

/** RAII span; a null tracer records nothing (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, uint64_t op = 0)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(name, op) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int64_t id_;
};

/** Print the per-name span table (count, total, self) to stderr. */
void printSelfTimes(const Tracer &tracer);

/** Write tracer.chromeJson() to @p path; false on I/O failure. */
bool writeChromeTrace(const Tracer &tracer, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
