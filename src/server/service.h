/**
 * @file
 * AnalysisService — the compute core shared by every `macs serve`
 * worker (docs/SERVER.md).
 *
 * The batch CLI runs BatchEngine::run() once over a job set; a server
 * instead receives many small, concurrent job sets whose latencies
 * must not couple. The service therefore evaluates jobs INLINE on the
 * calling thread (the server's compute worker) against one
 * process-wide, LRU-bounded AnalysisCache, reusing the exact guarded
 * compute of the batch engine (pipeline::computeAnalysisGuarded): the
 * same retry/backoff envelope, the same fault sites keyed on
 * (cache key, attempt), the same error taxonomy, and — crucially —
 * the same submission-ordered BatchResult, so renderBatchJson() of a
 * service run is byte-identical to the CLI's output for the same jobs.
 *
 * expandJobSet() is the one definition of how (ids, kernels) x
 * variants x vector lengths x repeat become BatchJobs; `macs batch`
 * and `POST /v1/batch` both call it, which is what makes the HTTP
 * responses reproducible with the CLI.
 */

#ifndef MACS_SERVER_SERVICE_H
#define MACS_SERVER_SERVICE_H

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "pipeline/checkpoint.h"
#include "pipeline/pipeline.h"

namespace macs::server {

/** AnalysisService construction options. */
struct ServiceOptions
{
    /** Retry budget for transient failures of one computation. */
    int maxRetries = 2;
    /** Base backoff before the first retry, doubled per retry. */
    double retryBackoffUs = 1000.0;
    /**
     * Per-job wall-clock deadline in milliseconds; 0 disables. An
     * expired job fails with ErrorKind::Timeout (HTTP 200 with an
     * error entry — the REQUEST deadline is the transport's concern).
     */
    double jobTimeoutMs = 0.0;
    /** Disable memoization (every job recomputes). */
    bool useCache = true;
    /** LRU bound on the shared cache; 0 = unbounded. */
    size_t cacheCapacity = 0;
    /** nullptr means faults::FaultInjector::global(). */
    const faults::FaultInjector *faults = nullptr;
    /** nullptr means obs::Registry::global(). */
    obs::Registry *metrics = nullptr;
    /**
     * Checkpoint journal: seeded into the cache at construction and
     * appended with each newly computed analysis. Must outlive the
     * service. nullptr disables checkpointing.
     */
    pipeline::CheckpointJournal *checkpoint = nullptr;
};

/**
 * The declarative form of one batch request — what `macs batch`'s
 * arguments and a `POST /v1/batch` body both reduce to.
 */
struct JobSetSpec
{
    std::vector<int> ids;                      ///< LFK kernel ids
    std::vector<model::KernelCase> kernels;    ///< compiled loop/asm
    std::vector<std::string> variants;         ///< default: baseline
    std::vector<int> vls;                      ///< default: {0}
    long repeat = 1;
    /** Simulation options applied to every job (tier etc.). The tier
     *  never changes results — both tiers are bit-identical — but it
     *  is part of the cache key, so it is carried explicitly. */
    sim::SimOptions options;
};

/**
 * Expand @p spec exactly like `macs batch` does: repeat x variant x
 * vl x (ids, then kernels), labels suffixed "@vl<N>" for explicit
 * vector lengths. Unknown variants fatal() — validate beforehand.
 */
std::vector<pipeline::BatchJob> expandJobSet(const JobSetSpec &spec);

class AnalysisService
{
  public:
    explicit AnalysisService(ServiceOptions options = {});
    ~AnalysisService();

    AnalysisService(const AnalysisService &) = delete;
    AnalysisService &operator=(const AnalysisService &) = delete;

    /**
     * Evaluate @p jobs on the CALLING thread (results in submission
     * order, shared cache) and return the same BatchResult shape
     * BatchEngine::run() produces. @p cancel, when set, aborts
     * retries/backoffs early (in-flight computes run to completion).
     * Thread-safe: any number of workers may call concurrently.
     */
    pipeline::BatchResult
    runJobs(const std::vector<pipeline::BatchJob> &jobs,
            const std::atomic<bool> *cancel = nullptr);

    /** The shared memo cache. */
    const pipeline::AnalysisCache &cache() const { return cache_; }

    /**
     * Join workers whose deadline expired (strays). Called from the
     * destructor; the server also calls it on drain so no thread
     * outlives the process teardown.
     */
    void reapStrays();

  private:
    void runOne(const pipeline::BatchJob &job,
                pipeline::JobResult &out,
                const std::atomic<bool> *cancel);
    pipeline::AnalysisCache::Value
    computeWithDeadline(const pipeline::BatchJob &job,
                        const pipeline::CacheKey &key, int &attempts,
                        const std::atomic<bool> *cancel);
    obs::Registry &registry() const;

    ServiceOptions options_;
    pipeline::AnalysisCache cache_;

    /** Timed-out worker threads, reaped by reapStrays(). */
    std::mutex straysMu_;
    std::vector<std::thread> strays_;
};

} // namespace macs::server

#endif // MACS_SERVER_SERVICE_H
