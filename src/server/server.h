/**
 * @file
 * `macs serve` — the concurrent analysis server (docs/SERVER.md).
 *
 * Architecture: a small number of event-loop shards (event_loop.h)
 * — epoll-based readiness loops driving non-blocking per-connection
 * state machines (connection.h). Every shard polls the listening
 * socket and accepts, admits, and owns its own connections; there is
 * no acceptor thread. Complete requests are dispatched to the compute
 * ThreadPool and responses posted back through a wakeup doorbell, so
 * thousands of idle keep-alive connections cost no threads: a running
 * server has exactly shards + workers threads. Requests are evaluated
 * through the shared AnalysisService, whose LRU-bounded cache and
 * guarded compute are exactly the batch engine's.
 *
 * Admission control, each answered with a 503 + Retry-After rather
 * than a silent drop: at accept, beyond maxConnections open
 * connections; per request, when queueCapacity requests already wait
 * for a compute worker (the connection is then closed).
 *
 * Graceful drain: requestStop() (atomic, callable from a signal
 * handler's sibling thread) makes the shards stop accepting and
 * finish their in-flight requests, answered with `Connection:
 * close`; drain() wakes and joins them and is idempotent.
 *
 * Fault sites (docs/ROBUSTNESS.md): net-accept (reject an accepted
 * connection with 503), net-read (fail a parsed request with 503 +
 * Retry-After), net-write (cut the connection instead of writing the
 * response). All three leave the client with a retriable signal.
 *
 * Metrics (macs_server_*): requests_total{route,status}, inflight,
 * queue_depth, rejected_total{reason}, connections_total — scraped
 * live via GET /metrics alongside the pipeline/fault counters.
 */

#ifndef MACS_SERVER_SERVER_H
#define MACS_SERVER_SERVER_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "server/http.h"
#include "server/net.h"
#include "server/service.h"
#include "supervisor/fleet_state.h"

namespace macs::server {

class EventLoopCore;

/** Server construction options. */
struct ServerOptions
{
    std::string host = "127.0.0.1";
    /** Listen port; 0 binds an ephemeral port (see Server::port()). */
    int port = 0;
    /** Compute workers; 0 means std::thread::hardware_concurrency(). */
    size_t workers = 0;
    /** Requests waiting for a compute worker before a request 503. */
    size_t queueCapacity = 64;
    /** Event-loop shards; 0 means min(4, cores). */
    size_t shards = 0;
    /** Open-connection bound before an accept-time 503. */
    size_t maxConnections = 4096;
    /** Force the poll(2) poller backend (portability testing). */
    bool pollFallback = false;
    /** Per-request read deadline / keep-alive idle timeout (ms). */
    int requestTimeoutMs = 5000;
    /** Response write deadline (ms). */
    int writeTimeoutMs = 5000;
    /** Retry-After value of backpressure 503s (seconds). */
    int retryAfterSeconds = 1;
    /** Trip count of loop sources that do not specify one. */
    long defaultTrip = 512;
    /** Reported by GET /version alongside the schema list. */
    std::string versionString = "dev";
    /** HTTP parsing limits (431 / 413 beyond these). */
    RequestParser::Limits limits;
    /** Compute envelope of the shared AnalysisService. */
    ServiceOptions service;
    /** Injector of the net-* sites; nullptr means the global one. */
    const faults::FaultInjector *faults = nullptr;
    /** Registry of macs_server_*; nullptr means the global one. */
    obs::Registry *metrics = nullptr;
    /** Bind the listen port with SO_REUSEPORT (multi-process fleet). */
    bool reusePort = false;
    /** Slot index of this worker within a supervised fleet; -1 when
     *  serving single-process. */
    int workerIndex = -1;
    /**
     * Shared fleet state of a supervised run (read-only; the
     * supervisor writes it). When set, /metrics appends the
     * macs_supervisor_* roll-up and /healthz the fleet JSON fields,
     * so a scrape of ANY worker reports fleet-wide state. nullptr
     * when serving single-process.
     */
    const supervisor::FleetState *fleet = nullptr;
};

class Server
{
  public:
    explicit Server(ServerOptions options = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start the shards; fatal() on bind errors. */
    void start();

    /** The bound port (resolves an ephemeral request after start()). */
    int port() const { return listener_.boundPort(); }

    /** Begin drain: stop accepting, let requests finish. Atomic. */
    void requestStop() { stop_.store(true, std::memory_order_release); }

    bool stopping() const
    {
        return stop_.load(std::memory_order_acquire);
    }

    /**
     * requestStop(), wake the shards and join them once every
     * in-flight request is answered, reap deadline strays.
     * Idempotent; also called by the destructor.
     */
    void drain();

    /**
     * Route @p request and produce its response. Public so tests can
     * exercise the dispatch table without a socket; compute workers
     * call exactly this.
     */
    HttpResponse handle(const HttpRequest &request);

    /** The shared compute core (test access to cache counters). */
    AnalysisService &service() { return service_; }

    /**
     * Internal surface used by the event-loop core (event_loop.cc)
     * and white-box tests; not part of the client API.
     * @{
     */
    const ServerOptions &options() const { return options_; }
    obs::Registry &metricsRegistry() const { return registry(); }
    const faults::FaultInjector &faultInjector() const
    {
        return injector();
    }
    pipeline::ThreadPool &computePool() { return *pool_; }
    void countRequest(const std::string &route, int status);
    /** Live connections owned by the shards (0 before start()). */
    size_t connectionCount() const;
    /** @} */

  private:
    HttpResponse handleHealth() const;
    HttpResponse handleMetrics() const;
    HttpResponse handleVersion() const;
    HttpResponse handleAnalyze(const HttpRequest &request);
    HttpResponse handleBatch(const HttpRequest &request);
    HttpResponse handleSweep(const HttpRequest &request);
    HttpResponse handleMultiCpu(const HttpRequest &request);

    obs::Registry &registry() const;
    const faults::FaultInjector &injector() const;

    ServerOptions options_;
    AnalysisService service_;
    /**
     * Memo cache for /v1/multicpu: mpCacheKey -> rendered body. The
     * body is deterministic (byte-identical for any worker count), so
     * caching whole responses is sound; the engine tier is part of
     * the key. Guarded by its own mutex — mp runs are rare and long,
     * and must not contend with the analysis cache.
     */
    std::mutex mpCacheMutex_;
    std::map<std::string, std::string> mpCache_;
    Listener listener_;
    std::unique_ptr<pipeline::ThreadPool> pool_;
    /** Declared after listener_ and pool_: shards die before the
     *  listener they poll and the pool they feed. */
    std::unique_ptr<EventLoopCore> core_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> drained_{false};
};

/** Bounded-cardinality route label of @p path for metrics. */
std::string routeLabel(const std::string &path);

/** Build an error response with an errorBody() payload. */
HttpResponse errorResponse(int status, const std::string &message,
                           const Diagnostics *diags = nullptr);

/**
 * Build the "macs-error-v1" JSON error body: status, message, and
 * (optionally) the structured diagnostics of a failed compile.
 */
std::string errorBody(int status, const std::string &message,
                      const Diagnostics *diags = nullptr);

} // namespace macs::server

#endif // MACS_SERVER_SERVER_H
