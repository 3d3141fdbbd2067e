/**
 * @file
 * Workload `serve-mixed` (README.md): an in-process evented
 * server::Server on an ephemeral port, driven over keep-alive
 * connections by a single-threaded generator in this process.
 *
 * Thread and connection budget (args.threads, 4 on the reference
 * host): one event-loop shard, threads-3 compute workers (at least
 * one), the generator thread, and threads-1 connections. The server's
 * acceptor thread only wakes from its 100 ms accept poll once the
 * connections are open.
 *
 * Mix: mostly repeated POST /v1/analyze {"id": N} and /v1/batch
 * {"ids": [...]} for the paper kernels (cache hits after set-up), and a
 * minority of unique /v1/analyze {"kind": "loop"} bodies with seeded
 * trip counts that compile, compute and insert; the cache capacity is
 * below the unique set, so LRU evictions happen.
 *
 * An untraced run is one closed loop over the connections: throughput
 * (closedThroughput()) and latency from send to answer, per request
 * type. The open loop at kRefRate (Poisson arrivals from the seed;
 * latency from each request's scheduled send time) runs in the traced
 * run, for server.open_p50_us / open_p95_us and the rate ladder: on a
 * shared host its latency swings with the host's speed by more than the
 * 25% bound, so it is not an end-to-end metric. The traced run's
 * per-layer spans come from replays of the open loop's request bytes;
 * an untraced replay of the same bytes gives the tracing overhead.
 *
 * Oracle: every body must be byte-identical to renderBatchJson of the
 * same jobs run through a one-worker BatchEngine (the CLI path), made
 * only for the untimed checks. Hit bodies are precomputed; miss bodies
 * are stored and checked after each phase.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

#include "lfk/kernels.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "server/client.h"
#include "server/http.h"
#include "server/kernel_source.h"
#include "server/server.h"
#include "server/service.h"
#include "support/diag.h"
#include "support/logging.h"
#include "support/strings.h"

namespace perfbench {

namespace {

using namespace macs;

/** Set-ups before the timed phase, and again after it (SetupTimer). */
constexpr int kSetupReps = 13;
/**
 * Offered load of the traced run's open loop (requests per second):
 * about a fifth of the closed-loop capacity, below the queueing knee.
 */
constexpr double kRefRate = 400.0;
/** Share of requests that are unique loop bodies (cache misses). */
constexpr double kMissShare = 0.08;
/** LRU bound: above the hot set, far below the unique miss set. */
constexpr size_t kCacheCapacity = 48;
/** Miss trip counts: a seeded permutation of [kTripLo, kTripLo+span). */
constexpr long kTripLo = 2000;
constexpr long kTripSpan = 2048;
/** DSL kernels whose sources the miss bodies reuse. */
const std::vector<int> kMissSourceIds = {1, 7, 12};
/** Batch bodies of the hot set (the ten /v1/analyze ids come first). */
const std::vector<std::vector<int>> kHotBatches = {
    {1, 7, 12}, {2, 3, 4, 6}, {8, 9, 10}};
/** Rate ladder of the traced run, as multiples of kRefRate. */
const std::vector<double> kLadder = {1.0, 2.0, 4.0, 8.0, 16.0};
/** p99 latency limit a ladder rung must meet. */
constexpr double kP99LimitUs = 20000.0;
/**
 * Replay of the traced run: at most this many recorded requests, in
 * this many pairs of untraced and traced passes.
 */
constexpr size_t kReplayMax = 1000;
constexpr int kReplayPairs = 5;
/** In-flight requests get this long after a phase ends. */
constexpr double kGraceUs = 5e6;

std::string
wireRequest(const std::string &path, const std::string &body)
{
    return "POST " + path +
           " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
           "application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

/** One request of the mix: a hot-set index, or a unique loop body. */
struct Req
{
    int hot = -1;
    int source = 0;
    long trip = 0;
};

/** A hot-set request with its wire bytes, jobs and expected body. */
struct HotReq
{
    std::string path;
    std::string wire;
    server::JobSetSpec spec;
    std::string expected;
};

/** Inputs shared by every phase. */
struct Inputs
{
    std::vector<HotReq> hot;
    std::vector<std::string> missSources;
};

Inputs
buildInputs(Tracer *tracer)
{
    Inputs in;
    for (int id : lfk::lfkIds()) {
        HotReq h;
        h.path = "/v1/analyze";
        h.wire = wireRequest(h.path, "{\"id\": " + std::to_string(id) + "}");
        h.spec.ids = {id};
        in.hot.push_back(std::move(h));
    }
    for (const std::vector<int> &ids : kHotBatches) {
        HotReq h;
        h.path = "/v1/batch";
        std::string body = "{\"ids\": [";
        for (size_t i = 0; i < ids.size(); ++i)
            body += (i ? ", " : "") + std::to_string(ids[i]);
        h.wire = wireRequest(h.path, body + "]}");
        h.spec.ids = ids;
        in.hot.push_back(std::move(h));
    }
    for (int id : kMissSourceIds) {
        ScopedSpan span(tracer, "compiler.compile");
        in.missSources.push_back(lfk::makeKernel(id).sourceText);
    }
    return in;
}

std::string
missBody(const Inputs &in, const Req &r)
{
    return "{\"kind\": \"loop\", \"label\": \"miss\", \"trip\": " +
           std::to_string(r.trip) +
           ", \"source\": \"" + obs::jsonEscape(in.missSources[r.source]) +
           "\"}";
}

std::string
wireOf(const Inputs &in, const Req &r)
{
    return r.hot >= 0 ? in.hot[r.hot].wire
                      : wireRequest("/v1/analyze", missBody(in, r));
}

/** The jobs a request expands to (the CLI path of the oracle). */
std::vector<pipeline::BatchJob>
jobsOf(const Inputs &in, const Req &r, Tracer *tracer, uint64_t op)
{
    if (r.hot >= 0)
        return server::expandJobSet(in.hot[r.hot].spec);
    server::JobSetSpec spec;
    model::KernelCase kc;
    Diagnostics diags;
    bool ok = false;
    {
        ScopedSpan span(tracer, "compiler.compile", op);
        ok = server::kernelFromLoopSource(in.missSources[r.source], "miss",
                                          r.trip, kc, diags);
    }
    if (!ok)
        fatal("miss body does not compile: ", diags.render());
    spec.kernels.push_back(std::move(kc));
    return server::expandJobSet(spec);
}

/** The seeded request stream. */
class Mix
{
  public:
    Mix(uint64_t seed, size_t hot, size_t sources)
        : rng_(seed), hot_(hot), sources_(sources)
    {
        for (long t = 0; t < kTripSpan; ++t)
            trips_.push_back(kTripLo + t);
        rng_.shuffle(trips_);
    }

    Req
    next()
    {
        Req r;
        if (rng_.unit() < kMissShare) {
            r.source = static_cast<int>(rng_.below(sources_));
            r.trip = trips_[nextTrip_++ % trips_.size()];
        } else {
            r.hot = static_cast<int>(rng_.below(hot_));
        }
        return r;
    }

  private:
    Rng rng_;
    size_t hot_;
    size_t sources_;
    std::vector<long> trips_;
    size_t nextTrip_ = 0;
};

/** A miss body kept for checking after the phase. */
struct MissBody
{
    Req req;
    std::string body;
};

/** What one phase measured. */
struct Phase
{
    std::vector<double> latencyUs; ///< from scheduled (open) or sent
    std::vector<double> serviceUs; ///< from sent
    std::vector<int> hot;          ///< hot-set index, or -1 for a miss
    std::vector<double> lateUs;    ///< generator lateness per request
    std::vector<MissBody> misses;
    size_t backlog = 0;            ///< queued unsent when the phase ended
    uint64_t failed = 0;
};

/** A request that fell due: what to send, its op id and due time. */
struct Pending
{
    Req req;
    uint64_t op = 0;
    double dueUs = 0.0;
};

/** One keep-alive connection of the generator. */
struct Conn
{
    int fd = -1;
    bool busy = false;
    Pending cur;
    double sendUs = 0.0;
    std::string in;
};

int
connectTo(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Take one complete response off @p in: 1 done, 0 need more, -1 bad. */
int
takeResponse(std::string &in, int &status, std::string &body)
{
    size_t head = in.find("\r\n\r\n");
    if (head == std::string::npos)
        return 0;
    if (in.compare(0, 9, "HTTP/1.1 ") != 0)
        return -1;
    status = std::atoi(in.c_str() + 9);
    size_t at = in.find("Content-Length: ");
    if (at == std::string::npos || at > head)
        return -1;
    size_t len = std::strtoul(in.c_str() + at + 16, nullptr, 10);
    if (in.size() < head + 4 + len)
        return 0;
    body.assign(in, head + 4, len);
    in.erase(0, head + 4 + len);
    return 1;
}

/**
 * The generator: a fixed set of keep-alive connections driven from
 * this thread with poll(2). Open loop: requests fall due on a seeded
 * Poisson schedule and wait for the next idle connection; latency runs
 * from the due time. Closed loop: each connection sends its next
 * request as soon as the previous answer arrives.
 */
class Generator
{
  public:
    Generator(const Inputs &inputs, int port, size_t connections,
              Report &report)
        : in_(inputs), port_(port), report_(report)
    {
        conns_.resize(connections);
        for (Conn &c : conns_)
            if ((c.fd = connectTo(port_)) < 0)
                fatal("cannot connect to the server on port ", port_);
    }
    ~Generator()
    {
        for (Conn &c : conns_)
            if (c.fd >= 0)
                ::close(c.fd);
    }
    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    Phase
    openLoop(Mix &mix, Rng &arrivals, double rate, double seconds,
             Tracer *tracer, std::vector<std::pair<Req, std::string>> *record)
    {
        Phase p;
        record_ = record;
        tracer_ = tracer;
        std::deque<Pending> queue; // due, not yet sent
        double start = nowUs();
        double end = start + seconds * 1e6;
        double due = start + arrivals.exponential(rate) * 1e6;
        for (;;) {
            double now = nowUs();
            while (due <= now && due < end) {
                queue.push_back({mix.next(), nextOp_++, due});
                p.lateUs.push_back(now - due);
                due += arrivals.exponential(rate) * 1e6;
            }
            for (Conn &c : conns_) {
                if (c.busy || queue.empty())
                    continue;
                send(c, queue.front(), p);
                queue.pop_front();
            }
            if (now >= end && p.backlog == 0)
                p.backlog = queue.size();
            if (now >= end && queue.empty() && !anyBusy())
                break;
            if (now >= end + kGraceUs) {
                abandon(p, queue.size());
                break;
            }
            poll(p);
        }
        return p;
    }

    Phase
    closedLoop(Mix &mix, double seconds)
    {
        Phase p;
        record_ = nullptr;
        tracer_ = nullptr;
        double end = nowUs() + seconds * 1e6;
        for (;;) {
            double now = nowUs();
            for (Conn &c : conns_)
                if (!c.busy && now < end)
                    send(c, {mix.next(), nextOp_++, now}, p);
            if (now >= end && !anyBusy())
                break;
            if (now >= end + kGraceUs) {
                abandon(p, 0);
                break;
            }
            poll(p);
        }
        return p;
    }

  private:
    bool
    anyBusy() const
    {
        for (const Conn &c : conns_)
            if (c.busy)
                return true;
        return false;
    }

    void
    send(Conn &c, const Pending &next, Phase &p)
    {
        std::string wire = wireOf(in_, next.req);
        if (record_ != nullptr)
            record_->emplace_back(next.req, wire);
        c.cur = next;
        c.sendUs = nowUs();
        c.busy = true;
        report_.attempt();
        if (!sendAll(c.fd, wire))
            broken(c, p);
    }

    /** The connection failed: fail its request and reconnect. */
    void
    broken(Conn &c, Phase &p)
    {
        if (c.busy) {
            ++p.failed;
            report_.fail("connection lost mid-request");
        }
        c.busy = false;
        c.in.clear();
        ::close(c.fd);
        c.fd = connectTo(port_);
        if (c.fd < 0)
            fatal("cannot reconnect to the server on port ", port_);
    }

    void
    abandon(Phase &p, size_t queued)
    {
        for (Conn &c : conns_)
            if (c.busy)
                broken(c, p);
        for (size_t i = 0; i < queued; ++i) {
            report_.attempt();
            ++p.failed;
            report_.fail("request never sent (phase grace expired)");
        }
    }

    /**
     * Take every answer that has arrived. Never sleeps: the generator
     * spins on its own CPU of the budget, so its wake-up latency does
     * not enter the measured latency or its send times.
     */
    void
    poll(Phase &p)
    {
        std::vector<pollfd> fds;
        std::vector<Conn *> owners;
        for (Conn &c : conns_) {
            if (!c.busy)
                continue;
            fds.push_back({c.fd, POLLIN, 0});
            owners.push_back(&c);
        }
        int n = ::poll(fds.data(), fds.size(), 0);
        if (n <= 0)
            return;
        char buf[65536];
        for (size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            Conn &c = *owners[i];
            ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
            if (got <= 0) {
                broken(c, p);
                continue;
            }
            c.in.append(buf, static_cast<size_t>(got));
            int status = 0;
            std::string body;
            int r = takeResponse(c.in, status, body);
            if (r == 0)
                continue;
            double done = nowUs();
            if (r < 0) {
                broken(c, p);
                continue;
            }
            c.busy = false;
            p.latencyUs.push_back(done - c.cur.dueUs);
            p.serviceUs.push_back(done - c.sendUs);
            p.hot.push_back(c.cur.req.hot);
            if (tracer_ != nullptr)
                tracer_->record("server.client", c.sendUs, done, c.cur.op);
            // Checks run after the completion stamp, outside every
            // timed interval.
            if (status != 200) {
                ++p.failed;
                report_.fail(format("HTTP %d", status));
            } else if (c.cur.req.hot >= 0) {
                if (body != in_.hot[c.cur.req.hot].expected) {
                    ++p.failed;
                    report_.fail("hot body differs from the CLI path");
                }
            } else {
                p.misses.push_back({c.cur.req, std::move(body)});
            }
        }
    }

    const Inputs &in_;
    int port_;
    Report &report_;
    std::vector<Conn> conns_;
    uint64_t nextOp_ = 0;
    Tracer *tracer_ = nullptr;
    std::vector<std::pair<Req, std::string>> *record_ = nullptr;
};

/**
 * Closed-loop throughput over the whole phase: connections / mean
 * latency (Little's law), so the generator's own work between requests
 * is not counted. A whole-phase mean varies less from run to run than
 * the median of shorter windows: the host's speed changes in episodes
 * of seconds, and a median jumps with whichever episode holds the most
 * windows.
 */
double
closedThroughput(const Phase &p, size_t connections)
{
    return static_cast<double>(connections) /
           (mean(p.serviceUs) / 1e6);
}

/** Latencies of @p p by request type: each hot request, then misses. */
std::vector<std::vector<double>>
latencyByType(const Phase &p, size_t hot_count)
{
    std::vector<std::vector<double>> out(hot_count + 1);
    for (size_t i = 0; i < p.latencyUs.size(); ++i)
        out[p.hot[i] < 0 ? hot_count : static_cast<size_t>(p.hot[i])]
            .push_back(p.latencyUs[i]);
    return out;
}

/**
 * The oracle's engine: the CLI path with one worker. It is made only
 * for an untimed check, so its thread never runs beside a timed phase.
 */
std::unique_ptr<pipeline::BatchEngine>
oracleEngine()
{
    pipeline::EngineOptions eopt;
    eopt.workers = 1;
    return std::make_unique<pipeline::BatchEngine>(eopt);
}

/** Check stored miss bodies against the CLI path (untimed). */
void
verifyMisses(const Inputs &in, Phase &p, Report &report)
{
    auto engine = oracleEngine();
    for (const MissBody &m : p.misses) {
        std::string want = pipeline::renderBatchJson(
            engine->run(jobsOf(in, m.req, nullptr, 0)));
        if (m.body != want) {
            ++p.failed;
            report.fail(format("miss trip %ld differs from the CLI path",
                               m.req.trip));
        }
    }
    p.misses.clear();
}

server::ServerOptions
serverOptions(const Args &args, obs::Registry &registry)
{
    server::ServerOptions o;
    o.port = 0;
    o.shards = 1;
    // One CPU of the budget stays free: with every CPU busy (the
    // generator spins), any other process on the host preempts a server
    // thread, and some runs read twice the latency of others.
    o.workers = args.threads > 3 ? args.threads - 3 : 1;
    o.service.cacheCapacity = kCacheCapacity;
    o.service.metrics = &registry;
    o.metrics = &registry;
    return o;
}

size_t
connectionCount(const Args &args)
{
    return args.threads > 1 ? args.threads - 1 : 1;
}

/** Set-up of one server: start it and warm the hot set through HTTP. */
std::unique_ptr<server::Server>
startServer(const Args &args, const Inputs &in, obs::Registry &registry,
            std::vector<std::string> &warm_bodies)
{
    auto s = std::make_unique<server::Server>(serverOptions(args, registry));
    s->start();
    server::HttpClient client("127.0.0.1", s->port());
    warm_bodies.clear();
    for (const HotReq &h : in.hot) {
        server::ClientResponse resp;
        std::string body = h.wire.substr(h.wire.find("\r\n\r\n") + 4);
        if (!client.request("POST", h.path, body, resp) || resp.status != 200)
            fatal("warming ", h.path, " failed (HTTP ", resp.status, ")");
        warm_bodies.push_back(std::move(resp.body));
    }
    return s;
}

/**
 * Replay recorded request bytes through the server's public functions,
 * without the network: RequestParser, Server::handle,
 * serializeResponse, and renderBatchJson of the same jobs. Each call is
 * in a span when @p tracer is set. Returns the host us of the pass and
 * adds the serialized bytes to @p bytes.
 */
double
replay(server::Server &srv, const Inputs &in,
       const std::vector<std::pair<Req, std::string>> &recorded,
       Tracer *tracer, Report &report, double &bytes)
{
    double t0 = nowUs();
    for (size_t i = 0; i < recorded.size(); ++i) {
        const auto &[req, wire] = recorded[i];
        ScopedSpan whole(tracer, "server.request", i);
        server::HttpRequest request;
        {
            ScopedSpan span(tracer, "server.parse", i);
            server::RequestParser parser;
            parser.feed(wire);
            if (!parser.complete())
                fatal("recorded request does not parse");
            request = parser.take();
        }
        server::HttpResponse response;
        {
            ScopedSpan span(tracer, "server.handle", i);
            response = srv.handle(request);
        }
        std::string out;
        {
            ScopedSpan span(tracer, "server.serialize", i);
            out = server::serializeResponse(response, true);
        }
        bytes += static_cast<double>(out.size());
        pipeline::BatchResult result =
            srv.service().runJobs(jobsOf(in, req, tracer, i));
        std::string rendered;
        {
            ScopedSpan span(tracer, "server.render", i);
            rendered = pipeline::renderBatchJson(result);
        }
        report.attempt();
        if (response.status != 200 || rendered != response.body ||
            (req.hot >= 0 && response.body != in.hot[req.hot].expected))
            report.fail("replayed response differs");
    }
    return nowUs() - t0;
}

/** Drain @p s with idle keep-alive connections open; returns ms. */
double
drainWithIdleConnections(const Args &args, server::Server &s)
{
    std::vector<std::unique_ptr<server::HttpClient>> idle;
    for (size_t i = 0; i < connectionCount(args); ++i) {
        idle.push_back(
            std::make_unique<server::HttpClient>("127.0.0.1", s.port()));
        server::ClientResponse resp;
        if (!idle.back()->request("GET", "/healthz", "", resp))
            fatal("idle connection could not reach /healthz");
    }
    double t0 = nowUs();
    s.requestStop();
    s.drain();
    return (nowUs() - t0) / 1000.0;
}

} // namespace

Report
runServeMixed(const Args &args)
{
    Report report;
    obs::Registry registry;
    Inputs in;
    std::unique_ptr<server::Server> srv;
    std::vector<std::string> warm_bodies;
    std::vector<double> drain_ms;
    auto setup_once = [&] {
        if (srv != nullptr)
            drain_ms.push_back(drainWithIdleConnections(args, *srv));
        srv.reset();
        double t0 = nowUs();
        in = buildInputs(nullptr);
        srv = startServer(args, in, registry, warm_bodies);
        return (nowUs() - t0) / 1e6;
    };
    SetupTimer setup;
    setup.measure(kSetupReps, setup_once);

    // Oracle: the CLI path (BatchEngine + renderBatchJson) per hot body.
    {
        auto engine = oracleEngine();
        for (size_t i = 0; i < in.hot.size(); ++i) {
            HotReq &h = in.hot[i];
            h.expected = pipeline::renderBatchJson(
                engine->run(server::expandJobSet(h.spec)));
            report.attempt();
            if (warm_bodies[i] != h.expected)
                report.fail(h.path +
                            ": warm-up body differs from the CLI path");
        }
    }

    Mix mix(args.seed, in.hot.size(), in.missSources.size());
    Rng arrivals(args.seed ^ 0xa11a1u);
    Generator gen(in, srv->port(), connectionCount(args), report);
    const pipeline::AnalysisCache &cache = srv->service().cache();

    if (!args.trace) {
        Phase closed = gen.closedLoop(mix, args.seconds);
        verifyMisses(in, closed, report);
        report.add("throughput_per_s",
                   closedThroughput(closed, connectionCount(args)), "1/s");
        // The tail is the misses' own p95, so it follows their compile
        // and compute time and not the share of misses in the mix.
        addLatencyMetrics(report, latencyByType(closed, in.hot.size()),
                          0.95, static_cast<int>(in.hot.size()));
        // Replaces the server and the inputs; nothing below uses them.
        setup.measure(kSetupReps, setup_once);
        setup.report(report);
        return report;
    }

    // Traced run: an open loop at the reference rate that records its
    // request bytes, a short rate ladder, then replays of the recorded
    // bytes through the server's public functions in pairs of untraced
    // and traced passes (the pairs give the tracing overhead).
    Tracer tracer;
    (void)buildInputs(&tracer);
    uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    uint64_t evictions0 = cache.evictions();
    std::vector<std::pair<Req, std::string>> recorded;
    Phase open = gen.openLoop(mix, arrivals, kRefRate, args.seconds * 0.4,
                              &tracer, &recorded);
    double hits = static_cast<double>(cache.hits() - hits0);
    double claims = hits + static_cast<double>(cache.misses() - misses0);
    double evictions = static_cast<double>(cache.evictions() - evictions0);
    verifyMisses(in, open, report);

    double max_rung = 0.0;
    for (double m : kLadder) {
        Phase rung = gen.openLoop(mix, arrivals, kRefRate * m,
                                  args.seconds * 0.3 / kLadder.size(),
                                  nullptr, nullptr);
        verifyMisses(in, rung, report);
        bool ok = rung.failed == 0 && rung.backlog <= connectionCount(args) &&
                  quantile(rung.latencyUs, 0.99) <= kP99LimitUs;
        if (!ok)
            break;
        max_rung = kRefRate * m;
    }

    if (recorded.size() > kReplayMax)
        recorded.resize(kReplayMax);
    double bytes = 0.0, plain_bytes = 0.0;
    std::vector<double> ratios; // traced / untraced pass time
    for (int pair = 0; pair < kReplayPairs; ++pair) {
        // Alternate which pass goes first, so a drift of the host's
        // speed within a pair does not lean one way.
        double plain_us = 0.0;
        if (pair % 2 == 0)
            plain_us = replay(*srv, in, recorded, nullptr, report, plain_bytes);
        double traced_us = replay(*srv, in, recorded, &tracer, report, bytes);
        if (pair % 2 != 0)
            plain_us = replay(*srv, in, recorded, nullptr, report, plain_bytes);
        ratios.push_back(traced_us / plain_us);
    }
    drain_ms.push_back(drainWithIdleConnections(args, *srv));

    auto totals = tracer.totals();
    auto meanOf = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.meanUs();
    };
    double client_us = mean(open.serviceUs);
    double replayed = static_cast<double>(recorded.size() * kReplayPairs);
    report.add("compiler.compile_us", meanOf("compiler.compile"), "us");
    report.add("compiler.compiles",
               static_cast<double>(totals["compiler.compile"].count), "count");
    report.add("pipeline.cache_hit_ratio", claims > 0 ? hits / claims : 0.0,
               "ratio");
    report.add("pipeline.cache_evictions", evictions, "count");
    report.add("server.parse_us", meanOf("server.parse"), "us");
    report.add("server.handle_us", meanOf("server.handle"), "us");
    report.add("server.render_us", meanOf("server.render"), "us");
    report.add("server.serialize_us", meanOf("server.serialize"), "us");
    report.add("server.client_us", client_us, "us");
    report.add("server.open_p50_us", median(open.latencyUs), "us");
    report.add("server.open_p95_us", quantile(open.latencyUs, 0.95), "us");
    report.add("server.transport_gap_us",
               client_us - meanOf("server.handle"), "us");
    report.add("server.bytes_per_resp", replayed ? bytes / replayed : 0.0,
               "bytes");
    report.add("server.gen_late_ms", quantile(open.lateUs, 0.99) / 1000.0,
               "ms");
    report.add("server.drain_ms", median(drain_ms), "ms");
    report.add("server.max_rung_rps", max_rung, "req/s");
    report.add("trace.overhead_pct", 100.0 * (median(ratios) - 1.0), "%");
    report.add("trace.spans", static_cast<double>(tracer.size()), "count");
    std::fprintf(stderr,
                 "perfbench: %zu requests replayed in %d pairs of passes; "
                 "traced / untraced time %.3f (median pair)\n",
                 recorded.size(), kReplayPairs, median(ratios));
    printSelfTimes(tracer);
    if (!args.traceOut.empty() && !writeChromeTrace(tracer, args.traceOut))
        report.wrong("cannot write " + args.traceOut);
    return report;
}

} // namespace perfbench
