/**
 * @file
 * Throughput and latency of `macs serve` (docs/SERVER.md) measured
 * through real loopback sockets.
 *
 * Part 1 — request cost (in-process HTTP client, small client counts):
 *
 *  - SINGLE-SHOT: a fresh server + service is constructed, started,
 *    queried ONCE, and drained per request — the per-invocation cost
 *    a one-shot `macs` process pays on every query (minus exec/link),
 *    which is the serving baseline (docs/SERVER.md).
 *  - COLD: a resident server with the memo cache disabled, at
 *    1 / 4 / 16 concurrent keep-alive clients; every request pays a
 *    full hierarchy analysis — the per-request compute floor.
 *  - WARM: the LRU cache enabled and pre-warmed, so every request is
 *    a cache hit and the measurement isolates HTTP + dispatch.
 *
 * Part 2 — connection scalability (the C10k sweep): 256 / 1024 / 4096
 * concurrent keep-alive connections driven by a single-threaded,
 * poller-based load generator (no thread-per-client: the generator
 * reuses the server's own EventPoller abstraction). Each connection
 * sends a few warm-cache requests separated by a THINK TIME, the
 * interactive pattern in which most connections sit idle; the sweep
 * asserts bounded p99 latency at every tier (think time excluded from
 * latency; connection starts are staggered so the offered load, not
 * a connect burst, is what is measured).
 *
 * `--json PATH` writes the machine-readable summary consumed by the
 * perf regression gate (scripts/perf_gate.py): RATIO metrics are the
 * gated ones (host-independent); absolute RPS is informative.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "server/client.h"
#include "server/poller.h"
#include "server/server.h"
#include "support/table.h"

namespace {

using namespace macs;
using Clock = std::chrono::steady_clock;

/** The request mix: a small rotating LFK id set. */
const int kIds[] = {1, 2, 3};
constexpr size_t kIdCount = sizeof(kIds) / sizeof(kIds[0]);

std::string
bodyFor(int id)
{
    return "{\"kind\": \"lfk\", \"id\": " + std::to_string(id) + "}";
}

struct Measurement
{
    double rps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    size_t requests = 0;
    size_t errors = 0;
};

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Measurement
summarize(std::vector<double> &lat_us, double wall_s, size_t errors)
{
    std::sort(lat_us.begin(), lat_us.end());
    Measurement m;
    m.requests = lat_us.size();
    m.errors = errors;
    m.rps = wall_s > 0.0
                ? static_cast<double>(lat_us.size()) / wall_s
                : 0.0;
    m.p50Us = percentile(lat_us, 0.50);
    m.p99Us = percentile(lat_us, 0.99);
    return m;
}

/**
 * Drive @p clients keep-alive connections for @p per_client requests
 * each against the server on @p port and aggregate RPS + latency.
 * Thread-per-client: fine for the small counts of part 1.
 */
Measurement
drive(int port, size_t clients, size_t per_client)
{
    std::vector<std::vector<double>> lat(clients);
    std::atomic<size_t> errors{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);

    Clock::time_point begin = Clock::now();
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            server::HttpClient client("127.0.0.1", port, 30000);
            lat[c].reserve(per_client);
            for (size_t i = 0; i < per_client; ++i) {
                int id = kIds[(c + i) % kIdCount];
                server::ClientResponse resp;
                Clock::time_point t0 = Clock::now();
                bool ok = client.requestWithRetry(
                    "POST", "/v1/analyze", bodyFor(id), resp,
                    /*attempts=*/3, /*backoff_ms=*/5);
                Clock::time_point t1 = Clock::now();
                if (!ok || resp.status != 200) {
                    errors.fetch_add(1);
                    continue;
                }
                lat[c].push_back(
                    std::chrono::duration<double, std::micro>(t1 - t0)
                        .count());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    double wall_s =
        std::chrono::duration<double>(Clock::now() - begin).count();

    std::vector<double> all;
    for (const auto &v : lat)
        all.insert(all.end(), v.begin(), v.end());
    return summarize(all, wall_s, errors.load());
}

/** One server lifetime: start, optionally pre-warm, drive, drain. */
Measurement
measure(size_t clients, size_t per_client, bool warm_cache)
{
    obs::Registry registry;
    server::ServerOptions opt;
    opt.workers = clients + 1;
    opt.queueCapacity = 2 * clients + 4;
    opt.requestTimeoutMs = 30000;
    opt.metrics = &registry;
    opt.service.metrics = &registry;
    opt.service.useCache = warm_cache;
    opt.service.cacheCapacity = warm_cache ? 1024 : 0;
    server::Server srv(std::move(opt));
    srv.start();

    if (warm_cache) {
        // Pre-warm: one request per unique id so the measured phase
        // is 100% hits.
        server::HttpClient client("127.0.0.1", srv.port(), 30000);
        for (int id : kIds) {
            server::ClientResponse resp;
            if (!client.request("POST", "/v1/analyze", bodyFor(id),
                                resp) ||
                resp.status != 200)
                std::fprintf(stderr, "warm-up request failed\n");
        }
    }

    Measurement m = drive(srv.port(), clients, per_client);
    srv.drain();
    return m;
}

/**
 * Cold single-shot baseline: each query constructs, starts, and
 * drains its own server with the cache disabled — what a one-shot
 * process invocation pays, minus exec/link.
 */
Measurement
measureSingleShot(size_t n)
{
    std::vector<double> lat;
    lat.reserve(n);
    size_t errors = 0;
    Clock::time_point begin = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        Clock::time_point t0 = Clock::now();
        obs::Registry registry;
        server::ServerOptions opt;
        opt.workers = 1;
        opt.metrics = &registry;
        opt.service.metrics = &registry;
        opt.service.useCache = false;
        server::Server srv(std::move(opt));
        srv.start();
        server::HttpClient client("127.0.0.1", srv.port(), 30000);
        server::ClientResponse resp;
        bool ok = client.request("POST", "/v1/analyze",
                                 bodyFor(kIds[i % kIdCount]), resp);
        srv.drain();
        Clock::time_point t1 = Clock::now();
        if (!ok || resp.status != 200) {
            ++errors;
            continue;
        }
        lat.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0)
                .count());
    }
    double wall_s =
        std::chrono::duration<double>(Clock::now() - begin).count();
    return summarize(lat, wall_s, errors);
}

/* ------------------------------------------------------------------ */
/* Part 2: the C10k sweep                                             */
/* ------------------------------------------------------------------ */

/** Think time between a connection's requests; an idle keep-alive
 * connection holds no server thread meanwhile. */
constexpr int kThinkMs = 100;
/** Requests per connection in the sweep. */
constexpr size_t kPerConn = 2;
/** Per-connection start stagger: keeps the offered load below the
 * single-CPU compute capacity so queueing delay, not an artificial
 * connect burst, is what p99 observes. */
constexpr double kStaggerUsPerConn = 250.0;
/** At most this many TCP connects in flight (listen backlog is 128). */
constexpr size_t kConnectWindow = 96;

/**
 * Single-threaded, poller-based load generator: @p conns keep-alive
 * connections, each sending kPerConn warm-cache requests separated by
 * kThinkMs, started on a stagger grid. Latency is per request, send
 * start to response end — think time never counts. Returns the
 * aggregate; any transport error or non-200 is an error.
 */
Measurement
driveC10k(int port, size_t conns)
{
    struct LoadConn
    {
        int fd = -1;
        enum St
        {
            Unstarted,
            Connecting,
            Think,
            Sending,
            Receiving,
            Done,
            Failed
        } st = Unstarted;
        size_t reqLeft = kPerConn;
        size_t sendOff = 0;
        std::string in;
        size_t headerEnd = std::string::npos;
        size_t bodyLen = 0;
        Clock::time_point thinkUntil{};
        Clock::time_point sendStart{};
    };

    // One canned request per id; connections rotate by index.
    std::vector<std::string> requests;
    for (size_t i = 0; i < kIdCount; ++i) {
        std::string body = bodyFor(kIds[i]);
        requests.push_back(
            "POST /v1/analyze HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body);
    }

    server::EventPoller poller;
    std::vector<LoadConn> cs(conns);
    std::vector<double> lat_us;
    lat_us.reserve(conns * kPerConn);
    size_t started = 0, inflight_connects = 0, finished = 0,
           errors = 0;

    Clock::time_point begin = Clock::now();

    auto fail = [&](size_t i) {
        LoadConn &c = cs[i];
        if (c.fd >= 0) {
            poller.del(c.fd);
            ::close(c.fd);
            c.fd = -1;
        }
        if (c.st == LoadConn::Connecting)
            --inflight_connects;
        c.st = LoadConn::Failed;
        ++finished;
        ++errors;
    };

    auto beginConnect = [&](size_t i) {
        LoadConn &c = cs[i];
        c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (c.fd < 0 || !server::setNonBlocking(c.fd)) {
            fail(i);
            return;
        }
        int one = 1;
        (void)::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        int rc = ::connect(
            c.fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
        if (rc != 0 && errno != EINPROGRESS) {
            fail(i);
            return;
        }
        c.st = LoadConn::Connecting;
        ++inflight_connects;
        poller.add(c.fd, /*want_write=*/true,
                   reinterpret_cast<void *>(i + 1));
    };

    // Completing one response: think or finish.
    auto onResponse = [&](size_t i) {
        LoadConn &c = cs[i];
        lat_us.push_back(std::chrono::duration<double, std::micro>(
                             Clock::now() - c.sendStart)
                             .count());
        if (--c.reqLeft == 0) {
            poller.del(c.fd);
            ::close(c.fd);
            c.fd = -1;
            c.st = LoadConn::Done;
            ++finished;
            return;
        }
        c.st = LoadConn::Think;
        c.thinkUntil =
            Clock::now() + std::chrono::milliseconds(kThinkMs);
    };

    auto tryRecv = [&](size_t i) {
        LoadConn &c = cs[i];
        char buf[8192];
        for (;;) {
            ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                c.in.append(buf, static_cast<size_t>(n));
                if (c.headerEnd == std::string::npos) {
                    size_t he = c.in.find("\r\n\r\n");
                    if (he == std::string::npos)
                        continue;
                    c.headerEnd = he + 4;
                    size_t cl = c.in.find("Content-Length: ");
                    if (cl == std::string::npos || cl > he) {
                        fail(i);
                        return;
                    }
                    c.bodyLen = static_cast<size_t>(
                        std::strtoul(c.in.c_str() + cl + 16,
                                     nullptr, 10));
                    if (c.in.compare(0, 12, "HTTP/1.1 200") != 0) {
                        fail(i);
                        return;
                    }
                }
                if (c.in.size() >= c.headerEnd + c.bodyLen) {
                    onResponse(i);
                    return;
                }
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            if (n < 0 && errno == EINTR)
                continue;
            fail(i); // EOF mid-response or transport error
            return;
        }
    };

    auto trySend = [&](size_t i) {
        LoadConn &c = cs[i];
        const std::string &req = requests[i % kIdCount];
        while (c.sendOff < req.size()) {
            ssize_t n = ::send(c.fd, req.data() + c.sendOff,
                               req.size() - c.sendOff, MSG_NOSIGNAL);
            if (n > 0) {
                c.sendOff += static_cast<size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                poller.mod(c.fd, /*want_write=*/true,
                           reinterpret_cast<void *>(i + 1));
                return;
            }
            if (n < 0 && errno == EINTR)
                continue;
            fail(i);
            return;
        }
        c.st = LoadConn::Receiving;
        c.in.clear();
        c.headerEnd = std::string::npos;
        poller.mod(c.fd, /*want_write=*/false,
                   reinterpret_cast<void *>(i + 1));
        tryRecv(i); // bytes may already be queued (fast server)
    };

    auto startSend = [&](size_t i) {
        LoadConn &c = cs[i];
        c.st = LoadConn::Sending;
        c.sendOff = 0;
        c.sendStart = Clock::now();
        trySend(i);
    };

    std::vector<server::PollEvent> events;
    Clock::time_point deadline =
        begin + std::chrono::seconds(180); // stuck-run safety net
    while (finished < conns && Clock::now() < deadline) {
        while (started < conns && inflight_connects < kConnectWindow)
            beginConnect(started++);

        (void)poller.wait(events, 5);
        for (const server::PollEvent &e : events) {
            size_t i =
                reinterpret_cast<size_t>(e.data) - 1;
            LoadConn &c = cs[i];
            switch (c.st) {
            case LoadConn::Connecting: {
                if (e.error) {
                    fail(i);
                    break;
                }
                int err = 0;
                socklen_t len = sizeof(err);
                ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
                if (err != 0) {
                    fail(i);
                    break;
                }
                --inflight_connects;
                // First send fires on the stagger grid, not now.
                c.st = LoadConn::Think;
                c.thinkUntil =
                    begin + std::chrono::microseconds(
                                static_cast<long>(
                                    kStaggerUsPerConn *
                                    static_cast<double>(i)));
                poller.mod(c.fd, /*want_write=*/false,
                           reinterpret_cast<void *>(i + 1));
                break;
            }
            case LoadConn::Sending:
                if (e.error)
                    fail(i);
                else
                    trySend(i);
                break;
            case LoadConn::Receiving:
                if (e.error && !e.readable)
                    fail(i);
                else
                    tryRecv(i);
                break;
            case LoadConn::Think:
                // The server must not speak while we think; bytes or
                // EOF here mean it dropped us (e.g. a deadline).
                if (e.readable || e.error) {
                    char b;
                    if (::recv(c.fd, &b, 1, 0) != -1 ||
                        (errno != EAGAIN && errno != EWOULDBLOCK))
                        fail(i);
                }
                break;
            default:
                break;
            }
        }

        Clock::time_point now = Clock::now();
        for (size_t i = 0; i < conns; ++i)
            if (cs[i].st == LoadConn::Think &&
                now >= cs[i].thinkUntil)
                startSend(i);
    }

    for (size_t i = 0; i < conns; ++i)
        if (cs[i].st != LoadConn::Done && cs[i].st != LoadConn::Failed)
            fail(i); // safety-net timeout: count as errors

    // Offered-load wall time: stagger + thinks dominate by design;
    // RPS is still the honest aggregate over the whole run.
    double wall_s =
        std::chrono::duration<double>(Clock::now() - begin).count();
    return summarize(lat_us, wall_s, errors);
}

/** One sweep point: a warm resident server under C10k load. */
Measurement
measureC10k(size_t conns)
{
    obs::Registry registry;
    server::ServerOptions opt;
    opt.workers = 4;
    opt.shards = 2;
    opt.queueCapacity = conns + 16;
    opt.maxConnections = 2 * conns + 16;
    opt.requestTimeoutMs = 30000;
    opt.metrics = &registry;
    opt.service.metrics = &registry;
    opt.service.useCache = true;
    opt.service.cacheCapacity = 1024;
    server::Server srv(std::move(opt));
    srv.start();
    {
        server::HttpClient client("127.0.0.1", srv.port(), 30000);
        for (int id : kIds) {
            server::ClientResponse resp;
            if (!client.request("POST", "/v1/analyze", bodyFor(id),
                                resp) ||
                resp.status != 200)
                std::fprintf(stderr, "warm-up request failed\n");
        }
    }
    Measurement m = driveC10k(srv.port(), conns);
    srv.drain();
    return m;
}

void
addC10kRow(Table &t, size_t conns, const Measurement &m)
{
    t.addRow({Table::num((long)conns), Table::num((long)m.requests),
              Table::num((long)m.errors),
              Table::num(m.rps, 1), Table::num(m.p50Us, 0),
              Table::num(m.p99Us, 0)});
}

bool
writeJson(const std::string &path, const Measurement &shot,
          double cold4, double warm4, const Measurement &e256,
          const Measurement &e1k, const Measurement &e4k)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": \"macs-bench-server-v1\",\n"
        "  \"gated\": {\n"
        "    \"warm4_vs_single_shot_ratio\": %.3f\n"
        "  },\n"
        "  \"informative\": {\n"
        "    \"single_shot_rps\": %.1f,\n"
        "    \"cold4_rps\": %.1f,\n"
        "    \"warm4_rps\": %.1f,\n"
        "    \"evented_256_rps\": %.1f,\n"
        "    \"evented_1k_rps\": %.1f,\n"
        "    \"evented_4k_rps\": %.1f,\n"
        "    \"evented_256_p99_us\": %.0f,\n"
        "    \"evented_1k_p99_us\": %.0f,\n"
        "    \"evented_4k_p99_us\": %.0f\n"
        "  }\n"
        "}\n",
        shot.rps > 0.0 ? warm4 / shot.rps : 0.0, shot.rps, cold4,
        warm4, e256.rps, e1k.rps, e4k.rps,
        e256.p99Us, e1k.p99Us, e4k.p99Us);
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: server_throughput [--json PATH]\n");
            return 1;
        }
    }

    std::printf("=== macs serve throughput: POST /v1/analyze, "
                "%zu-id LFK mix ===\n\n",
                kIdCount);
    std::printf("hardware threads: %u\n\n",
                std::thread::hardware_concurrency());

    // Untimed warm-up server: pays thread-pool creation, allocator
    // growth, and first-analysis code paths outside any sample.
    (void)measure(1, 4, /*warm_cache=*/true);

    Table t({"clients", "cache", "requests", "errors", "req/s",
             "p50 us", "p99 us"});

    Measurement shot = measureSingleShot(8);
    t.addRow({"1", "single-shot", Table::num((long)shot.requests),
              Table::num((long)shot.errors), Table::num(shot.rps, 1),
              Table::num(shot.p50Us, 0), Table::num(shot.p99Us, 0)});
    if (shot.errors != 0) {
        std::printf("%s\n", t.render().c_str());
        std::printf("ERROR: single-shot request failures (%zu)\n",
                    shot.errors);
        return 1;
    }

    double cold4 = 0.0, warm4 = 0.0;
    for (size_t clients : {1u, 4u, 16u}) {
        // Cold pays a full analysis per request: keep the request
        // count modest so the bench stays quick on small hosts.
        size_t cold_n = 6;
        size_t warm_n = 60;
        Measurement cold =
            measure(clients, cold_n, /*warm_cache=*/false);
        Measurement warm =
            measure(clients, warm_n, /*warm_cache=*/true);
        if (clients == 4) {
            cold4 = cold.rps;
            warm4 = warm.rps;
        }
        t.addRow({Table::num((long)clients), "cold",
                  Table::num((long)cold.requests),
                  Table::num((long)cold.errors),
                  Table::num(cold.rps, 1), Table::num(cold.p50Us, 0),
                  Table::num(cold.p99Us, 0)});
        t.addRow({Table::num((long)clients), "warm",
                  Table::num((long)warm.requests),
                  Table::num((long)warm.errors),
                  Table::num(warm.rps, 1), Table::num(warm.p50Us, 0),
                  Table::num(warm.p99Us, 0)});
        if (cold.errors != 0 || warm.errors != 0) {
            std::printf("%s\n", t.render().c_str());
            std::printf("ERROR: request failures at %zu clients "
                        "(cold %zu, warm %zu)\n",
                        clients, cold.errors, warm.errors);
            return 1;
        }
    }
    std::printf("%s\n", t.render().c_str());

    double shot_ratio = shot.rps > 0.0 ? warm4 / shot.rps : 0.0;
    bool met = shot_ratio >= 5.0;
    std::printf("warm RPS at 4 clients vs cold single-shot: %.1fx "
                "(floor >= 5x): %s\n",
                shot_ratio, met ? "met" : "NOT met");
    double resident_ratio = cold4 > 0.0 ? warm4 / cold4 : 0.0;
    std::printf("resident warm/cold RPS at 4 clients: %.1fx "
                "(informative)\n\n",
                resident_ratio);

    std::printf("=== C10k sweep: %zu req/conn, %d ms think, "
                "staggered starts ===\n\n",
                kPerConn, kThinkMs);

    Table c10k({"conns", "requests", "errors", "req/s", "p50 us",
                "p99 us"});

    Measurement e256 = measureC10k(256);
    addC10kRow(c10k, 256, e256);
    Measurement e1k = measureC10k(1024);
    addC10kRow(c10k, 1024, e1k);
    Measurement e4k = measureC10k(4096);
    addC10kRow(c10k, 4096, e4k);

    std::printf("%s\n", c10k.render().c_str());

    size_t sweep_errors = e256.errors + e1k.errors + e4k.errors;
    if (sweep_errors != 0) {
        std::printf("ERROR: %zu request failures in the C10k sweep\n",
                    sweep_errors);
        return 1;
    }

    // Bounded p99: a thinking herd must not starve active requests.
    // A server that pinned a worker per connection would serialize
    // the herd into waves and show p99 of SECONDS (think time x wave
    // count); the shards must stay orders of magnitude under that at
    // every tier. The bound is loose enough for single-CPU hosts
    // where the load generator itself competes with the server.
    constexpr double kP99BoundUs = 250000.0; // 250 ms
    bool p99_ok = e256.p99Us <= kP99BoundUs &&
                  e1k.p99Us <= kP99BoundUs &&
                  e4k.p99Us <= kP99BoundUs;
    std::printf("p99 at 256/1024/4096 conns: "
                "%.0f/%.0f/%.0f us (bound <= %.0f us): %s\n\n",
                e256.p99Us, e1k.p99Us, e4k.p99Us, kP99BoundUs,
                p99_ok ? "met" : "NOT met");

    std::printf(
        "single-shot pays server + service bootstrap per query (the\n"
        "one-shot CLI pattern); cold keeps the server resident but\n"
        "disables the memo cache, so each request pays a full MACS\n"
        "hierarchy analysis; warm pre-computes the id mix so each\n"
        "request is an LRU cache hit and the remaining cost is HTTP\n"
        "parsing + dispatch + JSON rendering. The C10k sweep drives\n"
        "keep-alive connections with think time; the event-loop\n"
        "shards overlap every idle connection for free.\n");

    if (!json_path.empty() &&
        !writeJson(json_path, shot, cold4, warm4, e256, e1k, e4k))
        return 1;

    return met && p99_ok ? 0 : 1;
}
