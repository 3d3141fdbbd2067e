// Tests for the `macs serve` subsystem (docs/SERVER.md): the HTTP/1.1
// parser against the malformed-request corpus (tests/corpus/http/),
// the dispatch table without sockets (Server::handle is public for
// exactly this), end-to-end keep-alive clients whose responses must be
// byte-identical to a local batch render, parser limits (413), read
// deadlines (408), admission-control backpressure (503 + Retry-After),
// the three seeded net fault sites, the shared LRU memo cache, and
// graceful drain.
//
// Every server under test gets a PRIVATE obs::Registry and (where
// faults are involved) a private FaultInjector so tests neither race
// on the process-global registry under TSan nor perturb each other.
// This host may have a single CPU: worker counts are always explicit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "faults/fault_injection.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/cache.h"
#include "pipeline/checkpoint.h"
#include "pipeline/mp_report.h"
#include "pipeline/report.h"
#include "server/client.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"

namespace macs::server {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Read from @p fd until EOF / timeout and return everything seen. */
std::string
readUntilClosed(int fd, int timeout_ms)
{
    std::string out;
    char buf[4096];
    for (;;) {
        int n = readWithDeadline(fd, buf, sizeof(buf), timeout_ms);
        if (n <= 0)
            break;
        out.append(buf, static_cast<size_t>(n));
    }
    return out;
}

/** A Server bound to an ephemeral loopback port with private state. */
struct TestServer
{
    obs::Registry registry;
    std::unique_ptr<faults::FaultInjector> injector;
    std::unique_ptr<Server> server;

    explicit TestServer(ServerOptions opt = {},
                        const std::string &fault_plan = "")
    {
        opt.host = "127.0.0.1";
        opt.port = 0;
        if (opt.workers == 0)
            opt.workers = 2; // explicit: 1-CPU hosts exist
        opt.metrics = &registry;
        opt.service.metrics = &registry;
        if (!fault_plan.empty()) {
            injector = std::make_unique<faults::FaultInjector>(
                faults::FaultPlan::parse(fault_plan), &registry);
            opt.faults = injector.get();
            opt.service.faults = injector.get();
        }
        server = std::make_unique<Server>(std::move(opt));
    }

    void start() { server->start(); }
    int port() const { return server->port(); }
    Server *operator->() { return server.get(); }
};

HttpRequest
makeRequest(const std::string &method, const std::string &target,
            const std::string &body = "")
{
    RequestParser parser;
    std::string msg = method + " " + target + " HTTP/1.1\r\n";
    msg += "Host: test\r\n";
    if (!body.empty() || method == "POST" || method == "PUT")
        msg += "Content-Length: " + std::to_string(body.size()) +
               "\r\n";
    msg += "\r\n" + body;
    parser.feed(msg);
    EXPECT_TRUE(parser.complete()) << method << " " << target;
    return parser.take();
}

// ---------------------------------------------------------------------
// Corpus replay: tests/corpus/http/<status>_<name>.http files parse to
// exactly the status encoded in their filename, both when fed as one
// buffer and byte-at-a-time (the incremental state machine must not
// depend on packet boundaries).
// ---------------------------------------------------------------------

TEST(HttpCorpus, ReplayWholeBuffer)
{
    fs::path dir = fs::path(MACS_CORPUS_DIR) / "http";
    ASSERT_TRUE(fs::exists(dir)) << dir;
    int seen = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue; // stream/ holds connection-level cases
        std::string name = entry.path().filename().string();
        int expected = std::stoi(name.substr(0, 3));
        std::string bytes = readFile(entry.path());
        ASSERT_FALSE(bytes.empty()) << name;

        RequestParser parser;
        parser.feed(bytes);
        if (expected == 200) {
            EXPECT_TRUE(parser.complete()) << name;
            EXPECT_FALSE(parser.failed())
                << name << ": " << parser.errorDetail();
        } else {
            EXPECT_TRUE(parser.failed())
                << name << " should fail but did not";
            EXPECT_EQ(parser.errorStatus(), expected)
                << name << ": " << parser.errorDetail();
        }
        ++seen;
    }
    EXPECT_GE(seen, 15) << "corpus unexpectedly small";
}

TEST(HttpCorpus, ReplayByteAtATime)
{
    fs::path dir = fs::path(MACS_CORPUS_DIR) / "http";
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();
        int expected = std::stoi(name.substr(0, 3));
        std::string bytes = readFile(entry.path());

        RequestParser parser;
        for (char c : bytes) {
            parser.feed(std::string_view(&c, 1));
            if (parser.failed())
                break;
        }
        if (expected == 200) {
            EXPECT_TRUE(parser.complete()) << name;
        } else {
            EXPECT_TRUE(parser.failed()) << name;
            EXPECT_EQ(parser.errorStatus(), expected) << name;
        }
    }
}

/**
 * Send @p bytes on a fresh connection, half-close, and collect the
 * entire response stream until the server closes.
 */
std::string
replayThroughServer(TestServer &ts, const std::string &bytes)
{
    int fd = tcpConnect("127.0.0.1", ts.port(), 2000);
    EXPECT_GE(fd, 0);
    if (fd < 0)
        return "";
    // Best-effort write: on parse-error cases the server may answer
    // and close before the tail of the payload lands.
    (void)writeAll(fd, bytes, 2000);
    ::shutdown(fd, SHUT_WR);
    std::string reply = readUntilClosed(fd, 5000);
    closeFd(fd);
    return reply;
}

/** Every corpus case: top-level parser cases, then stream/ cases. */
std::vector<fs::path>
corpusFiles()
{
    fs::path dir = fs::path(MACS_CORPUS_DIR) / "http";
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.is_regular_file())
            files.push_back(entry.path());
    for (const auto &entry : fs::directory_iterator(dir / "stream"))
        if (entry.is_regular_file())
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

/** tests/golden/http/[stream/]<case>.reply for one corpus file. */
fs::path
goldenReplyPath(const fs::path &corpus_file)
{
    fs::path rel = fs::relative(corpus_file,
                                fs::path(MACS_CORPUS_DIR) / "http");
    return (fs::path(MACS_GOLDEN_DIR) / "http" / rel)
        .replace_extension(".reply");
}

bool
updateGoldenRequested()
{
    const char *env = std::getenv("UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

TEST(HttpGolden, WholeCorpusRepliesMatchGoldens)
{
    // Every corpus case -- parser-level malformed requests AND the
    // connection-level stream/ cases (premature close, interleaved
    // half request, pipelining) -- must produce the response stream
    // pinned under tests/golden/http/, byte for byte. The cases are
    // replayed in sorted order against one fresh server, so stateful
    // replies (/healthz cache_entries) are deterministic. To
    // regenerate after an intentional change, run
    //     UPDATE_GOLDEN=1 ./build/tests/server_test
    //         --gtest_filter=HttpGolden.*
    ServerOptions opt;
    opt.workers = 2;
    TestServer ts(opt);
    ts.start();

    std::vector<fs::path> files = corpusFiles();
    ASSERT_GE(files.size(), 24u) << "corpus unexpectedly small";
    for (const fs::path &path : files) {
        std::string name = path.filename().string();
        std::string bytes = readFile(path);
        ASSERT_FALSE(bytes.empty()) << name;

        std::string reply = replayThroughServer(ts, bytes);
        fs::path golden = goldenReplyPath(path);
        if (updateGoldenRequested()) {
            fs::create_directories(golden.parent_path());
            std::ofstream(golden, std::ios::binary) << reply;
            continue;
        }
        ASSERT_TRUE(fs::exists(golden))
            << golden << " is missing; run with UPDATE_GOLDEN=1";
        EXPECT_EQ(reply, readFile(golden)) << name;

        // Parse-error cases must surface their status on the wire.
        if (std::isdigit(static_cast<unsigned char>(name[0]))) {
            int expected = std::stoi(name.substr(0, 3));
            if (expected != 200) {
                EXPECT_NE(reply.find(" " + std::to_string(expected) +
                                     " "),
                          std::string::npos)
                    << name << ": " << reply;
            }
        }
    }
    ts->drain();
}

TEST(HttpParser, PipelinedRequestsResumeAfterTake)
{
    RequestParser parser;
    parser.feed("GET /first HTTP/1.1\r\nHost: a\r\n\r\n"
                "GET /second HTTP/1.1\r\nHost: a\r\n\r\n");
    ASSERT_TRUE(parser.complete());
    HttpRequest first = parser.take();
    EXPECT_EQ(first.path, "/first");
    ASSERT_TRUE(parser.complete()) << "pipelined bytes lost";
    HttpRequest second = parser.take();
    EXPECT_EQ(second.path, "/second");
    EXPECT_TRUE(parser.idle());
}

TEST(HttpParser, ChunkedBodyAssemblesIdenticalToContentLength)
{
    RequestParser chunked;
    chunked.feed("POST /v1/analyze HTTP/1.1\r\nHost: a\r\n"
                 "Transfer-Encoding: chunked\r\n\r\n"
                 "6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n");
    ASSERT_TRUE(chunked.complete()) << chunked.errorDetail();

    RequestParser plain;
    plain.feed("POST /v1/analyze HTTP/1.1\r\nHost: a\r\n"
               "Content-Length: 11\r\n\r\nhello world");
    ASSERT_TRUE(plain.complete());
    EXPECT_EQ(chunked.take().body, plain.take().body);
}

TEST(HttpParser, QueryDecoding)
{
    RequestParser parser;
    parser.feed("GET /v1/analyze?kind=loop&trip=64&label=a%20b+c "
                "HTTP/1.1\r\nHost: a\r\n\r\n");
    ASSERT_TRUE(parser.complete());
    HttpRequest req = parser.take();
    EXPECT_EQ(req.path, "/v1/analyze");
    EXPECT_EQ(req.queryOr("kind", ""), "loop");
    EXPECT_EQ(req.queryOr("trip", ""), "64");
    EXPECT_EQ(req.queryOr("label", ""), "a b c");
    EXPECT_EQ(req.queryOr("absent", "dflt"), "dflt");
}

TEST(HttpSerialize, DeterministicBytes)
{
    HttpResponse r;
    r.status = 200;
    r.body = "{}";
    std::string a = serializeResponse(r, true);
    std::string b = serializeResponse(r, true);
    EXPECT_EQ(a, b) << "responses must be byte-deterministic";
    EXPECT_NE(a.find("Content-Length: 2\r\n"), std::string::npos);
    EXPECT_NE(a.find("Connection: keep-alive\r\n"),
              std::string::npos);
    std::string c = serializeResponse(r, false);
    EXPECT_NE(c.find("Connection: close\r\n"), std::string::npos);
    EXPECT_EQ(a.find("Date:"), std::string::npos);
}

// ---------------------------------------------------------------------
// Dispatch table without sockets: Server::handle() is public so the
// routing, status codes, and bodies can be asserted deterministically.
// ---------------------------------------------------------------------

TEST(Dispatch, HealthzReportsOkThenDraining)
{
    TestServer ts;
    HttpResponse r = ts->handle(makeRequest("GET", "/healthz"));
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("macs-health-v1"), std::string::npos);
    EXPECT_NE(r.body.find("\"ok\""), std::string::npos);

    ts->requestStop();
    r = ts->handle(makeRequest("GET", "/healthz"));
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"draining\""), std::string::npos);
}

TEST(Dispatch, VersionReportsBuildAndSchemas)
{
    ServerOptions opt;
    opt.versionString = "9.9.9-test";
    TestServer ts(opt);
    HttpResponse r = ts->handle(makeRequest("GET", "/version"));
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("macs-version-v1"), std::string::npos);
    EXPECT_NE(r.body.find("9.9.9-test"), std::string::npos);
    EXPECT_NE(r.body.find("macs-batch-v1"), std::string::npos);
}

TEST(Dispatch, UnknownPathIs404WithErrorSchema)
{
    TestServer ts;
    HttpResponse r = ts->handle(makeRequest("GET", "/nope"));
    EXPECT_EQ(r.status, 404);
    EXPECT_NE(r.body.find("macs-error-v1"), std::string::npos);
}

TEST(Dispatch, WrongMethodIs405)
{
    TestServer ts;
    EXPECT_EQ(ts->handle(makeRequest("POST", "/healthz", "{}")).status,
              405);
    EXPECT_EQ(ts->handle(makeRequest("GET", "/v1/analyze")).status,
              405);
}

TEST(Dispatch, MetricsExposeServerSeries)
{
    TestServer ts;
    (void)ts->handle(makeRequest("GET", "/healthz"));
    HttpResponse r = ts->handle(makeRequest("GET", "/metrics"));
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.contentType.find("text/plain"), std::string::npos);
    EXPECT_NE(r.body.find("macs_server_requests_total"),
              std::string::npos);
    EXPECT_NE(r.body.find("/healthz"), std::string::npos);
}

// ---------------------------------------------------------------------
// /v1/analyze semantics through handle(): byte-identity with a local
// batch render, loop-DSL sources, and the error statuses.
// ---------------------------------------------------------------------

/** The reference bytes: expand + run + render locally. */
std::string
expectedLfkJson(int id)
{
    obs::Registry registry;
    ServiceOptions opt;
    opt.metrics = &registry;
    AnalysisService service(opt);
    JobSetSpec spec;
    spec.ids = {id};
    pipeline::BatchResult result =
        service.runJobs(expandJobSet(spec));
    return pipeline::renderBatchJson(result, false);
}

TEST(Analyze, LfkJsonBodyMatchesLocalBatchRender)
{
    TestServer ts;
    HttpResponse r = ts->handle(makeRequest(
        "POST", "/v1/analyze", "{\"kind\": \"lfk\", \"id\": 1}"));
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_EQ(r.body, expectedLfkJson(1));
    bool has_exit = false;
    for (const auto &[k, v] : r.headers)
        if (k == "X-MACS-Exit-Code") {
            has_exit = true;
            EXPECT_EQ(v, "0");
        }
    EXPECT_TRUE(has_exit);
}

TEST(Analyze, RawLoopSourceViaQueryParams)
{
    TestServer ts;
    HttpResponse r = ts->handle(makeRequest(
        "POST", "/v1/analyze?kind=loop&trip=64&label=saxpy",
        "# axpy kernel\nDO k\n  yy(k) = yy(k) + p1 * xx(k)\nEND\n"));
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_NE(r.body.find("macs-batch-v1"), std::string::npos);
    EXPECT_NE(r.body.find("saxpy"), std::string::npos);
}

// ---------------------------------------------------------------------
// /v1/multicpu: byte-identity with a local render (the response is a
// pure function of the request), memo-cache hits, and error statuses.
// ---------------------------------------------------------------------

TEST(MultiCpu, BodyMatchesLocalRenderAndCaches)
{
    TestServer ts;
    const char *body = "{\"kernel\": 1, \"cpus\": 2, "
                       "\"mix\": \"lockstep\"}";
    HttpResponse r = ts->handle(makeRequest("POST", "/v1/multicpu",
                                            body));
    ASSERT_EQ(r.status, 200) << r.body;

    pipeline::MpRequest req;
    req.kernelId = 1;
    req.cpus = 2;
    req.mix = lfk::MpMix::LockStep;
    EXPECT_EQ(r.body, pipeline::renderMpJson(
                          pipeline::runMpAnalysis(req)));

    // Second hit serves the memoized body byte-for-byte.
    HttpResponse again = ts->handle(
        makeRequest("POST", "/v1/multicpu", body));
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.body, r.body);
}

TEST(MultiCpu, DefaultsAndEngineSelection)
{
    TestServer ts;
    // Empty body: kernel 1 on every CPU of the builtin C-240.
    HttpResponse r = ts->handle(makeRequest("POST", "/v1/multicpu",
                                            ""));
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_NE(r.body.find("\"schema\": \"macs-mp-v1\""),
              std::string::npos);
    EXPECT_NE(r.body.find("\"cpus\": 4"), std::string::npos);
    EXPECT_NE(r.body.find("\"engine\": \"coupled\""),
              std::string::npos);

    HttpResponse a = ts->handle(makeRequest(
        "POST", "/v1/multicpu", "{\"engine\": \"analytic\"}"));
    ASSERT_EQ(a.status, 200) << a.body;
    EXPECT_NE(a.body.find("\"engine\": \"analytic\""),
              std::string::npos);
    // The engine tier is part of the cache key: distinct bodies.
    EXPECT_NE(a.body, r.body);
}

TEST(MultiCpu, RequestErrorsAre400)
{
    TestServer ts;
    EXPECT_EQ(ts->handle(makeRequest("POST", "/v1/multicpu",
                                     "{\"kernel\": 99}"))
                  .status,
              400);
    EXPECT_EQ(ts->handle(makeRequest("POST", "/v1/multicpu",
                                     "{\"cpus\": 8}"))
                  .status,
              400);
    EXPECT_EQ(ts->handle(makeRequest("POST", "/v1/multicpu",
                                     "{\"mix\": \"bogus\"}"))
                  .status,
              400);
    EXPECT_EQ(ts->handle(makeRequest(
                              "POST", "/v1/multicpu",
                              "{\"mix\": \"strip\", "
                              "\"engine\": \"analytic\"}"))
                  .status,
              400);
    EXPECT_EQ(ts->handle(makeRequest("POST", "/v1/multicpu",
                                     "{\"kernel\": [1]}"))
                  .status,
              400);
    EXPECT_EQ(ts->handle(makeRequest("GET", "/v1/multicpu")).status,
              405);
}

TEST(Analyze, CompileErrorIs422WithDiagnostics)
{
    TestServer ts;
    HttpResponse r = ts->handle(makeRequest(
        "POST", "/v1/analyze?kind=loop",
        "DO k\n  yy(k) = (p1 +\nEND\n"));
    EXPECT_EQ(r.status, 422) << r.body;
    EXPECT_NE(r.body.find("macs-error-v1"), std::string::npos);
    EXPECT_NE(r.body.find("diagnostics"), std::string::npos);
}

TEST(Analyze, EmptyAndMalformedBodiesAre400)
{
    TestServer ts;
    EXPECT_EQ(ts->handle(makeRequest("POST", "/v1/analyze")).status,
              400);
    EXPECT_EQ(
        ts->handle(makeRequest("POST", "/v1/analyze", "{nope"))
            .status,
        400);
    EXPECT_EQ(
        ts->handle(makeRequest("POST", "/v1/analyze",
                               "{\"kind\": \"lfk\", \"id\": 1, "
                               "\"variant\": \"warp-drive\"}"))
            .status,
        400);
}

TEST(Analyze, WrongTypedJsonFieldsAre400NotPanic)
{
    // JsonValue accessors assert on type mismatches (PanicError); a
    // wrong-typed field in a client body must still surface as a 400
    // request-shape error, never a 500.
    TestServer ts;
    const char *bodies[] = {
        "{\"source\": {\"nested\": \"object\"}}", // source not string
        "{\"kind\": 7, \"id\": 1}",               // kind not string
        "{\"id\": 1, \"variant\": [\"baseline\"]}", // variant array
    };
    for (const char *body : bodies) {
        HttpResponse r =
            ts->handle(makeRequest("POST", "/v1/analyze", body));
        EXPECT_EQ(r.status, 400) << body << " -> " << r.body;
        EXPECT_NE(r.body.find("malformed analyze request"),
                  std::string::npos)
            << r.body;
    }
    HttpResponse rb = ts->handle(makeRequest(
        "POST", "/v1/batch", "{\"ids\": [1], \"variants\": [3]}"));
    EXPECT_EQ(rb.status, 400) << rb.body;
    EXPECT_NE(rb.body.find("malformed batch request"),
              std::string::npos)
        << rb.body;
}

TEST(Batch, MultiJobRequestMatchesLocalExpansion)
{
    TestServer ts;
    HttpResponse r = ts->handle(makeRequest(
        "POST", "/v1/batch", "{\"ids\": [1, 2], \"repeat\": 2}"));
    ASSERT_EQ(r.status, 200) << r.body;

    obs::Registry registry;
    ServiceOptions opt;
    opt.metrics = &registry;
    AnalysisService service(opt);
    JobSetSpec spec;
    spec.ids = {1, 2};
    spec.repeat = 2;
    std::string expected = pipeline::renderBatchJson(
        service.runJobs(expandJobSet(spec)), false);
    EXPECT_EQ(r.body, expected);
}

TEST(SimTier, ReferenceTierIsByteIdenticalAndBadTierIs400)
{
    // The tier is plumbed through analyze/batch/sweep for the
    // differential oracle; either tier must render identical bytes.
    TestServer ts;
    const char *body = "{\"kind\": \"lfk\", \"id\": 3}";
    HttpResponse fast =
        ts->handle(makeRequest("POST", "/v1/analyze", body));
    HttpResponse query = ts->handle(makeRequest(
        "POST", "/v1/analyze?sim_tier=reference", body));
    HttpResponse field = ts->handle(makeRequest(
        "POST", "/v1/analyze",
        "{\"kind\": \"lfk\", \"id\": 3, \"sim_tier\": "
        "\"reference\"}"));
    ASSERT_EQ(fast.status, 200) << fast.body;
    EXPECT_EQ(query.body, fast.body);
    EXPECT_EQ(field.body, fast.body);

    const char *sweep_body = "{\"machines\": [{\"variant\": "
                             "\"baseline\"}], \"ids\": [1]}";
    HttpResponse sweep_fast =
        ts->handle(makeRequest("POST", "/v1/sweep", sweep_body));
    HttpResponse sweep_ref = ts->handle(makeRequest(
        "POST", "/v1/sweep?sim_tier=reference", sweep_body));
    ASSERT_EQ(sweep_fast.status, 200) << sweep_fast.body;
    EXPECT_EQ(sweep_ref.body, sweep_fast.body);

    HttpResponse bad = ts->handle(makeRequest(
        "POST", "/v1/batch?sim_tier=warp", "{\"ids\": [1]}"));
    EXPECT_EQ(bad.status, 400) << bad.body;
    EXPECT_NE(bad.body.find("unknown sim_tier"), std::string::npos)
        << bad.body;
}

// ---------------------------------------------------------------------
// End-to-end over sockets.
// ---------------------------------------------------------------------

TEST(EndToEnd, ParallelKeepAliveClientsByteIdentical)
{
    ServerOptions opt;
    opt.workers = 4;
    TestServer ts(opt);
    ts.start();

    const std::vector<int> ids = {1, 2, 3};
    std::map<int, std::string> expected;
    for (int id : ids)
        expected[id] = expectedLfkJson(id);

    constexpr int kClients = 4;
    constexpr int kRounds = 3;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            HttpClient client("127.0.0.1", ts.port());
            for (int round = 0; round < kRounds; ++round) {
                for (int id : ids) {
                    ClientResponse resp;
                    std::string body =
                        "{\"kind\": \"lfk\", \"id\": " +
                        std::to_string(id) + "}";
                    if (!client.requestWithRetry(
                            "POST", "/v1/analyze", body, resp)) {
                        failures.fetch_add(1);
                        continue;
                    }
                    if (resp.status != 200 ||
                        resp.body != expected[id])
                        mismatches.fetch_add(1);
                }
            }
            (void)c;
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    // 4 clients x 3 rounds x 3 ids = 36 requests, 3 unique keys.
    EXPECT_GE(ts->service().cache().hits(), 30u);
    EXPECT_EQ(ts->service().cache().misses(), 3u);
}

TEST(EndToEnd, SharedCacheSpansConnections)
{
    TestServer ts;
    ts.start();
    std::string body = "{\"kind\": \"lfk\", \"id\": 7}";

    ClientResponse first, second;
    {
        HttpClient a("127.0.0.1", ts.port());
        ASSERT_TRUE(a.request("POST", "/v1/analyze", body, first));
    }
    {
        HttpClient b("127.0.0.1", ts.port());
        ASSERT_TRUE(b.request("POST", "/v1/analyze", body, second));
    }
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(first.body, second.body);
    EXPECT_GE(ts->service().cache().hits(), 1u);
    EXPECT_EQ(ts->service().cache().misses(), 1u);
}

TEST(EndToEnd, OversizedBodyIs413)
{
    ServerOptions opt;
    opt.limits.maxBodyBytes = 128;
    TestServer ts(opt);
    ts.start();

    HttpClient client("127.0.0.1", ts.port());
    ClientResponse resp;
    std::string big(4096, 'x');
    ASSERT_TRUE(client.request("POST", "/v1/analyze", big, resp));
    EXPECT_EQ(resp.status, 413);
    EXPECT_NE(resp.body.find("macs-error-v1"), std::string::npos);
}

TEST(EndToEnd, TornRequestGets408OnDeadline)
{
    ServerOptions opt;
    opt.requestTimeoutMs = 150;
    TestServer ts(opt);
    ts.start();

    int fd = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeAll(fd, "GET /healthz HTT", 1000));
    std::string reply = readUntilClosed(fd, 2000);
    closeFd(fd);
    EXPECT_NE(reply.find(" 408 "), std::string::npos) << reply;
}

TEST(EndToEnd, IdleKeepAliveClosesQuietly)
{
    ServerOptions opt;
    opt.requestTimeoutMs = 100;
    TestServer ts(opt);
    ts.start();

    int fd = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(fd, 0);
    // No bytes sent: the idle deadline must close without a response.
    std::string reply = readUntilClosed(fd, 2000);
    closeFd(fd);
    EXPECT_TRUE(reply.empty()) << reply;
}

TEST(EndToEnd, ChunkedPostMatchesContentLengthPost)
{
    TestServer ts;
    ts.start();

    std::string body = "{\"kind\": \"lfk\", \"id\": 4}";
    HttpClient client("127.0.0.1", ts.port());
    ClientResponse plain;
    ASSERT_TRUE(client.request("POST", "/v1/analyze", body, plain));

    int fd = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(fd, 0);
    std::string msg =
        "POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
        "Content-Type: application/json\r\n"
        "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    char size_line[16];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                  body.size());
    msg += size_line;
    msg += body + "\r\n0\r\n\r\n";
    ASSERT_TRUE(writeAll(fd, msg, 1000));
    std::string reply = readUntilClosed(fd, 5000);
    closeFd(fd);

    size_t split = reply.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    EXPECT_NE(reply.find(" 200 "), std::string::npos);
    EXPECT_EQ(reply.substr(split + 4), plain.body);
}

// ---------------------------------------------------------------------
// Admission control and fault sites.
// ---------------------------------------------------------------------

TEST(EndToEnd, BackpressureRejectsWith503AndRetryAfter)
{
    // Accept-time admission: beyond maxConnections open connections a
    // new one is answered 503 + Retry-After and closed, not dropped.
    ServerOptions opt;
    opt.maxConnections = 1;
    opt.retryAfterSeconds = 7;
    TestServer ts(opt);
    ts.start();

    int held = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(held, 0);
    for (int i = 0; i < 100 && ts->connectionCount() < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(ts->connectionCount(), 1u);

    int rejected = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(rejected, 0);
    std::string reply = readUntilClosed(rejected, 2000);
    EXPECT_NE(reply.find(" 503 "), std::string::npos) << reply;
    EXPECT_NE(reply.find("Retry-After: 7"), std::string::npos)
        << reply;

    closeFd(rejected);
    closeFd(held);
    ts->drain();
    std::string prom = obs::renderPrometheus(ts.registry);
    EXPECT_NE(prom.find("macs_server_rejected_total{reason="
                        "\"backpressure\"} 1"),
              std::string::npos)
        << prom;
}

TEST(EndToEnd, FullComputeQueueShedsKeepAliveRequestWith503)
{
    // Request-level admission: a request on an already-admitted
    // keep-alive connection is shed once queueCapacity requests wait
    // for a compute worker.
    ServerOptions opt;
    opt.workers = 1;
    opt.queueCapacity = 1;
    opt.retryAfterSeconds = 7;
    TestServer ts(opt);
    ts.start();

    HttpClient client("127.0.0.1", ts.port());
    ClientResponse resp;
    ASSERT_TRUE(client.request("GET", "/healthz", "", resp));
    ASSERT_EQ(resp.status, 200);

    // Pin the only worker on a latch, then queue one more task. The
    // latch opens when the test scope ends, even on a failed ASSERT,
    // so the server's drain never waits on a blocked worker.
    struct Latch
    {
        std::promise<void> release;
        std::shared_future<void> opened = release.get_future().share();
        ~Latch() { release.set_value(); }
    } latch;
    std::atomic<bool> running{false};
    pipeline::ThreadPool &pool = ts->computePool();
    pool.submit([&running, opened = latch.opened] {
        running = true;
        opened.wait();
    });
    for (int i = 0; i < 500 && !running; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(running);
    pool.submit([opened = latch.opened] { opened.wait(); });
    ASSERT_EQ(pool.queuedTasks(), 1u);

    ASSERT_TRUE(client.request("GET", "/healthz", "", resp));
    EXPECT_EQ(resp.status, 503);
    const std::string *retry = resp.header("retry-after");
    ASSERT_NE(retry, nullptr);
    EXPECT_EQ(*retry, "7");
    const std::string *conn = resp.header("connection");
    ASSERT_NE(conn, nullptr);
    EXPECT_EQ(*conn, "close");

    std::string prom = obs::renderPrometheus(ts.registry);
    EXPECT_NE(prom.find("macs_server_rejected_total{reason="
                        "\"backpressure\"} 1"),
              std::string::npos)
        << prom;
}

TEST(EndToEnd, ServerThreadsAreShardsPlusWorkers)
{
    // No acceptor thread: the shards accept for themselves.
    auto thread_count = [] {
        size_t n = 0;
        for (const auto &task :
             fs::directory_iterator("/proc/self/task")) {
            (void)task;
            ++n;
        }
        return n;
    };
    // Sanitizer runtimes start a helper thread at the first thread
    // creation; trigger it here so it is not counted as the server's.
    std::thread([] {}).join();
    size_t before = thread_count();
    ServerOptions opt;
    opt.workers = 2;
    opt.shards = 3;
    TestServer ts(opt);
    ts.start();
    EXPECT_EQ(thread_count() - before, 5u);

    HttpClient client("127.0.0.1", ts.port());
    ClientResponse resp;
    ASSERT_TRUE(client.request("GET", "/healthz", "", resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(thread_count() - before, 5u);
    ts->drain();
}

TEST(EndToEnd, IdleShardsTakeTurnsAccepting)
{
    // Every shard polls the one listener; a shard that accepted
    // steps to the back of the line, so idle shards share the load.
    ServerOptions opt;
    opt.shards = 2;
    TestServer ts(opt);
    ts.start();

    std::vector<int> fds;
    for (size_t i = 1; i <= 4; ++i) {
        fds.push_back(tcpConnect("127.0.0.1", ts.port(), 1000));
        ASSERT_GE(fds.back(), 0);
        for (int t = 0; t < 100 && ts->connectionCount() < i; ++t)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_EQ(ts->connectionCount(), i);
    }
    for (const char *shard : {"0", "1"}) {
        double owned = ts->metricsRegistry()
                           .gauge("macs_server_shard_connections",
                                  "Connections owned per event-loop "
                                  "shard",
                                  obs::Labels{{"shard", shard}})
                           .value();
        EXPECT_GE(owned, 1.0) << "shard " << shard << " idle";
    }
    for (int fd : fds)
        closeFd(fd);
    ts->drain();
}

TEST(EndToEnd, PollFallbackAcceptsServesAndDrains)
{
    // The poll(2) backend (non-epoll hosts) polls the listener
    // level-triggered from every shard: each connection must still be
    // accepted exactly once, served, and drained.
    ServerOptions opt;
    opt.pollFallback = true;
    opt.shards = 2;
    TestServer ts(opt);
    ts.start();

    std::vector<std::unique_ptr<HttpClient>> clients;
    for (int i = 0; i < 4; ++i) {
        clients.push_back(
            std::make_unique<HttpClient>("127.0.0.1", ts.port()));
        ClientResponse resp;
        ASSERT_TRUE(
            clients.back()->request("GET", "/healthz", "", resp));
        EXPECT_EQ(resp.status, 200);
    }
    EXPECT_EQ(ts->connectionCount(), 4u);
    obs::Counter &accepted = ts->metricsRegistry().counter(
        "macs_server_connections_total", "Connections accepted");
    EXPECT_EQ(accepted.value(), 4.0);
    ts->drain();
    EXPECT_EQ(ts->connectionCount(), 0u);
}

TEST(EndToEnd, EventedCoreBoundsOpenConnectionsWith503)
{
    // Evented semantics: idle connections pin nothing, so the
    // admission bound is maxConnections, not the compute queue.
    ServerOptions opt;
    opt.maxConnections = 2;
    opt.retryAfterSeconds = 7;
    TestServer ts(opt);
    ts.start();

    int first = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(first, 0);
    int second = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(second, 0);
    // Both idle connections must be adopted by a shard (not a worker
    // thread) before the third can observe the bound.
    for (int i = 0; i < 100 && ts->connectionCount() < 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(ts->connectionCount(), 2u);

    int rejected = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(rejected, 0);
    std::string reply = readUntilClosed(rejected, 2000);
    EXPECT_NE(reply.find(" 503 "), std::string::npos) << reply;
    EXPECT_NE(reply.find("Retry-After: 7"), std::string::npos)
        << reply;
    closeFd(rejected);

    // Closing one frees a slot: the next connection is served.
    closeFd(first);
    for (int i = 0; i < 100 && ts->connectionCount() >= 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    HttpClient client("127.0.0.1", ts.port());
    ClientResponse resp;
    ASSERT_TRUE(client.request("GET", "/healthz", "", resp));
    EXPECT_EQ(resp.status, 200);

    closeFd(second);
    ts->drain();
    std::string prom = obs::renderPrometheus(ts.registry);
    EXPECT_NE(prom.find("macs_server_rejected_total"),
              std::string::npos);
    EXPECT_NE(prom.find("macs_server_shard_connections"),
              std::string::npos);
}

TEST(Faults, NetAcceptRejectsWith503)
{
    TestServer ts({}, "net-accept:1.0:42");
    ts.start();
    int fd = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(fd, 0);
    std::string reply = readUntilClosed(fd, 2000);
    closeFd(fd);
    EXPECT_NE(reply.find(" 503 "), std::string::npos) << reply;
    EXPECT_NE(reply.find("Retry-After:"), std::string::npos);
}

TEST(Faults, NetReadAnswers503InsteadOfDropping)
{
    TestServer ts({}, "net-read:1.0:42");
    ts.start();
    HttpClient client("127.0.0.1", ts.port());
    ClientResponse resp;
    ASSERT_TRUE(client.request("GET", "/healthz", "", resp));
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.header("retry-after"), nullptr);
}

TEST(Faults, NetWriteCutsConnectionSoClientRetries)
{
    TestServer ts({}, "net-write:1.0:42");
    ts.start();
    HttpClient client("127.0.0.1", ts.port());
    ClientResponse resp;
    EXPECT_FALSE(client.request("GET", "/healthz", "", resp));
    // With the site firing every time, a bounded retry also fails --
    // but it must fail with a transport error, never a hang.
    EXPECT_FALSE(client.requestWithRetry("GET", "/healthz", "", resp,
                                         2, 1));
}

// ---------------------------------------------------------------------
// LRU cache bound (satellite): strict LRU order, recency refresh on
// hits, eviction counter, metric export.
// ---------------------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsedAndCounts)
{
    obs::Registry registry;
    pipeline::AnalysisCache cache;
    cache.attachMetrics(&registry);
    cache.setCapacity(2);

    pipeline::CacheKey k1{1, 0, 0}, k2{2, 0, 0}, k3{3, 0, 0};
    EXPECT_TRUE(cache.seed(k1, nullptr));
    EXPECT_TRUE(cache.seed(k2, nullptr));

    // Refresh k1 so k2 is the LRU victim.
    EXPECT_FALSE(cache.claim(k1).owner());
    EXPECT_TRUE(cache.seed(k3, nullptr));

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.claim(k1).owner()) << "k1 was refreshed";
    EXPECT_FALSE(cache.claim(k3).owner());
    auto claim2 = cache.claim(k2);
    EXPECT_TRUE(claim2.owner()) << "k2 should have been evicted";
    claim2.promise->set_value(nullptr); // fulfill the owner contract
    EXPECT_GE(cache.evictions(), 2u);   // inserting k2 evicted again

    std::string prom = obs::renderPrometheus(registry);
    EXPECT_NE(prom.find("macs_cache_evictions_total"),
              std::string::npos);
}

TEST(LruCache, ZeroCapacityMeansUnbounded)
{
    pipeline::AnalysisCache cache;
    for (uint64_t i = 0; i < 100; ++i)
        cache.seed(pipeline::CacheKey{i, 0, 0}, nullptr);
    EXPECT_EQ(cache.size(), 100u);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.setCapacity(10); // shrink evicts the tail immediately
    EXPECT_EQ(cache.size(), 10u);
    EXPECT_EQ(cache.evictions(), 90u);
}

// ---------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------

TEST(Drain, IdempotentAndStopsAccepting)
{
    TestServer ts;
    ts.start();
    int before = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(before, 0);
    closeFd(before);

    int port = ts.port();
    ts->drain();
    ts->drain(); // second drain must be a no-op, not a hang
    EXPECT_TRUE(ts->stopping());

    int after = tcpConnect("127.0.0.1", port, 250);
    if (after >= 0) {
        // The OS may still accept into a dead backlog; bytes must not
        // flow either way.
        std::string reply = readUntilClosed(after, 250);
        EXPECT_TRUE(reply.empty());
        closeFd(after);
    } else {
        EXPECT_EQ(after, kIoError);
    }
}

TEST(Drain, InFlightRequestFinishesWithConnectionClose)
{
    TestServer ts;
    ts.start();
    HttpClient client("127.0.0.1", ts.port());
    ClientResponse warm;
    ASSERT_TRUE(client.request("GET", "/healthz", "", warm));

    ts->requestStop();
    // The session observes the stop flag: the next response (if the
    // read races ahead of the flag) or the connection teardown must
    // resolve within the deadline -- never a hang.
    ClientResponse resp;
    bool ok = client.request("GET", "/healthz", "", resp);
    if (ok) {
        EXPECT_EQ(resp.status, 200);
        const std::string *conn = resp.header("connection");
        ASSERT_NE(conn, nullptr);
        EXPECT_EQ(*conn, "close");
    }
    ts->drain();
}

TEST(Drain, ChunkedUploadInFlightCompletesAndJournalFlushes)
{
    // SIGTERM-drain contract (docs/SERVER.md): a drain that begins
    // while a chunked-body upload is still arriving must let the
    // request complete — 200, result appended to the checkpoint
    // journal — before the server finishes draining.
    fs::path journal_path =
        fs::temp_directory_path() /
        ("macs_drain_chunk_" + std::to_string(::getpid()) + ".ckpt");
    fs::remove(journal_path);
    obs::Registry registry;
    pipeline::CheckpointJournal journal(journal_path.string(),
                                        &registry);
    journal.open();

    ServerOptions opt;
    opt.service.checkpoint = &journal;
    TestServer ts(std::move(opt));
    ts.start();

    std::string body = "{\"kind\": \"lfk\", \"id\": 3}";
    int fd = tcpConnect("127.0.0.1", ts.port(), 1000);
    ASSERT_GE(fd, 0);
    // Headers + first half of the chunked body, then stall.
    std::string head =
        "POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
        "Content-Type: application/json\r\n"
        "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    std::string half1 = body.substr(0, body.size() / 2);
    std::string half2 = body.substr(body.size() / 2);
    char size_line[16];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                  half1.size());
    ASSERT_TRUE(writeAll(fd, head + size_line + half1 + "\r\n", 1000));

    // Wait until the server has actually accepted the connection:
    // the drain contract protects requests in flight ON the server,
    // not connections still sitting in the listen backlog.
    obs::Counter &accepted = ts->metricsRegistry().counter(
        "macs_server_connections_total", "Connections accepted");
    for (int i = 0; i < 500 && accepted.value() < 1.0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_GE(accepted.value(), 1.0);

    // Drain begins with the upload only half-delivered.
    ts->requestStop();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // The second half still gets through: requests in flight finish.
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                  half2.size());
    ASSERT_TRUE(writeAll(
        fd, std::string(size_line) + half2 + "\r\n0\r\n\r\n", 1000));
    std::string reply = readUntilClosed(fd, 5000);
    closeFd(fd);
    ts->drain();

    EXPECT_NE(reply.find(" 200 "), std::string::npos) << reply;
    EXPECT_EQ(journal.entryCount(), 1u)
        << "the completed analysis must be flushed to the journal";
    fs::remove(journal_path);
}

// ---------------------------------------------------------------------
// SIGPIPE regression: a client that disappears mid-response must be
// an EPIPE on the server's send path (MSG_NOSIGNAL everywhere), never
// a process-killing signal.
// ---------------------------------------------------------------------

TEST(Sigpipe, EventedCoreSurvivesClientClosingMidResponse)
{
    TestServer ts;
    ts.start();

    for (int i = 0; i < 3; ++i) {
        int fd = tcpConnect("127.0.0.1", ts.port(), 1000);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeAll(fd,
                             "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
                             1000));
        // SO_LINGER(0): close() sends RST instead of FIN, so the
        // server's in-progress response write hits a dead socket.
        struct linger lg;
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        closeFd(fd);
    }

    // If SIGPIPE had killed the process we would never get here; the
    // server must also still answer new clients.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    HttpClient client("127.0.0.1", ts.port());
    ClientResponse resp;
    ASSERT_TRUE(client.request("GET", "/healthz", "", resp));
    EXPECT_EQ(resp.status, 200);
}

} // namespace
} // namespace macs::server
