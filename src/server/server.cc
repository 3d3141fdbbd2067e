#include "server/server.h"

#include <algorithm>
#include <thread>

#include "lfk/kernels.h"
#include "machine/machine_file.h"
#include "obs/export.h"
#include "obs/json.h"
#include "pipeline/mp_report.h"
#include "pipeline/report.h"
#include "pipeline/sweep.h"
#include "server/event_loop.h"
#include "server/kernel_source.h"
#include "support/logging.h"
#include "support/strings.h"

namespace macs::server {

namespace {

bool
looksLikeJson(const HttpRequest &request)
{
    if (const std::string *ct = request.header("content-type"))
        if (startsWith(*ct, "application/json"))
            return true;
    std::string_view body = trim(request.body);
    return !body.empty() && body.front() == '{';
}

/**
 * Fold one JSON job envelope ({"kind": "lfk"|"loop"|"asm", ...}) into
 * @p spec. Compile/validation errors go to @p diags; malformed JSON
 * shapes fatal() (the caller maps that to 400).
 */
void
addJobFromJson(const obs::JsonValue &o, long default_trip,
               JobSetSpec &spec, Diagnostics &diags)
{
    std::string kind;
    if (const obs::JsonValue *k = o.find("kind"))
        kind = k->asString();
    else if (o.has("id"))
        kind = "lfk";
    else
        kind = "loop";

    if (kind == "lfk") {
        long id = static_cast<long>(o.at("id").asDouble());
        try {
            (void)lfk::makeKernel(static_cast<int>(id));
        } catch (const FatalError &e) {
            diags.error(e.what());
            return;
        }
        spec.ids.push_back(static_cast<int>(id));
        return;
    }

    long trip = default_trip;
    if (const obs::JsonValue *t = o.find("trip"))
        trip = static_cast<long>(t->asDouble());
    if (trip <= 0) {
        diags.error("'trip' must be positive");
        return;
    }

    if (kind == "loop") {
        std::string label = "<loop>";
        if (const obs::JsonValue *l = o.find("label"))
            label = l->asString();
        model::KernelCase kc;
        if (kernelFromLoopSource(o.at("source").asString(), label,
                                 trip, kc, diags))
            spec.kernels.push_back(std::move(kc));
        return;
    }
    if (kind == "asm") {
        long points = trip;
        if (const obs::JsonValue *p = o.find("points"))
            points = static_cast<long>(p->asDouble());
        std::string label = "<asm>";
        if (const obs::JsonValue *l = o.find("label"))
            label = l->asString();
        model::KernelCase kc;
        if (kernelFromAsmSource(o.at("source").asString(), label,
                                points, kc, diags))
            spec.kernels.push_back(std::move(kc));
        return;
    }
    diags.error(detail::concat("unknown job kind '", kind,
                               "' (known: lfk, loop, asm)"));
}

/**
 * Fold a "sim_tier" name into @p tier. Returns false (with a 400-ready
 * message in @p error) for anything but "", "reference", or "fast".
 */
bool
parseTierArg(const std::string &name, sim::SimTier &tier,
             std::string &error)
{
    if (name.empty() || sim::parseSimTier(name, tier))
        return true;
    error = detail::concat("unknown sim_tier '", name,
                           "' (known: reference, fast)");
    return false;
}

/** Validate every variant name; fills @p message on failure. */
bool
validVariants(const std::vector<std::string> &variants,
              std::string &message)
{
    for (const std::string &v : variants) {
        try {
            (void)machine::MachineConfig::variant(v);
        } catch (const FatalError &e) {
            message = e.what();
            return false;
        }
    }
    return true;
}

} // namespace

std::string
routeLabel(const std::string &path)
{
    if (path == "/healthz" || path == "/metrics" ||
        path == "/version" || path == "/v1/analyze" ||
        path == "/v1/batch" || path == "/v1/sweep" ||
        path == "/v1/multicpu")
        return path;
    return "other";
}

HttpResponse
errorResponse(int status, const std::string &message,
              const Diagnostics *diags)
{
    HttpResponse response;
    response.status = status;
    response.body = errorBody(status, message, diags);
    return response;
}

std::string
errorBody(int status, const std::string &message,
          const Diagnostics *diags)
{
    std::string out;
    out += "{\"schema\": \"macs-error-v1\", \"status\": ";
    out += std::to_string(status);
    out += ", \"error\": \"" + obs::jsonEscape(message) + "\"";
    if (diags != nullptr && !diags->entries().empty()) {
        out += ", \"diagnostics\": [";
        bool first = true;
        for (const Diagnostic &d : diags->entries()) {
            if (!first)
                out += ", ";
            first = false;
            out += "{\"severity\": \"";
            out += diagSeverityName(d.severity);
            out += "\", \"file\": \"" + obs::jsonEscape(d.file) +
                   "\"";
            if (d.loc.valid())
                out += format(", \"line\": %zu, \"col\": %zu",
                              d.loc.line, d.loc.col);
            out += ", \"message\": \"" + obs::jsonEscape(d.message) +
                   "\"}";
        }
        out += "]";
    }
    out += "}\n";
    return out;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(options_.service)
{
    size_t workers = options_.workers != 0
                         ? options_.workers
                         : std::max(
                               1u, std::thread::hardware_concurrency());
    pool_ = std::make_unique<pipeline::ThreadPool>(workers);
}

Server::~Server()
{
    drain();
}

obs::Registry &
Server::registry() const
{
    return options_.metrics != nullptr ? *options_.metrics
                                       : obs::Registry::global();
}

const faults::FaultInjector &
Server::injector() const
{
    return options_.faults != nullptr
               ? *options_.faults
               : faults::FaultInjector::global();
}

void
Server::countRequest(const std::string &route, int status)
{
    registry()
        .counter("macs_server_requests_total",
                 "HTTP requests served by route and status",
                 obs::Labels{{"route", route},
                             {"status", std::to_string(status)}})
        .inc();
}

size_t
Server::connectionCount() const
{
    return core_ != nullptr ? core_->connectionCount() : 0;
}

void
Server::start()
{
    // SIGPIPE audit (docs/ROBUSTNESS.md): every socket send in this
    // subsystem passes MSG_NOSIGNAL (event_loop.cc Conn::write and
    // the 503 of a rejected connection, net.cc writeAll), but the
    // poller's self-pipe doorbell and the supervised heartbeat pipe
    // use plain write(2) — install the
    // one-time SIG_IGN here so a vanished peer is always EPIPE, even
    // for embedders that never go through the CLI.
    ignoreSigpipe();

    // Pre-register the stable macs_server_* series (counters at 0, as
    // Prometheus recommends) so a scrape of a fresh server already
    // shows the full family instead of series popping into existence
    // with their first event.
    obs::Registry &reg = registry();
    reg.counter("macs_server_requests_total",
                "HTTP requests served by route and status",
                obs::Labels{{"route", "/healthz"}, {"status", "200"}});
    reg.counter("macs_server_connections_total",
                "Connections accepted");
    for (const char *reason : {"backpressure", "fault"})
        reg.counter("macs_server_rejected_total",
                    "Connections and requests refused with 503, by "
                    "reason",
                    obs::Labels{{"reason", reason}});
    reg.gauge("macs_server_queue_depth",
              "Requests waiting for a compute worker");
    reg.gauge("macs_server_inflight", "Requests currently executing");

    listener_.open(options_.host, options_.port, 128,
                   options_.reusePort);
    size_t shards =
        options_.shards != 0
            ? options_.shards
            : std::min<size_t>(
                  4, std::max(1u, std::thread::hardware_concurrency()));
    // The Shard constructors pre-register the per-shard series
    // (connection gauges, wakeup counters) at zero.
    core_ = std::make_unique<EventLoopCore>(
        *this, listener_, shards,
        options_.pollFallback ? EventPoller::Backend::Poll
                              : EventPoller::Backend::Default);
    core_->start();
}

void
Server::drain()
{
    requestStop();
    if (drained_.exchange(true))
        return;
    if (core_ != nullptr) {
        // Shards stop accepting, finish in-flight requests (answered
        // `Connection: close`), drop idle connections, and exit; only
        // then is the compute pool idled.
        core_->requestStop();
        core_->join();
    }
    listener_.close();
    if (pool_ != nullptr)
        pool_->waitIdle();
    service_.reapStrays();
}

HttpResponse
Server::handle(const HttpRequest &request)
{
    HttpResponse response;
    const std::string &path = request.path;
    if (path == "/healthz" || path == "/metrics" ||
        path == "/version") {
        if (request.method != "GET" && request.method != "HEAD") {
            response = errorResponse(
                405, detail::concat("method ", request.method,
                                    " not allowed for ", path,
                                    " (use GET)"));
        } else if (path == "/healthz") {
            response = handleHealth();
        } else if (path == "/metrics") {
            response = handleMetrics();
        } else {
            response = handleVersion();
        }
    } else if (path == "/v1/analyze" || path == "/v1/batch" ||
               path == "/v1/sweep" || path == "/v1/multicpu") {
        if (request.method != "POST") {
            response = errorResponse(
                405, detail::concat("method ", request.method,
                                    " not allowed for ", path,
                                    " (use POST)"));
        } else if (path == "/v1/analyze") {
            response = handleAnalyze(request);
        } else if (path == "/v1/batch") {
            response = handleBatch(request);
        } else if (path == "/v1/multicpu") {
            response = handleMultiCpu(request);
        } else {
            response = handleSweep(request);
        }
    } else {
        response = errorResponse(
            404, detail::concat("no route for '", path,
                                "' (known: /healthz, /metrics, "
                                "/version, /v1/analyze, /v1/batch, "
                                "/v1/sweep, /v1/multicpu)"));
    }
    countRequest(routeLabel(path), response.status);
    return response;
}

HttpResponse
Server::handleHealth() const
{
    HttpResponse response;
    response.body = format(
        "{\"schema\": \"macs-health-v1\", \"status\": \"%s\", "
        "\"workers\": %zu, \"queue_depth\": %zu, "
        "\"cache_entries\": %zu",
        stopping() ? "draining" : "ok", pool_->workerCount(),
        pool_->queuedTasks(), service_.cache().size());
    if (options_.fleet != nullptr)
        response.body += supervisor::renderFleetHealthJson(
            *options_.fleet, options_.workerIndex);
    response.body += "}\n";
    return response;
}

HttpResponse
Server::handleMetrics() const
{
    HttpResponse response;
    response.contentType = "text/plain; version=0.0.4";
    response.body = obs::renderPrometheus(registry());
    if (options_.fleet != nullptr)
        response.body += supervisor::renderFleetMetrics(
            *options_.fleet, options_.workerIndex);
    return response;
}

HttpResponse
Server::handleVersion() const
{
    HttpResponse response;
    response.body = detail::concat(
        "{\"schema\": \"macs-version-v1\", \"version\": \"",
        obs::jsonEscape(options_.versionString),
        "\", \"schemas\": [\"macs-batch-v1\", \"macs-sweep-v1\", "
        "\"macs-analysis-v1\", \"macs-metrics-v1\", \"macs-trace-v1\", "
        "\"macs-mp-v1\", \"macs-error-v1\", \"macs-health-v1\", "
        "\"macs-version-v1\"]}\n");
    return response;
}

HttpResponse
Server::handleAnalyze(const HttpRequest &request)
{
    JobSetSpec spec;
    Diagnostics diags("POST /v1/analyze");

    // ?sim_tier=reference|fast selects the simulator tier (JSON field
    // "sim_tier" overrides). Either tier yields byte-identical
    // reports; the reference tier exists as the differential oracle.
    std::string tier_error;
    if (!parseTierArg(request.queryOr("sim_tier", ""),
                      spec.options.tier, tier_error))
        return errorResponse(400, tier_error);

    if (looksLikeJson(request)) {
        try {
            obs::JsonValue doc = obs::parseJson(request.body);
            if (!doc.isObject())
                return errorResponse(
                    400, "analyze body must be a JSON object");
            addJobFromJson(doc, options_.defaultTrip, spec, diags);
            if (const obs::JsonValue *v = doc.find("variant"))
                spec.variants.push_back(v->asString());
            if (const obs::JsonValue *v = doc.find("vl")) {
                long vl = static_cast<long>(v->asDouble());
                if (vl <= 0)
                    return errorResponse(400,
                                         "'vl' must be positive");
                spec.vls.push_back(static_cast<int>(vl));
            }
            if (const obs::JsonValue *t = doc.find("sim_tier"))
                if (!parseTierArg(t->asString(), spec.options.tier,
                                  tier_error))
                    return errorResponse(400, tier_error);
        } catch (const FatalError &e) {
            return errorResponse(
                400, detail::concat("malformed analyze request: ",
                                    e.what()));
        } catch (const PanicError &e) {
            // JsonValue accessors assert on type mismatches; a
            // wrong-typed field in a CLIENT body is a request-shape
            // error, not a library bug — report 400, not 500.
            return errorResponse(
                400, detail::concat("malformed analyze request: ",
                                    e.what()));
        }
    } else {
        // Raw source body: the loop DSL (or assembly with ?kind=asm)
        // exactly as a .loop file would be given to `macs batch`.
        std::string kind = request.queryOr("kind", "loop");
        long trip = options_.defaultTrip;
        std::string trip_arg = request.queryOr("trip", "");
        if (!trip_arg.empty() &&
            (!parseInt(trip_arg, trip) || trip <= 0))
            return errorResponse(
                400, "query parameter 'trip' must be a positive "
                     "integer");
        if (request.body.empty())
            return errorResponse(400, "analyze body is empty");
        if (kind == "loop") {
            std::string label = request.queryOr("label", "<loop>");
            model::KernelCase kc;
            if (kernelFromLoopSource(request.body, label, trip, kc,
                                     diags))
                spec.kernels.push_back(std::move(kc));
        } else if (kind == "asm") {
            long points = trip;
            std::string pts = request.queryOr("points", "");
            if (!pts.empty() &&
                (!parseInt(pts, points) || points <= 0))
                return errorResponse(
                    400, "query parameter 'points' must be a "
                         "positive integer");
            std::string label = request.queryOr("label", "<asm>");
            model::KernelCase kc;
            if (kernelFromAsmSource(request.body, label, points, kc,
                                    diags))
                spec.kernels.push_back(std::move(kc));
        } else {
            return errorResponse(
                400, detail::concat("unknown kind '", kind,
                                    "' (known: loop, asm)"));
        }
        std::string variant = request.queryOr("variant", "");
        if (!variant.empty())
            spec.variants.push_back(variant);
        std::string vl_arg = request.queryOr("vl", "");
        if (!vl_arg.empty()) {
            long vl = 0;
            if (!parseInt(vl_arg, vl) || vl <= 0)
                return errorResponse(
                    400, "query parameter 'vl' must be a positive "
                         "integer");
            spec.vls.push_back(static_cast<int>(vl));
        }
    }

    if (diags.hasErrors())
        return errorResponse(
            422,
            format("analyze request failed with %zu error(s)",
                   diags.errorCount()),
            &diags);
    std::string variant_error;
    if (!validVariants(spec.variants, variant_error))
        return errorResponse(400, variant_error);
    if (spec.ids.empty() && spec.kernels.empty())
        return errorResponse(400, "request contains no job");

    std::vector<pipeline::BatchJob> jobs = expandJobSet(spec);
    pipeline::BatchResult result = service_.runJobs(jobs, &stop_);

    HttpResponse response;
    bool timing = request.queryOr("timing", "0") == "1";
    response.body = pipeline::renderBatchJson(result, timing);
    response.headers.emplace_back(
        "X-MACS-Exit-Code", std::to_string(result.exitCode()));
    return response;
}

HttpResponse
Server::handleBatch(const HttpRequest &request)
{
    JobSetSpec spec;
    Diagnostics diags("POST /v1/batch");
    bool timing = request.queryOr("timing", "0") == "1";

    std::string tier_error;
    if (!parseTierArg(request.queryOr("sim_tier", ""),
                      spec.options.tier, tier_error))
        return errorResponse(400, tier_error);

    try {
        obs::JsonValue doc = obs::parseJson(request.body);
        if (!doc.isObject())
            return errorResponse(400,
                                 "batch body must be a JSON object");

        long trip = options_.defaultTrip;
        if (const obs::JsonValue *t = doc.find("trip")) {
            trip = static_cast<long>(t->asDouble());
            if (trip <= 0)
                return errorResponse(400, "'trip' must be positive");
        }
        if (const obs::JsonValue *r = doc.find("repeat")) {
            spec.repeat = static_cast<long>(r->asDouble());
            if (spec.repeat < 1)
                return errorResponse(400,
                                     "'repeat' must be positive");
        }
        if (const obs::JsonValue *ids = doc.find("ids")) {
            for (size_t i = 0; i < ids->size(); ++i) {
                long id =
                    static_cast<long>(ids->at(i).asDouble());
                try {
                    (void)lfk::makeKernel(static_cast<int>(id));
                    spec.ids.push_back(static_cast<int>(id));
                } catch (const FatalError &e) {
                    diags.error(e.what());
                }
            }
        }
        if (const obs::JsonValue *jobs = doc.find("jobs"))
            for (size_t i = 0; i < jobs->size(); ++i)
                addJobFromJson(jobs->at(i), trip, spec, diags);
        if (const obs::JsonValue *vs = doc.find("variants"))
            for (size_t i = 0; i < vs->size(); ++i)
                spec.variants.push_back(vs->at(i).asString());
        if (const obs::JsonValue *vls = doc.find("vls")) {
            for (size_t i = 0; i < vls->size(); ++i) {
                long vl =
                    static_cast<long>(vls->at(i).asDouble());
                if (vl <= 0)
                    return errorResponse(
                        400, "'vls' entries must be positive");
                spec.vls.push_back(static_cast<int>(vl));
            }
        }
        if (const obs::JsonValue *t = doc.find("sim_tier"))
            if (!parseTierArg(t->asString(), spec.options.tier,
                              tier_error))
                return errorResponse(400, tier_error);
        if (const obs::JsonValue *tm = doc.find("timing"))
            timing = tm->asBool();
    } catch (const FatalError &e) {
        return errorResponse(
            400,
            detail::concat("malformed batch request: ", e.what()));
    } catch (const PanicError &e) {
        // Type-mismatched fields assert inside JsonValue; map them to
        // 400 like any other malformed client body (see handleAnalyze).
        return errorResponse(
            400,
            detail::concat("malformed batch request: ", e.what()));
    }

    if (diags.hasErrors())
        return errorResponse(
            422,
            format("batch request failed with %zu error(s)",
                   diags.errorCount()),
            &diags);
    std::string variant_error;
    if (!validVariants(spec.variants, variant_error))
        return errorResponse(400, variant_error);
    if (spec.ids.empty() && spec.kernels.empty())
        return errorResponse(400, "batch contains no jobs");

    std::vector<pipeline::BatchJob> jobs = expandJobSet(spec);
    pipeline::BatchResult result = service_.runJobs(jobs, &stop_);

    HttpResponse response;
    response.body = pipeline::renderBatchJson(result, timing);
    response.headers.emplace_back(
        "X-MACS-Exit-Code", std::to_string(result.exitCode()));
    return response;
}

HttpResponse
Server::handleSweep(const HttpRequest &request)
{
    // Body: {"machines": [{"text": "<machine file>", "name"?: ...} |
    // {"variant": "baseline"}], "ids"?: [...], "jobs"?: [...],
    // "trip"?: N, "vl"?: N, "sim_tier"?: "reference"|"fast",
    // "timing"?: bool}. Kernels default to the full LFK set, like
    // `macs sweep`; machine texts are parsed with the same
    // multi-error machinery as .machine files, so a 422 carries every
    // problem in every machine, file:line:col included.
    pipeline::SweepRequest sweep;
    JobSetSpec spec;
    Diagnostics diags("POST /v1/sweep");
    bool timing = request.queryOr("timing", "0") == "1";

    std::string tier_error;
    if (!parseTierArg(request.queryOr("sim_tier", ""),
                      sweep.options.tier, tier_error))
        return errorResponse(400, tier_error);

    try {
        obs::JsonValue doc = obs::parseJson(request.body);
        if (!doc.isObject())
            return errorResponse(400,
                                 "sweep body must be a JSON object");

        long trip = options_.defaultTrip;
        if (const obs::JsonValue *t = doc.find("trip")) {
            trip = static_cast<long>(t->asDouble());
            if (trip <= 0)
                return errorResponse(400, "'trip' must be positive");
        }
        if (const obs::JsonValue *v = doc.find("vl")) {
            long vl = static_cast<long>(v->asDouble());
            if (vl <= 0)
                return errorResponse(400, "'vl' must be positive");
            sweep.vectorLength = static_cast<int>(vl);
        }
        const obs::JsonValue *machines = doc.find("machines");
        if (machines == nullptr || machines->size() == 0)
            return errorResponse(
                400, "sweep needs a non-empty 'machines' array");
        for (size_t i = 0; i < machines->size(); ++i) {
            const obs::JsonValue &m = machines->at(i);
            if (const obs::JsonValue *variant = m.find("variant")) {
                std::string name = variant->asString();
                try {
                    sweep.machines.push_back(
                        {name, "built-in variant", "<builtin>",
                         machine::MachineConfig::variant(name)});
                } catch (const FatalError &e) {
                    diags.error(e.what());
                }
                continue;
            }
            const obs::JsonValue *text = m.find("text");
            if (text == nullptr) {
                diags.error(format("machines[%zu] needs 'text' (an "
                                   "inline machine description) or "
                                   "'variant'",
                                   i));
                continue;
            }
            std::string source = format("machines[%zu]", i);
            machine::MachineFile mf;
            if (!machine::parseMachineDescription(text->asString(),
                                                  source, mf, diags))
                continue;
            if (const obs::JsonValue *n = m.find("name"))
                mf.name = n->asString();
            sweep.machines.push_back({mf.name, mf.description, source,
                                      mf.config});
        }
        if (const obs::JsonValue *ids = doc.find("ids")) {
            for (size_t i = 0; i < ids->size(); ++i) {
                long id = static_cast<long>(ids->at(i).asDouble());
                try {
                    (void)lfk::makeKernel(static_cast<int>(id));
                    spec.ids.push_back(static_cast<int>(id));
                } catch (const FatalError &e) {
                    diags.error(e.what());
                }
            }
        }
        if (const obs::JsonValue *jobs = doc.find("jobs"))
            for (size_t i = 0; i < jobs->size(); ++i)
                addJobFromJson(jobs->at(i), trip, spec, diags);
        if (const obs::JsonValue *t = doc.find("sim_tier"))
            if (!parseTierArg(t->asString(), sweep.options.tier,
                              tier_error))
                return errorResponse(400, tier_error);
        if (const obs::JsonValue *tm = doc.find("timing"))
            timing = tm->asBool();
    } catch (const FatalError &e) {
        return errorResponse(
            400,
            detail::concat("malformed sweep request: ", e.what()));
    } catch (const PanicError &e) {
        // Type-mismatched fields assert inside JsonValue; map them to
        // 400 like any other malformed client body (see handleAnalyze).
        return errorResponse(
            400,
            detail::concat("malformed sweep request: ", e.what()));
    }

    // Kernel rows: explicit ids, then compiled jobs; the full LFK set
    // when neither was given (the machines are the interesting axis).
    if (spec.ids.empty() && spec.kernels.empty())
        spec.ids = lfk::lfkIds();
    for (int id : spec.ids)
        sweep.kernels.push_back(
            lfk::toKernelCase(lfk::makeKernel(id)));
    for (model::KernelCase &kc : spec.kernels)
        sweep.kernels.push_back(std::move(kc));

    if (!pipeline::validateSweep(sweep, diags) || diags.hasErrors())
        return errorResponse(
            422,
            format("sweep request failed with %zu error(s)",
                   diags.errorCount()),
            &diags);

    pipeline::SweepResult result = pipeline::runSweep(
        sweep, [this](const std::vector<pipeline::BatchJob> &jobs) {
            return service_.runJobs(jobs, &stop_);
        });

    HttpResponse response;
    response.body = pipeline::renderSweepJson(result, timing);
    response.headers.emplace_back(
        "X-MACS-Exit-Code", std::to_string(result.exitCode()));
    return response;
}

HttpResponse
Server::handleMultiCpu(const HttpRequest &request)
{
    // Body: {"kernel"?: N (default 1), "cpus"?: N (default: all),
    // "mix"?: "independent"|"lockstep"|"strip", "engine"?:
    // "coupled"|"analytic", "variant"?: built-in machine variant}.
    // The report (schema "macs-mp-v1") is a pure function of the
    // request, so responses memo-cache under mpCacheKey() and are
    // byte-identical at any worker count.
    pipeline::MpRequest req;
    try {
        if (!request.body.empty()) {
            obs::JsonValue doc = obs::parseJson(request.body);
            if (!doc.isObject())
                return errorResponse(
                    400, "multicpu body must be a JSON object");
            if (const obs::JsonValue *k = doc.find("kernel"))
                req.kernelId = static_cast<int>(k->asDouble());
            if (const obs::JsonValue *c = doc.find("cpus")) {
                long cpus = static_cast<long>(c->asDouble());
                if (cpus < 1)
                    return errorResponse(400,
                                         "'cpus' must be positive");
                req.cpus = static_cast<int>(cpus);
            }
            if (const obs::JsonValue *m = doc.find("mix"))
                if (!lfk::parseMpMix(m->asString(), req.mix))
                    return errorResponse(
                        400, detail::concat(
                                 "unknown mix '", m->asString(),
                                 "' (known: independent, lockstep, "
                                 "strip)"));
            if (const obs::JsonValue *e = doc.find("engine"))
                if (!pipeline::parseMpEngine(e->asString(),
                                             req.engine))
                    return errorResponse(
                        400, detail::concat(
                                 "unknown engine '", e->asString(),
                                 "' (known: coupled, analytic)"));
            if (const obs::JsonValue *v = doc.find("variant")) {
                req.machineName = v->asString();
                req.config =
                    machine::MachineConfig::variant(req.machineName);
            }
        }

        std::string key = pipeline::mpCacheKey(req);
        {
            std::lock_guard<std::mutex> lock(mpCacheMutex_);
            auto it = mpCache_.find(key);
            if (it != mpCache_.end()) {
                HttpResponse response;
                response.body = it->second;
                return response;
            }
        }
        pipeline::MpAnalysis analysis = pipeline::runMpAnalysis(req);
        HttpResponse response;
        response.body = pipeline::renderMpJson(analysis);
        {
            std::lock_guard<std::mutex> lock(mpCacheMutex_);
            mpCache_.emplace(std::move(key), response.body);
        }
        return response;
    } catch (const FatalError &e) {
        // Bad kernel ids, impossible CPU counts, unknown variants,
        // strip-mining a hand-assembled kernel: request errors.
        return errorResponse(
            400,
            detail::concat("malformed multicpu request: ", e.what()));
    } catch (const PanicError &e) {
        // Type-mismatched fields assert inside JsonValue; map them to
        // 400 like any other malformed client body (see handleAnalyze).
        return errorResponse(
            400,
            detail::concat("malformed multicpu request: ", e.what()));
    }
}

} // namespace macs::server
