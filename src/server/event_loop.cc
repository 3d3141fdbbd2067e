#include "server/event_loop.h"

#include <cerrno>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "server/connection.h"
#include "server/net.h"
#include "server/server.h"
#include "support/logging.h"
#include "support/strings.h"

namespace macs::server {

namespace {

using Clock = std::chrono::steady_clock;

/** Poller wait slice: bounds deadline-detection latency. */
constexpr int kWaitSliceMs = 50;

/** Wakeup doorbell sentinel in the poller's data slot. */
void *
wakeupToken()
{
    return nullptr;
}

/** Listening-socket sentinel; never equal to an encodeFd() value. */
void *
listenerToken()
{
    return reinterpret_cast<void *>(intptr_t{-1});
}

/** Conn fds ride in the data slot offset by 1 so fd 0 != sentinel. */
void *
encodeFd(int fd)
{
    return reinterpret_cast<void *>(static_cast<intptr_t>(fd) + 1);
}

int
decodeFd(void *data)
{
    return static_cast<int>(reinterpret_cast<intptr_t>(data)) - 1;
}

/** A 503 that tells the client to come back (Retry-After). */
HttpResponse
retryLater(const Server &server, const std::string &message)
{
    HttpResponse r = errorResponse(503, message);
    r.headers.emplace_back(
        "Retry-After",
        std::to_string(server.options().retryAfterSeconds));
    return r;
}

void
countRejected(const Server &server, const char *reason)
{
    server.metricsRegistry()
        .counter("macs_server_rejected_total",
                 "Connections and requests refused with 503, by "
                 "reason",
                 obs::Labels{{"reason", reason}})
        .inc();
}

} // namespace

/**
 * One event-loop shard: a thread around an EventPoller owning a set
 * of connections, accepting its own from the shared listener. All
 * Conn state is touched ONLY on the shard thread; compute workers
 * post completions through the mutex-guarded inbox + Wakeup doorbell.
 */
class EventLoopCore::Shard
{
  public:
    Shard(EventLoopCore &core, Server &server, size_t index,
          EventPoller::Backend backend)
        : core_(core), server_(server), index_(index),
          poller_(backend),
          connGauge_(server.metricsRegistry().gauge(
              "macs_server_shard_connections",
              "Connections owned per event-loop shard",
              obs::Labels{{"shard", std::to_string(index)}})),
          pollWakeups_(server.metricsRegistry().counter(
              "macs_server_poll_wakeups_total",
              "Poller waits that returned at least one event",
              obs::Labels{{"shard", std::to_string(index)}})),
          notifyWakeups_(server.metricsRegistry().counter(
              "macs_server_notify_wakeups_total",
              "Doorbell wakeups from compute threads or drain",
              obs::Labels{{"shard", std::to_string(index)}}))
    {
    }

    void start()
    {
        thread_ = std::thread([this] { loop(); });
    }

    /** Compute side: post a finished response back to the shard. */
    void postResponse(int fd, uint64_t gen, HttpResponse response,
                      bool keep_alive_requested)
    {
        {
            std::lock_guard<std::mutex> lock(inboxMu_);
            completions_.push_back(Completion{
                fd, gen, std::move(response), keep_alive_requested});
        }
        wakeup_.notify();
    }

    void kick() { wakeup_.notify(); }

    void join()
    {
        if (thread_.joinable())
            thread_.join();
    }

  private:
    struct Completion
    {
        int fd;
        uint64_t gen;
        HttpResponse response;
        bool keepAliveRequested;
    };

    /** One owned connection; ByteIo over its non-blocking socket. */
    struct Conn final : ByteIo
    {
        Conn(int fd_in, uint64_t gen_in,
             RequestParser::Limits limits)
            : fd(fd_in), gen(gen_in), machine(limits)
        {
        }

        int read(char *buf, size_t len) override
        {
            for (;;) {
                ssize_t n = ::recv(fd, buf, len, 0);
                if (n >= 0)
                    return static_cast<int>(n);
                if (errno == EINTR)
                    continue;
                return errno == EAGAIN || errno == EWOULDBLOCK
                           ? kWouldBlock
                           : kError;
            }
        }

        int write(const char *buf, size_t len) override
        {
            for (;;) {
                ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
                if (n >= 0)
                    return static_cast<int>(n);
                if (errno == EINTR)
                    continue;
                return errno == EAGAIN || errno == EWOULDBLOCK
                           ? kWouldBlock
                           : kError;
            }
        }

        int fd;
        uint64_t gen;
        Connection machine;
        Clock::time_point readDeadline{};
        Clock::time_point writeDeadline{};
        bool wantWrite = false;
    };

    Conn *find(int fd)
    {
        auto it = conns_.find(fd);
        return it != conns_.end() ? it->second.get() : nullptr;
    }

    void loop()
    {
        const int listen_fd = core_.listener_.fd();
        poller_.add(wakeup_.fd(), false, wakeupToken());
        poller_.add(listen_fd, false, listenerToken(),
                    /*exclusive=*/true);
        std::vector<PollEvent> events;
        for (;;) {
            int n = poller_.wait(events, kWaitSliceMs);
            if (n > 0)
                pollWakeups_.inc();
            for (const PollEvent &e : events) {
                if (e.data == wakeupToken()) {
                    wakeup_.drain();
                    notifyWakeups_.inc();
                    continue;
                }
                if (e.data == listenerToken()) {
                    acceptAll();
                    continue;
                }
                // Look the fd up again: an earlier event in this
                // batch may have closed (and freed) the connection.
                Conn *c = find(decodeFd(e.data));
                if (c == nullptr)
                    continue;
                if (c->machine.state() == Connection::State::Write) {
                    if (e.error)
                        closeConn(c->fd);
                    else
                        flush(*c);
                } else if (e.error &&
                           c->machine.state() ==
                               Connection::State::Compute) {
                    // Peer vanished mid-compute: drop the connection;
                    // the generation check discards the response.
                    closeConn(c->fd);
                } else {
                    handleReadable(*c);
                }
            }
            if (acceptRetry_)
                acceptAll();
            drainInbox();
            checkDeadlines();
            if (server_.stopping()) {
                poller_.del(listen_fd); // stop accepting
                closeIdleConns();
                std::lock_guard<std::mutex> lock(inboxMu_);
                if (conns_.empty() && pendingCompute_ == 0 &&
                    completions_.empty())
                    break;
            }
        }
        poller_.del(wakeup_.fd());
    }

    /**
     * Accept every pending connection (the listener is
     * edge-triggered and non-blocking), admit, and adopt it here.
     */
    void acceptAll()
    {
        acceptRetry_ = false;
        bool accepted = false;
        while (!server_.stopping()) {
            int fd = core_.listener_.accept();
            if (fd == kIoTimeout)
                break; // EAGAIN: the backlog is empty
            if (fd == kIoError) {
                // Out of fds or buffers: the connection stays in the
                // backlog; retry after the next wait slice.
                acceptRetry_ = true;
                break;
            }
            accepted = true;
            if (admit(fd))
                adopt(fd);
        }
        if (accepted) {
            // EPOLLEXCLUSIVE wakes the first idle poller in the
            // listener's wait queue; re-registering moves this shard
            // to the back, so idle shards take turns.
            poller_.del(core_.listener_.fd());
            poller_.add(core_.listener_.fd(), false, listenerToken(),
                        /*exclusive=*/true);
        }
    }

    /**
     * Admission of one accepted connection: the net-accept fault
     * first, then the open-connection bound. A rejected connection
     * is answered 503 + Retry-After and closed.
     */
    bool admit(int fd)
    {
        server_.metricsRegistry()
            .counter("macs_server_connections_total",
                     "Connections accepted")
            .inc();
        const char *reason = nullptr;
        if (server_.faultInjector().shouldFire(
                faults::Site::NetAccept)) {
            reason = "fault";
        } else if (core_.connections_.fetch_add(
                       1, std::memory_order_acq_rel) >=
                   server_.options().maxConnections) {
            core_.connections_.fetch_sub(1,
                                         std::memory_order_acq_rel);
            reason = "backpressure";
        } else {
            return true;
        }
        countRejected(server_, reason);
        std::string bytes = serializeResponse(
            retryLater(server_,
                       detail::concat(
                           "connection rejected (", reason,
                           "); retry after ",
                           server_.options().retryAfterSeconds, "s")),
            false);
        // One non-blocking send: a shard never waits on a peer, and
        // the client may already be gone.
        (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        closeFd(fd);
        return false;
    }

    void drainInbox()
    {
        std::vector<Completion> done;
        {
            std::lock_guard<std::mutex> lock(inboxMu_);
            done.swap(completions_);
        }
        for (Completion &c : done)
            applyCompletion(std::move(c));
    }

    void adopt(int fd)
    {
        if (!poller_.add(fd, false, encodeFd(fd))) {
            closeFd(fd);
            core_.connections_.fetch_sub(1,
                                         std::memory_order_acq_rel);
            return;
        }
        auto conn = std::make_unique<Conn>(
            fd, nextGen_++, server_.options().limits);
        conn->readDeadline =
            Clock::now() + std::chrono::milliseconds(
                               server_.options().requestTimeoutMs);
        Conn *raw = conn.get();
        conns_.emplace(fd, std::move(conn));
        connGauge_.set(static_cast<double>(conns_.size()));
        // The socket may already hold bytes (or EOF): with an
        // edge-triggered poller that edge predates registration, so
        // drain once now.
        handleReadable(*raw);
    }

    void applyCompletion(Completion &&done)
    {
        --pendingCompute_;
        Conn *c = find(done.fd);
        if (c == nullptr || c->gen != done.gen)
            return; // connection died while computing
        bool keep = done.keepAliveRequested && !server_.stopping();
        respond(*c, done.response, keep);
    }

    void handleReadable(Conn &c)
    {
        switch (c.machine.onReadable(c)) {
        case Connection::ReadEvent::NeedMore:
            return;
        case Connection::ReadEvent::RequestReady:
            dispatch(c);
            return;
        case Connection::ReadEvent::ParseError: {
            HttpResponse r = errorResponse(c.machine.errorStatus(),
                                           c.machine.errorDetail());
            server_.countRequest("other", r.status);
            respond(c, r, false);
            return;
        }
        case Connection::ReadEvent::PeerClosed:
            closeConn(c.fd);
            return;
        case Connection::ReadEvent::TornRequest:
            // The peer closed mid-message: count it like the 408
            // path and close without a response.
            server_.countRequest("other", 408);
            closeConn(c.fd);
            return;
        case Connection::ReadEvent::IoError:
            closeConn(c.fd);
            return;
        }
    }

    void dispatch(Conn &c)
    {
        HttpRequest request = c.machine.takeRequest();
        if (server_.faultInjector().shouldFire(
                faults::Site::NetRead)) {
            // Injected read fault: the request is NOT silently
            // dropped — the client gets an explicit retriable 503.
            HttpResponse r =
                retryLater(server_, "transient read fault; retry");
            server_.countRequest(routeLabel(request.path),
                                 r.status);
            respond(c, r, false);
            return;
        }
        if (server_.computePool().queuedTasks() >=
            server_.options().queueCapacity) {
            // Request-level admission: shed explicitly rather than
            // queue without bound behind the compute workers.
            countRejected(server_, "backpressure");
            HttpResponse r =
                retryLater(server_, "compute queue full; retry");
            server_.countRequest(routeLabel(request.path),
                                 r.status);
            respond(c, r, false);
            return;
        }
        ++pendingCompute_;
        int fd = c.fd;
        uint64_t gen = c.gen;
        bool ka = request.keepAlive;
        server_.computePool().submit(
            [this, fd, gen, ka, request = std::move(request)] {
                obs::Gauge &inflight =
                    server_.metricsRegistry().gauge(
                        "macs_server_inflight",
                        "Requests currently executing");
                inflight.add(1.0);
                HttpResponse response;
                try {
                    response = server_.handle(request);
                } catch (const std::exception &e) {
                    response = errorResponse(500, e.what());
                    server_.countRequest(routeLabel(request.path),
                                         500);
                }
                inflight.add(-1.0);
                postResponse(fd, gen, std::move(response), ka);
            });
        server_.metricsRegistry()
            .gauge("macs_server_queue_depth",
                   "Requests waiting for a compute worker")
            .set(static_cast<double>(
                server_.computePool().queuedTasks()));
    }

    /** NetWrite fault check + serialize + flush (all deliveries). */
    void respond(Conn &c, const HttpResponse &response, bool keep)
    {
        if (server_.faultInjector().shouldFire(
                faults::Site::NetWrite)) {
            closeConn(c.fd); // injected write fault: cut the line
            return;
        }
        c.machine.queueResponse(response, keep);
        c.writeDeadline =
            Clock::now() + std::chrono::milliseconds(
                               server_.options().writeTimeoutMs);
        flush(c);
    }

    void flush(Conn &c)
    {
        switch (c.machine.onWritable(c)) {
        case Connection::WriteEvent::Blocked:
            setWantWrite(c, true);
            return;
        case Connection::WriteEvent::KeepAlive:
            setWantWrite(c, false);
            c.readDeadline =
                Clock::now() +
                std::chrono::milliseconds(
                    server_.options().requestTimeoutMs);
            // A pipelined request may already be buffered; also
            // re-drain the socket so no edge is lost.
            handleReadable(c);
            return;
        case Connection::WriteEvent::Closing:
        case Connection::WriteEvent::IoError:
            closeConn(c.fd);
            return;
        }
    }

    void setWantWrite(Conn &c, bool want)
    {
        if (c.wantWrite == want)
            return;
        c.wantWrite = want;
        poller_.mod(c.fd, want, encodeFd(c.fd));
    }

    void checkDeadlines()
    {
        Clock::time_point now = Clock::now();
        std::vector<int> quiet, torn, stuck;
        for (const auto &[fd, c] : conns_) {
            switch (c->machine.state()) {
            case Connection::State::ReadHeaders:
            case Connection::State::ReadBody:
                if (now >= c->readDeadline)
                    (c->machine.midRequest() ? torn : quiet)
                        .push_back(fd);
                break;
            case Connection::State::Write:
                if (now >= c->writeDeadline)
                    stuck.push_back(fd);
                break;
            case Connection::State::Compute:
            case Connection::State::Closed:
                break;
            }
        }
        for (int fd : quiet)
            closeConn(fd); // idle keep-alive expiry: close quietly
        for (int fd : stuck)
            closeConn(fd); // write deadline: peer too slow to read
        for (int fd : torn) {
            Conn *c = find(fd);
            if (c == nullptr)
                continue;
            HttpResponse r = errorResponse(
                408,
                format("request not complete within the %d ms read "
                       "deadline",
                       server_.options().requestTimeoutMs));
            server_.countRequest("other", 408);
            respond(*c, r, false);
        }
    }

    void closeIdleConns()
    {
        std::vector<int> idle;
        for (const auto &[fd, c] : conns_) {
            Connection::State s = c->machine.state();
            if ((s == Connection::State::ReadHeaders ||
                 s == Connection::State::ReadBody) &&
                !c->machine.midRequest())
                idle.push_back(fd);
        }
        for (int fd : idle)
            closeConn(fd);
    }

    void closeConn(int fd)
    {
        auto it = conns_.find(fd);
        if (it == conns_.end())
            return;
        poller_.del(fd);
        closeFd(fd);
        conns_.erase(it);
        connGauge_.set(static_cast<double>(conns_.size()));
        core_.connections_.fetch_sub(1, std::memory_order_acq_rel);
    }

    EventLoopCore &core_;
    Server &server_;
    size_t index_;
    EventPoller poller_;
    Wakeup wakeup_;
    std::thread thread_;

    std::mutex inboxMu_;
    std::vector<Completion> completions_; ///< guarded by inboxMu_

    // Shard-thread-only state.
    std::map<int, std::unique_ptr<Conn>> conns_;
    size_t pendingCompute_ = 0;
    uint64_t nextGen_ = 1;
    bool acceptRetry_ = false;

    obs::Gauge &connGauge_;
    obs::Counter &pollWakeups_;
    obs::Counter &notifyWakeups_;
};

EventLoopCore::EventLoopCore(Server &server, Listener &listener,
                             size_t shard_count,
                             EventPoller::Backend backend)
    : server_(server), listener_(listener)
{
    MACS_ASSERT(shard_count >= 1, "event loop needs >= 1 shard");
    shards_.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i)
        shards_.push_back(
            std::make_unique<Shard>(*this, server, i, backend));
}

EventLoopCore::~EventLoopCore()
{
    requestStop();
    join();
}

void
EventLoopCore::start()
{
    for (auto &shard : shards_)
        shard->start();
}

void
EventLoopCore::requestStop()
{
    for (auto &shard : shards_)
        shard->kick();
}

void
EventLoopCore::join()
{
    for (auto &shard : shards_)
        shard->join();
}

} // namespace macs::server
