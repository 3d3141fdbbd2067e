/**
 * @file
 * The sharded event-loop core of `macs serve` (docs/SERVER.md).
 *
 * EventLoopCore runs a small number of shards, each a thread around
 * an edge-triggered EventPoller (epoll on Linux, poll(2) fallback)
 * owning a set of non-blocking connections. Every shard polls the one
 * listening socket (EPOLLEXCLUSIVE on epoll, so a new connection
 * wakes one idle shard rather than all of them); the shard that sees
 * it ready accepts until EAGAIN, applies admission (the net-accept
 * fault, then the open-connection bound, each answered with a 503 +
 * Retry-After), and adopts the connection itself. Each shard drives
 * the per-connection state machine (server/connection.h), dispatches
 * complete requests to the compute ThreadPool, and is woken through a
 * Wakeup doorbell when a worker posts the finished response back.
 *
 * Per-connection contracts: request-level admission (503 +
 * Retry-After and `Connection: close` when the compute queue holds
 * queueCapacity requests), the net-read / net-write fault sites
 * firing once per parsed request / per response delivery,
 * per-request read deadlines (408 on a torn or trickled request,
 * silent close when idle), response write deadlines, graceful drain
 * (in-flight requests finish and are answered `Connection: close`),
 * and byte-identical response bodies (pinned by the HTTP corpus
 * goldens under tests/golden/http/).
 */

#ifndef MACS_SERVER_EVENT_LOOP_H
#define MACS_SERVER_EVENT_LOOP_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "server/net.h"
#include "server/poller.h"

namespace macs::server {

class Server;

class EventLoopCore
{
  public:
    /**
     * @param server      owner; outlives the core.
     * @param listener    open listening socket; outlives the core.
     * @param shard_count number of event-loop shards (>= 1).
     * @param backend     poller backend (Default = epoll on Linux).
     */
    EventLoopCore(Server &server, Listener &listener,
                  size_t shard_count, EventPoller::Backend backend);
    ~EventLoopCore();

    EventLoopCore(const EventLoopCore &) = delete;
    EventLoopCore &operator=(const EventLoopCore &) = delete;

    /** Start one thread per shard. */
    void start();

    /** Wake every shard so it observes Server::stopping(). */
    void requestStop();

    /**
     * Join the shard threads. Each shard exits once it is stopping,
     * owns no connections, and has applied every in-flight compute
     * completion — i.e. after the graceful drain finished.
     */
    void join();

    /** Live connections across all shards. */
    size_t connectionCount() const
    {
        return connections_.load(std::memory_order_acquire);
    }

    size_t shardCount() const { return shards_.size(); }

  private:
    class Shard;
    friend class Shard;

    Server &server_;
    Listener &listener_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<size_t> connections_{0};
};

} // namespace macs::server

#endif // MACS_SERVER_EVENT_LOOP_H
