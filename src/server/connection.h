/**
 * @file
 * Per-connection state machine of the event-driven server core
 * (docs/SERVER.md): READ_HEADERS → READ_BODY → COMPUTE → WRITE →
 * keep-alive reset, with every transition driven by explicit byte
 * availability instead of blocking I/O.
 *
 * The machine is TRANSPORT-FREE: all I/O goes through the ByteIo
 * interface, whose production implementation (event_loop.cc) wraps a
 * non-blocking socket and whose test implementation
 * (tests/server_loop_test.cc) replays a scripted byte-feed — partial
 * reads, torn chunk boundaries, EAGAIN storms, short writes — so the
 * state machine is as deterministically testable as the parser
 * beneath it. The event-loop shard owns the policy (deadlines, fault
 * sites, metrics, compute dispatch); Connection owns only the
 * mechanics of one HTTP/1.1 connection.
 *
 * Edge-trigger contract: onReadable()/onWritable() drain the
 * transport until it reports WouldBlock, so a single epoll edge is
 * never lost. While a request is in COMPUTE, no further bytes are
 * read (one request in flight per connection); pipelined bytes
 * already buffered are picked up on the keep-alive reset.
 */

#ifndef MACS_SERVER_CONNECTION_H
#define MACS_SERVER_CONNECTION_H

#include <cstddef>
#include <string>

#include "server/http.h"

namespace macs::server {

/**
 * Non-blocking transport face of one connection. read()/write()
 * return > 0 on progress, kWouldBlock when the operation would
 * block (try again on the next readiness event), kError on a hard
 * transport error; read() additionally returns 0 at EOF.
 */
class ByteIo
{
  public:
    static constexpr int kWouldBlock = -1;
    static constexpr int kError = -2;

    virtual ~ByteIo() = default;
    virtual int read(char *buf, size_t len) = 0;
    virtual int write(const char *buf, size_t len) = 0;
};

class Connection
{
  public:
    enum class State
    {
        ReadHeaders, ///< collecting the request head
        ReadBody,    ///< head parsed; collecting body bytes
        Compute,     ///< full request handed off; reads suspended
        Write,       ///< response queued; flushing
        Closed,
    };

    /** Outcome of one onReadable() drain. */
    enum class ReadEvent
    {
        NeedMore,     ///< no full request yet (WouldBlock reached)
        RequestReady, ///< state()==Compute; takeRequest() is valid
        ParseError,   ///< answer errorStatus()/errorDetail() and close
        PeerClosed,   ///< clean EOF between requests: close quietly
        TornRequest,  ///< EOF mid-message: close without a response
        IoError,      ///< transport error: close
    };

    /** Outcome of one onWritable() flush. */
    enum class WriteEvent
    {
        Blocked,  ///< bytes remain; wait for write readiness
        KeepAlive,///< flushed; reset done — re-run onReadable()
        Closing,  ///< flushed; Connection: close — tear down
        IoError,  ///< transport error: close
    };

    explicit Connection(RequestParser::Limits limits)
        : limits_(limits), parser_(limits)
    {
    }

    State state() const;

    /**
     * Drain @p io until a full request, an error, or WouldBlock.
     * Re-entrant after a keep-alive reset: buffered pipelined bytes
     * are consumed before the transport is read again. Calling it
     * while COMPUTE is in flight is a no-op (NeedMore).
     */
    ReadEvent onReadable(ByteIo &io);

    /** Move the parsed request out (valid after RequestReady). */
    HttpRequest takeRequest();

    /** Parse-failure status / detail (valid after ParseError). */
    int errorStatus() const { return parser_.errorStatus(); }
    const std::string &errorDetail() const
    {
        return parser_.errorDetail();
    }

    /**
     * Serialize @p response and enter WRITE. @p keep_alive chooses
     * the post-flush transition (KeepAlive reset vs Closing). Legal
     * from Compute (the normal path) and from the read states (408 /
     * parse-error replies, which are always keep_alive=false).
     */
    void queueResponse(const HttpResponse &response, bool keep_alive);

    /**
     * Flush pending output until done or WouldBlock. On completion
     * of a keep-alive response the machine resets to READ_HEADERS
     * (the caller should immediately re-run onReadable(): a
     * pipelined request may already be buffered).
     */
    WriteEvent onWritable(ByteIo &io);

    /** Unflushed response bytes (write-backpressure tracking). */
    size_t pendingOutput() const
    {
        return out_.size() - outOff_;
    }

    /** True when bytes of a partially received message exist. */
    bool midRequest() const { return !parser_.idle(); }

    void close() { closed_ = true; }

  private:
    RequestParser::Limits limits_;
    RequestParser parser_;
    HttpRequest request_;     ///< valid while computing_
    bool computing_ = false;  ///< request taken, response not queued
    std::string out_;         ///< serialized response being flushed
    size_t outOff_ = 0;
    bool keepAliveAfterWrite_ = false;
    bool closed_ = false;
};

const char *connStateName(Connection::State state);

} // namespace macs::server

#endif // MACS_SERVER_CONNECTION_H
