/**
 * @file
 * Thin POSIX socket layer of `macs serve` (docs/SERVER.md): a
 * non-blocking listening socket that the event-loop shards poll and
 * accept from, and deadline-bounded read/write primitives used by the
 * in-process HTTP client. IPv4 loopback-oriented; everything returns
 * explicit status codes instead of blocking forever.
 */

#ifndef MACS_SERVER_NET_H
#define MACS_SERVER_NET_H

#include <cstddef>
#include <string>
#include <string_view>

namespace macs::server {

/** Result codes of the deadline-bounded I/O primitives. */
inline constexpr int kIoTimeout = -1;
inline constexpr int kIoError = -2;
inline constexpr int kIoEof = 0;

/** Non-blocking TCP listening socket (SO_REUSEADDR, port 0 =
 *  ephemeral). */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind + listen; fatal() on failure. With @p reuse_port the
     * socket is additionally bound with SO_REUSEPORT so several
     * processes can share one listen port and the kernel spreads
     * incoming connections across them (supervised multi-process
     * serving, docs/SERVER.md "Multi-process serving").
     */
    void open(const std::string &host, int port, int backlog = 128,
              bool reuse_port = false);

    /** The bound port (resolves port 0 after open()). */
    int boundPort() const { return port_; }

    /** The listening fd (-1 when closed), for an EventPoller. */
    int fd() const { return fd_; }

    /**
     * Accept one pending connection without blocking. The returned
     * fd is non-blocking, close-on-exec, and TCP_NODELAY.
     * @return a connected fd >= 0, kIoTimeout when none is pending,
     *         or kIoError (also returned once the listener was
     *         closed).
     */
    int accept();

    void close();

    bool isOpen() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    int port_ = 0;
};

/**
 * Connect to host:port with a bounded wait.
 * @return connected fd >= 0, or kIoError.
 */
int tcpConnect(const std::string &host, int port, int timeout_ms);

/**
 * Read up to @p len bytes, waiting at most @p timeout_ms for the fd
 * to become readable.
 * @return bytes read (> 0), kIoEof, kIoTimeout, or kIoError.
 */
int readWithDeadline(int fd, char *buf, size_t len, int timeout_ms);

/**
 * Write all of @p data, waiting at most @p timeout_ms overall
 * (SIGPIPE suppressed). @retval false on timeout or error.
 */
bool writeAll(int fd, std::string_view data, int timeout_ms);

/** Close @p fd (ignores invalid fds). */
void closeFd(int fd);

/**
 * Process-wide, idempotent signal(SIGPIPE, SIG_IGN). Socket sends
 * already pass MSG_NOSIGNAL, but plain write(2) — the supervised
 * worker's heartbeat pipe — has no such flag; a peer that disappears
 * mid-write must surface as EPIPE, never as a process-killing signal.
 */
void ignoreSigpipe();

} // namespace macs::server

#endif // MACS_SERVER_NET_H
