/**
 * @file
 * Portable readiness-notification layer of the event-driven server
 * core (docs/SERVER.md): EventPoller wraps `epoll(7)` in
 * edge-triggered mode on Linux and falls back to `poll(2)` elsewhere
 * (or on request, so the fallback is testable on Linux too), and
 * Wakeup is the cross-thread doorbell (eventfd on Linux, self-pipe
 * otherwise) that lets compute workers nudge an event-loop shard out
 * of its wait.
 *
 * Semantics are normalized to the edge-triggered contract: after a
 * readable/writable event the owner must drain the fd until
 * EAGAIN. The poll(2) backend is level-triggered underneath, which
 * only produces extra wakeups — never missed ones — so shard logic is
 * identical on both backends.
 */

#ifndef MACS_SERVER_POLLER_H
#define MACS_SERVER_POLLER_H

#include <cstddef>
#include <map>
#include <vector>

namespace macs::server {

/** One readiness report from EventPoller::wait(). */
struct PollEvent
{
    void *data = nullptr; ///< as registered with add()/mod()
    bool readable = false;
    bool writable = false;
    /** Error/hangup; the fd should be drained and closed. */
    bool error = false;
};

class EventPoller
{
  public:
    enum class Backend
    {
        /** epoll on Linux, poll(2) elsewhere. */
        Default,
        /** Force the poll(2) fallback (portability testing). */
        Poll,
    };

    explicit EventPoller(Backend backend = Backend::Default);
    ~EventPoller();

    EventPoller(const EventPoller &) = delete;
    EventPoller &operator=(const EventPoller &) = delete;

    /**
     * Register @p fd for read readiness (plus write readiness when
     * @p want_write). @p data is echoed back in PollEvent. With
     * @p exclusive (a listening socket shared by several pollers),
     * epoll wakes only one of the pollers waiting on the fd
     * (EPOLLEXCLUSIVE); such an fd cannot be mod()ified.
     * @retval false on registration failure (fd limit, bad fd).
     */
    bool add(int fd, bool want_write, void *data,
             bool exclusive = false);

    /** Change the write-interest / data of a registered fd. */
    bool mod(int fd, bool want_write, void *data);

    /** Deregister @p fd (ignores fds that were never added). */
    void del(int fd);

    /**
     * Wait up to @p timeout_ms (-1 = forever) and append ready fds to
     * @p out (cleared first).
     * @return number of events, 0 on timeout, -1 on error (EINTR is
     *         reported as 0).
     */
    int wait(std::vector<PollEvent> &out, int timeout_ms);

    /** Registered fd count (excludes nothing; wakeup fds included). */
    size_t size() const { return interest_.size(); }

    /** "epoll" or "poll" — exported on the per-shard metric labels. */
    const char *backendName() const;

  private:
    struct Interest
    {
        bool wantWrite = false;
        void *data = nullptr;
    };

    Backend backend_;
    int epollFd_ = -1; ///< -1 when the poll(2) backend is active
    /** Registered fds; the poll(2) backend rebuilds its set from it. */
    std::map<int, Interest> interest_;
};

/**
 * Cross-thread doorbell: notify() is async-signal-safe-ish (one
 * syscall, never blocks) and may be called from any thread; the
 * owning shard registers fd() with its poller and calls drain() when
 * it fires.
 */
class Wakeup
{
  public:
    Wakeup();
    ~Wakeup();

    Wakeup(const Wakeup &) = delete;
    Wakeup &operator=(const Wakeup &) = delete;

    /** The readable end to register with an EventPoller. */
    int fd() const { return readFd_; }

    /** Make fd() readable; coalesces with pending notifications. */
    void notify();

    /** Consume pending notifications (call on readability). */
    void drain();

  private:
    int readFd_ = -1;
    int writeFd_ = -1; ///< == readFd_ for eventfd
};

/** Put @p fd into non-blocking mode. @retval false on fcntl failure. */
bool setNonBlocking(int fd);

} // namespace macs::server

#endif // MACS_SERVER_POLLER_H
