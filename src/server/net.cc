#include "server/net.h"

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>

#include "support/logging.h"

namespace macs::server {

namespace {

using Clock = std::chrono::steady_clock;

int
remainingMs(Clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    return left > 0 ? static_cast<int>(left) : 0;
}

bool
parseAddr(const std::string &host, int port, sockaddr_in &out)
{
    std::memset(&out, 0, sizeof(out));
    out.sin_family = AF_INET;
    out.sin_port = htons(static_cast<uint16_t>(port));
    if (host.empty() || host == "0.0.0.0") {
        out.sin_addr.s_addr = htonl(INADDR_ANY);
        return true;
    }
    if (host == "localhost")
        return inet_pton(AF_INET, "127.0.0.1", &out.sin_addr) == 1;
    return inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

} // namespace

Listener::~Listener()
{
    close();
}

void
Listener::open(const std::string &host, int port, int backlog,
               bool reuse_port)
{
    sockaddr_in addr;
    if (!parseAddr(host, port, addr))
        fatal("serve: cannot parse listen address '", host, "'");

    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        fatal("serve: socket(): ", std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (reuse_port &&
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: SO_REUSEPORT unsupported: ",
              std::strerror(err));
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: cannot bind ", host, ":", port, ": ",
              std::strerror(err));
    }
    if (::listen(fd, backlog) != 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: listen(): ", std::strerror(err));
    }

    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port_ = ntohs(bound.sin_port);
    else
        port_ = port;
    fd_ = fd;
}

int
Listener::accept()
{
    if (fd_ < 0)
        return kIoError;
    int conn = -1;
    do {
        conn = ::accept4(fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
    } while (conn < 0 && (errno == EINTR || errno == ECONNABORTED));
    if (conn < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK ? kIoTimeout
                                                       : kIoError;
    int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return conn;
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
tcpConnect(const std::string &host, int port, int timeout_ms)
{
    sockaddr_in addr;
    if (!parseAddr(host.empty() ? "127.0.0.1" : host, port, addr))
        return kIoError;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return kIoError;
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
        ::close(fd);
        return kIoError;
    }
    if (rc != 0) {
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, timeout_ms) <= 0) {
            ::close(fd);
            return kIoError;
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0) {
            ::close(fd);
            return kIoError;
        }
    }
    ::fcntl(fd, F_SETFL, flags);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

int
readWithDeadline(int fd, char *buf, size_t len, int timeout_ms)
{
    pollfd pfd{fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc == 0)
        return kIoTimeout;
    if (rc < 0)
        return errno == EINTR ? kIoTimeout : kIoError;
    ssize_t n = ::recv(fd, buf, len, 0);
    if (n > 0)
        return static_cast<int>(n);
    if (n == 0)
        return kIoEof;
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK
               ? kIoTimeout
               : kIoError;
}

bool
writeAll(int fd, std::string_view data, int timeout_ms)
{
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    size_t off = 0;
    while (off < data.size()) {
        pollfd pfd{fd, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, remainingMs(deadline));
        if (rc <= 0) {
            if (rc < 0 && errno == EINTR)
                continue;
            return false;
        }
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

void
ignoreSigpipe()
{
    // Thread-safe: concurrent first calls both store SIG_IGN.
    static std::atomic<bool> done{false};
    if (!done.exchange(true, std::memory_order_acq_rel))
        ::signal(SIGPIPE, SIG_IGN);
}

} // namespace macs::server
