#include "server/poller.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include "support/logging.h"

namespace macs::server {

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

EventPoller::EventPoller(Backend backend) : backend_(backend)
{
#ifdef __linux__
    if (backend_ == Backend::Default) {
        epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
        if (epollFd_ < 0)
            fatal("epoll_create1(): ", std::strerror(errno));
    }
#else
    backend_ = Backend::Poll;
#endif
}

EventPoller::~EventPoller()
{
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

const char *
EventPoller::backendName() const
{
    return epollFd_ >= 0 ? "epoll" : "poll";
}

#ifdef __linux__
namespace {

uint32_t
epollMask(bool want_write)
{
    uint32_t mask = EPOLLIN | EPOLLRDHUP | EPOLLET;
    if (want_write)
        mask |= EPOLLOUT;
    return mask;
}

} // namespace
#endif

bool
EventPoller::add(int fd, bool want_write, void *data, bool exclusive)
{
    if (fd < 0)
        return false;
#ifdef __linux__
    if (epollFd_ >= 0) {
        epoll_event ev{};
        // EPOLLEXCLUSIVE admits only EPOLLIN/EPOLLOUT/EPOLLET.
        ev.events = exclusive ? EPOLLIN | EPOLLET | EPOLLEXCLUSIVE
                              : epollMask(want_write);
        ev.data.ptr = data;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0)
            return false;
    }
#endif
    interest_[fd] = Interest{want_write, data};
    return true;
}

bool
EventPoller::mod(int fd, bool want_write, void *data)
{
    auto it = interest_.find(fd);
    if (it == interest_.end())
        return false;
#ifdef __linux__
    if (epollFd_ >= 0) {
        epoll_event ev{};
        ev.events = epollMask(want_write);
        ev.data.ptr = data;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev) != 0)
            return false;
    }
#endif
    it->second = Interest{want_write, data};
    return true;
}

void
EventPoller::del(int fd)
{
    auto it = interest_.find(fd);
    if (it == interest_.end())
        return;
#ifdef __linux__
    if (epollFd_ >= 0)
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
    interest_.erase(it);
}

int
EventPoller::wait(std::vector<PollEvent> &out, int timeout_ms)
{
    out.clear();
#ifdef __linux__
    if (epollFd_ >= 0) {
        epoll_event events[128];
        int n = ::epoll_wait(epollFd_, events, 128, timeout_ms);
        if (n < 0)
            return errno == EINTR ? 0 : -1;
        out.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            PollEvent e;
            e.data = events[i].data.ptr;
            e.readable = (events[i].events &
                          (EPOLLIN | EPOLLRDHUP | EPOLLPRI)) != 0;
            e.writable = (events[i].events & EPOLLOUT) != 0;
            e.error =
                (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
            out.push_back(e);
        }
        return n;
    }
#endif
    std::vector<pollfd> pfds;
    std::vector<void *> datas;
    pfds.reserve(interest_.size());
    datas.reserve(interest_.size());
    for (const auto &[fd, in] : interest_) {
        pollfd p{};
        p.fd = fd;
        p.events = POLLIN;
        if (in.wantWrite)
            p.events |= POLLOUT;
        pfds.push_back(p);
        datas.push_back(in.data);
    }
    int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n < 0)
        return errno == EINTR ? 0 : -1;
    for (size_t i = 0; i < pfds.size(); ++i) {
        short re = pfds[i].revents;
        if (re == 0)
            continue;
        PollEvent e;
        e.data = datas[i];
        e.readable = (re & (POLLIN | POLLHUP | POLLPRI)) != 0;
        e.writable = (re & POLLOUT) != 0;
        e.error = (re & (POLLERR | POLLNVAL)) != 0;
        out.push_back(e);
    }
    return static_cast<int>(out.size());
}

Wakeup::Wakeup()
{
#ifdef __linux__
    int fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (fd >= 0) {
        readFd_ = writeFd_ = fd;
        return;
    }
#endif
    int fds[2];
    if (::pipe(fds) != 0)
        fatal("wakeup pipe(): ", std::strerror(errno));
    setNonBlocking(fds[0]);
    setNonBlocking(fds[1]);
    readFd_ = fds[0];
    writeFd_ = fds[1];
}

Wakeup::~Wakeup()
{
    if (readFd_ >= 0)
        ::close(readFd_);
    if (writeFd_ >= 0 && writeFd_ != readFd_)
        ::close(writeFd_);
}

void
Wakeup::notify()
{
    uint64_t one = 1;
    // A full pipe / EAGAIN is fine: the shard is already signalled.
    ssize_t ignored =
        ::write(writeFd_, &one,
                writeFd_ == readFd_ ? sizeof(one) : 1);
    (void)ignored;
}

void
Wakeup::drain()
{
    char buf[64];
    while (::read(readFd_, buf, sizeof(buf)) > 0) {
    }
}

} // namespace macs::server
