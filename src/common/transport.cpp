#include "common/transport.hpp"

#include <cerrno>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace pythia::transport {

namespace {

[[noreturn]] void
throwErrno(const char* what)
{
    throw std::system_error(errno, std::generic_category(), what);
}

/** @return bytes read; short only at EOF. */
std::size_t
readUpTo(int fd, void* data, std::size_t n)
{
    auto* p = static_cast<std::uint8_t*>(data);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("frame read");
        }
        if (r == 0)
            break;
        got += static_cast<std::size_t>(r);
    }
    return got;
}

} // namespace

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
setCloexec(int fd)
{
    const int flags = ::fcntl(fd, F_GETFD, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

// ---------------------------------------------------------- frame codec

FrameHeader
encodeFrameHeader(std::size_t n)
{
    if (n == 0 || n > kMaxFramePayload)
        throw FrameError("invalid frame payload size " +
                         std::to_string(n));
    FrameHeader h;
    for (std::size_t i = 0; i < h.size(); ++i)
        h[i] = static_cast<std::uint8_t>(n >> (8 * i));
    return h;
}

std::uint32_t
decodeFrameHeader(const std::uint8_t* p)
{
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
        n |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    if (n == 0 || n > kMaxFramePayload)
        throw FrameError("bad frame length " + std::to_string(n));
    return n;
}

// ----------------------------------------------------- blocking frame I/O

void
writeAll(int fd, const void* data, std::size_t n)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("write");
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
}

void
writeFrame(int fd, const Payload& payload)
{
    const FrameHeader h = encodeFrameHeader(payload.size());
    writeAll(fd, h.data(), h.size());
    writeAll(fd, payload.data(), payload.size());
}

std::optional<Payload>
readFrame(int fd)
{
    FrameHeader h;
    const std::size_t got = readUpTo(fd, h.data(), h.size());
    if (got == 0)
        return std::nullopt; // clean EOF at a frame boundary
    if (got < h.size())
        throw FrameError("truncated frame header");
    Payload payload(decodeFrameHeader(h.data()));
    if (readUpTo(fd, payload.data(), payload.size()) < payload.size())
        throw FrameError("truncated frame payload");
    return payload;
}

// ---------------------------------------------------------- FrameReader

bool
FrameReader::fill(int fd)
{
    if (head_ > 0) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    for (;;) {
        std::uint8_t chunk[64 * 1024];
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n > 0) {
            buf_.insert(buf_.end(), chunk, chunk + n);
            if (static_cast<std::size_t>(n) < sizeof chunk)
                return true; // drained what the kernel held
            continue;
        }
        if (n == 0)
            return false; // EOF
        if (errno == EINTR)
            continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
    }
}

std::optional<Payload>
FrameReader::next()
{
    if (buffered() < kFrameHeaderBytes)
        return std::nullopt;
    const std::uint8_t* p = buf_.data() + head_;
    const std::uint32_t n = decodeFrameHeader(p);
    if (buffered() - kFrameHeaderBytes < n)
        return std::nullopt;
    Payload payload(p + kFrameHeaderBytes, p + kFrameHeaderBytes + n);
    head_ += kFrameHeaderBytes + n;
    return payload;
}

// ----------------------------------------------------------- OutboxRing

void
OutboxRing::push(Payload payload)
{
    Slot s{encodeFrameHeader(payload.size()), std::move(payload)};
    bytes_ += s.header.size() + s.payload.size();
    slots_.push_back(std::move(s));
}

std::size_t
OutboxRing::gather(struct iovec* iov, std::size_t max_iov) const
{
    std::size_t n = 0;
    std::size_t off = head_off_;
    for (const Slot& s : slots_) {
        if (n == max_iov)
            break;
        // Header segment (may be partially sent).
        if (off < s.header.size()) {
            iov[n].iov_base =
                const_cast<std::uint8_t*>(s.header.data()) + off;
            iov[n].iov_len = s.header.size() - off;
            ++n;
            off = 0;
        } else {
            off -= s.header.size();
        }
        if (n == max_iov)
            break;
        iov[n].iov_base =
            const_cast<std::uint8_t*>(s.payload.data()) + off;
        iov[n].iov_len = s.payload.size() - off;
        ++n;
        off = 0;
    }
    return n;
}

void
OutboxRing::consume(std::size_t n)
{
    bytes_ -= n;
    head_off_ += n;
    while (!slots_.empty()) {
        const std::size_t front =
            slots_.front().header.size() + slots_.front().payload.size();
        if (head_off_ < front)
            break;
        head_off_ -= front;
        slots_.pop_front();
    }
}

FlushResult
flushOutbox(int fd, OutboxRing& ring)
{
    // IOV_MAX is at least 16 by POSIX; 64 segments (32 frames) per
    // sendmsg is far below any real limit and keeps the array small.
    constexpr std::size_t kMaxIov = 64;
    while (!ring.empty()) {
        struct iovec iov[kMaxIov];
        const std::size_t n = ring.gather(iov, kMaxIov);
        std::size_t batch = 0;
        for (std::size_t i = 0; i < n; ++i)
            batch += iov[i].iov_len;
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = n;
        // sendmsg instead of writev: writev has no MSG_NOSIGNAL, and a
        // vanished peer must not kill the process with SIGPIPE.
        const ssize_t wrote = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return FlushResult::kBlocked;
            if (errno == EINTR)
                continue;
            return FlushResult::kDead;
        }
        ring.consume(static_cast<std::size_t>(wrote));
        // A short write means the kernel buffer is full; wait for
        // writability instead of spinning on EAGAIN.
        if (!ring.empty() && static_cast<std::size_t>(wrote) < batch)
            return FlushResult::kBlocked;
    }
    return FlushResult::kDrained;
}

// ------------------------------------------------------------ EventLoop

namespace {

epoll_event
eventFor(int fd, bool want_in, bool want_out)
{
    epoll_event ev{};
    if (want_in)
        ev.events |= EPOLLIN;
    if (want_out)
        ev.events |= EPOLLOUT;
    ev.data.fd = fd;
    return ev;
}

} // namespace

EventLoop::EventLoop() : ep_(::epoll_create1(EPOLL_CLOEXEC))
{
    if (ep_ < 0)
        throwErrno("epoll_create1");
}

EventLoop::~EventLoop()
{
    ::close(ep_);
}

void
EventLoop::add(int fd, void* ud, bool want_in, bool want_out)
{
    epoll_event ev = eventFor(fd, want_in, want_out);
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0)
        throwErrno("epoll_ctl(ADD)");
    uds_[fd] = ud;
}

void
EventLoop::mod(int fd, bool want_in, bool want_out)
{
    epoll_event ev = eventFor(fd, want_in, want_out);
    if (::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) != 0)
        throwErrno("epoll_ctl(MOD)");
}

void
EventLoop::del(int fd)
{
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
    uds_.erase(fd);
}

std::size_t
EventLoop::wait(std::vector<IoEvent>& out, int timeout_ms)
{
    out.clear();
    epoll_event evs[256];
    const int rc = ::epoll_wait(ep_, evs, 256, timeout_ms);
    for (int i = 0; i < rc; ++i) {
        IoEvent ev;
        ev.fd = evs[i].data.fd;
        const auto it = uds_.find(ev.fd);
        ev.ud = it == uds_.end() ? nullptr : it->second;
        ev.in = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
        ev.out = (evs[i].events & EPOLLOUT) != 0;
        ev.err = (evs[i].events & EPOLLERR) != 0;
        out.push_back(ev);
    }
    return out.size();
}

} // namespace pythia::transport
