#include "service/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pythia::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Records per kAccess frame. */
constexpr std::uint64_t kSendBatch = 4096;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

int
connectToServe(const std::string& address)
{
    std::signal(SIGPIPE, SIG_IGN);
    if (address.rfind("unix:", 0) == 0) {
        const std::string path = address.substr(5);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw ServeError(std::string("socket: ") +
                             std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path)) {
            ::close(fd);
            throw ServeError("unix socket path too long: " + path);
        }
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) < 0) {
            const int err = errno;
            ::close(fd);
            throw ServeError("connect " + address + ": " +
                             std::strerror(err));
        }
        return fd;
    }
    if (address.rfind("tcp:", 0) == 0) {
        const std::string hostport = address.substr(4);
        const std::size_t colon = hostport.rfind(':');
        if (colon == std::string::npos)
            throw ServeError("bad tcp address (want tcp:host:port): " +
                             address);
        const std::string host = hostport.substr(0, colon);
        const int port = std::atoi(hostport.c_str() + colon + 1);
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw ServeError(std::string("socket: ") +
                             std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
            ::close(fd);
            throw ServeError("bad tcp host (want a dotted quad): " +
                             address);
        }
        // Small frames fly in both directions; Nagle would hold them
        // back against the daemon's window stream.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) < 0) {
            const int err = errno;
            ::close(fd);
            throw ServeError("connect " + address + ": " +
                             std::strerror(err));
        }
        return fd;
    }
    throw ServeError("bad serve address (want unix:<path> or "
                     "tcp:<host>:<port>): " +
                     address);
}

ServeClient::ServeClient(std::string address)
    : address_(std::move(address))
{
}

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    in_.clear();
    out_.clear();
    records_consumed_ = 0;
}

void
ServeClient::ensureConnected()
{
    if (fd_ >= 0)
        return;
    fd_ = connectToServe(address_);
    setNonBlocking(fd_);
}

std::optional<transport::Payload>
ServeClient::nextFrame()
{
    try {
        return in_.next();
    } catch (const transport::FrameError& e) {
        throw ServeWireError(std::string("serve client: ") + e.what());
    }
}

std::optional<transport::Payload>
ServeClient::pollOnce(int timeout_ms)
{
    // A frame may already be buffered.
    if (auto frame = nextFrame())
        return frame;

    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (!out_.empty())
        pfd.events |= POLLOUT;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
        if (errno == EINTR)
            return std::nullopt;
        throw ServeWireError(std::string("serve client: poll: ") +
                             std::strerror(errno));
    }
    if (rc == 0)
        return std::nullopt;

    if ((pfd.revents & POLLOUT) &&
        transport::flushOutbox(fd_, out_) == transport::FlushResult::kDead)
        throw ServeWireError(std::string("serve client: send: ") +
                             std::strerror(errno));

    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) && !in_.fill(fd_)) {
        close();
        throw ServeWireError(
            "serve client: daemon closed the connection");
    }
    return nextFrame();
}

transport::Payload
ServeClient::waitFrame(int timeout_ms)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const auto left = std::chrono::duration_cast<
                              std::chrono::milliseconds>(deadline -
                                                         Clock::now())
                              .count();
        if (left <= 0)
            throw ServeWireError(
                "serve client: timed out waiting for a frame");
        if (auto frame =
                pollOnce(static_cast<int>(std::min<long long>(left, 100))))
            return *frame;
    }
}

HelloAckMsg
ServeClient::open(const std::string& tenant,
                  const harness::ExperimentSpec& spec,
                  std::uint64_t window_instrs)
{
    spec_ = spec;
    window_instrs_ = window_instrs;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (;;) {
        ensureConnected();
        HelloMsg m;
        m.tenant = tenant;
        m.spec = spec;
        m.window_instrs = window_instrs;
        out_.push(encodeHello(m));
        const std::vector<std::uint8_t> frame = waitFrame();
        const FrameType type = frameType(frame);
        if (type == FrameType::kHelloAck) {
            const HelloAckMsg ack = decodeHelloAck(frame);
            records_consumed_ = ack.records_consumed;
            return ack;
        }
        if (type == FrameType::kError) {
            const ErrorMsg err = decodeError(frame);
            close(); // the daemon closes after kError
            if (err.kind == kErrBusy && Clock::now() < deadline) {
                // An eviction for this tenant is still in flight;
                // back off and retry.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            throw ServeRemoteError(err.kind, err.message);
        }
        throw ServeWireError("serve client: unexpected frame " +
                             std::to_string(frame[0]) +
                             " answering hello");
    }
}

ServeClient::RunProgress
ServeClient::streamRun(const std::vector<wl::TraceRecord>& records,
                       std::uint64_t from,
                       std::optional<std::uint64_t> stop_after_windows)
{
    RunProgress progress;
    // Never run further ahead of the daemon's acknowledged consumption
    // than one warmup + one window + double slack: bounded daemon
    // memory, and always enough for it to finish the next window.
    const std::uint64_t ahead = spec_.warmup_instrs + window_instrs_ +
                                2 * kGateSlack;
    std::uint64_t sent = from;
    auto last_window_at = Clock::now();
    for (;;) {
        while (sent < records.size() &&
               sent - records_consumed_ < ahead &&
               out_.bytes() < (4u << 20)) {
            const std::uint64_t n = std::min(
                {kSendBatch,
                 static_cast<std::uint64_t>(records.size()) - sent,
                 ahead - (sent - records_consumed_)});
            out_.push(encodeAccess(records.data() + sent,
                                    static_cast<std::size_t>(n)));
            sent += n;
            progress.records_streamed += n;
        }
        const std::vector<std::uint8_t> frame = waitFrame();
        switch (frameType(frame)) {
        case FrameType::kWindow: {
            const WindowMsg wm = decodeWindow(frame);
            records_consumed_ = wm.records_consumed;
            progress.series.append(wm.window);
            const auto now = Clock::now();
            progress.window_gaps_s.push_back(
                std::chrono::duration<double>(now - last_window_at)
                    .count());
            last_window_at = now;
            if (stop_after_windows &&
                progress.series.size() >= *stop_after_windows)
                return progress;
            break;
        }
        case FrameType::kRunEnd: {
            const RunEndMsg rm = decodeRunEnd(frame);
            records_consumed_ = rm.records_consumed;
            progress.final_result = rm.final_result;
            progress.windows_completed = rm.windows_completed;
            return progress;
        }
        case FrameType::kError: {
            const ErrorMsg err = decodeError(frame);
            close();
            throw ServeRemoteError(err.kind, err.message);
        }
        default:
            throw ServeWireError(
                "serve client: unexpected frame " +
                std::to_string(frame[0]) + " while streaming");
        }
    }
}

DetachAckMsg
ServeClient::detach(harness::TimeSeries* stray_windows)
{
    out_.push(encodeDetach());
    for (;;) {
        const std::vector<std::uint8_t> frame = waitFrame();
        switch (frameType(frame)) {
        case FrameType::kDetachAck:
            return decodeDetachAck(frame);
        case FrameType::kWindow: {
            const WindowMsg wm = decodeWindow(frame);
            records_consumed_ = wm.records_consumed;
            if (stray_windows)
                stray_windows->append(wm.window);
            break;
        }
        case FrameType::kRunEnd:
            // The run finished before the detach landed; the daemon
            // acks with no state to evict.
            break;
        case FrameType::kError: {
            const ErrorMsg err = decodeError(frame);
            close();
            throw ServeRemoteError(err.kind, err.message);
        }
        default:
            throw ServeWireError(
                "serve client: unexpected frame " +
                std::to_string(frame[0]) + " awaiting detach ack");
        }
    }
}

std::string
ServeClient::stats()
{
    ensureConnected();
    out_.push(encodeStats());
    for (;;) {
        const std::vector<std::uint8_t> frame = waitFrame();
        switch (frameType(frame)) {
        case FrameType::kStatsAck:
            return decodeStatsAck(frame);
        case FrameType::kWindow:
        case FrameType::kRunEnd:
            break; // stats interleaved with a live run: skip
        case FrameType::kError: {
            const ErrorMsg err = decodeError(frame);
            close();
            throw ServeRemoteError(err.kind, err.message);
        }
        default:
            throw ServeWireError(
                "serve client: unexpected frame " +
                std::to_string(frame[0]) + " awaiting stats");
        }
    }
}

} // namespace pythia::service
