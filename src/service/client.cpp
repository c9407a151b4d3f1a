#include "service/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace pythia::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Instructions of the largest of @p records. */
std::uint64_t
maxRecordInstrs(const std::vector<wl::TraceRecord>& records)
{
    std::uint64_t max_record = 0;
    for (const wl::TraceRecord& r : records)
        max_record = std::max(max_record, r.instrs());
    return max_record;
}

} // namespace

std::uint64_t
readAheadBound(const std::vector<wl::TraceRecord>& records)
{
    return 2 * kGateSlack + 3 * maxRecordInstrs(records);
}

int
connectToServe(const std::string& address)
{
    const ServeAddress a = parseServeAddress(address);
    std::signal(SIGPIPE, SIG_IGN);
    sockaddr_storage addr;
    const socklen_t len = toSockaddr(a, addr);
    const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
    if (fd < 0)
        throw ServeError(std::string("socket: ") + std::strerror(errno));
    if (!a.is_unix) {
        // Small frames fly in both directions; Nagle would hold them
        // back against the daemon's window stream.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) < 0) {
        const int err = errno;
        ::close(fd);
        throw ServeError("connect " + address + ": " + std::strerror(err));
    }
    return fd;
}

ServeClient::ServeClient(std::string address, int frame_timeout_ms)
    : address_(std::move(address)), frame_timeout_ms_(frame_timeout_ms)
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
    transport::setNonBlocking(fd_);
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
ServeClient::waitFrame()
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(frame_timeout_ms_);
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
    const std::uint64_t n = records.size();
    const std::uint64_t max_record = maxRecordInstrs(records);
    const std::uint64_t run = spec_.warmup_instrs + spec_.sim_instrs;

    // Instructions of records[0..sent) and of records[0..consumed),
    // the prefix the daemon has acknowledged consuming.
    std::uint64_t sent = std::min(from, n);
    std::uint64_t sent_instrs = 0;
    for (std::uint64_t i = 0; i < sent; ++i)
        sent_instrs += records[i].instrs();
    std::uint64_t consumed = 0;
    std::uint64_t consumed_instrs = 0;

    auto last_window_at = Clock::now();
    for (;;) {
        for (; consumed < std::min(records_consumed_, n); ++consumed)
            consumed_instrs += records[consumed].instrs();
        // Read-ahead cap, in instructions of records[consumed..sent):
        // one warmup + one window + double slack (the daemon
        // acknowledges no consumption between warmup and the first
        // window), clamped to what the run can still consume, plus two
        // records' worth for the warmup and window boundaries a
        // gap-heavy record may overshoot. The daemon's next gate is
        // always inside it, and nothing past the run's end plus slack
        // is sent.
        const std::uint64_t left =
            run > consumed_instrs ? run - consumed_instrs : 0;
        const std::uint64_t limit =
            consumed_instrs +
            std::min(spec_.warmup_instrs + window_instrs_, left) +
            2 * kGateSlack + 2 * max_record;
        while (sent < n && out_.bytes() < (4u << 20)) {
            std::uint64_t end = sent;
            while (end < n && end - sent < kSendBatch &&
                   sent_instrs < limit)
                sent_instrs += records[end++].instrs();
            if (end == sent)
                break;
            out_.push(encodeAccess(records.data() + sent,
                                    static_cast<std::size_t>(end - sent)));
            progress.records_streamed += end - sent;
            sent = end;
        }
        const std::vector<std::uint8_t> frame = waitFrame();
        switch (frameType(frame)) {
        case FrameType::kWindow: {
            const WindowMsg wm = decodeWindow(frame);
            records_consumed_ = wm.records_consumed;
            progress.records_consumed = wm.records_consumed;
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
            progress.records_consumed = rm.records_consumed;
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
