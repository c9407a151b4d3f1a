/**
 * @file
 * ServeClient — blocking-API client for the pythia-serve-v1 protocol,
 * shared by the serve_client load generator and tests/test_service.cpp.
 *
 * Internally the socket is nonblocking and every call runs a small
 * poll loop that always keeps reading while it writes — so a client
 * streaming records can never deadlock against a daemon that is
 * simultaneously throttling its input (inflight cap) and emitting
 * windows. Frames go out through the shared transport's OutboxRing
 * and come in through its FrameReader (common/transport.hpp).
 *
 * Flow control counts instructions, like the daemon's pump gates
 * (wire.hpp, kGateSlack): streamRun() keeps the records sent past the
 * daemon's acknowledged consumption (the records_consumed field every
 * kWindow frame carries) under min(warmup + window, instructions the
 * run has left) + 2·kGateSlack + twice the largest record's
 * instructions, sending in batches. The warmup share keeps the first
 * window fed while the daemon acknowledges nothing; the clamp stops
 * the stream just past the run's end; the largest-record term covers
 * a gap-heavy record overshooting the warmup or a window boundary. A
 * finished replay has therefore streamed fewer than 2·kGateSlack +
 * 3·(largest record) records past what the run consumed.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/transport.hpp"
#include "harness/spec.hpp"
#include "harness/timeseries.hpp"
#include "service/wire.hpp"
#include "workloads/trace.hpp"

namespace pythia::service {

class ServeClient
{
  public:
    /** @p address is a parseServeAddress() address, e.g. as printed
     *  by ServeServer::boundAddress() / pythia_serve. Does not
     *  connect yet; open()/stats() connect on demand. Every wait for
     *  a daemon frame fails after @p frame_timeout_ms. */
    explicit ServeClient(std::string address,
                         int frame_timeout_ms = 120'000);
    ~ServeClient();

    ServeClient(const ServeClient&) = delete;
    ServeClient& operator=(const ServeClient&) = delete;

    /**
     * Open (or transparently resume) tenant @p tenant for @p spec.
     * Retries for up to ~5s when the daemon answers kErrBusy (an
     * eviction for the same tenant is still in flight). @throws
     * ServeRemoteError on other kError answers, ServeWireError on
     * protocol violations.
     */
    HelloAckMsg open(const std::string& tenant,
                     const harness::ExperimentSpec& spec,
                     std::uint64_t window_instrs);

    /** What one attach streamed/observed. */
    struct RunProgress
    {
        harness::TimeSeries series; ///< windows received this attach
        std::optional<sim::RunResult> final_result; ///< set at run end
        std::uint64_t windows_completed = 0; ///< per kRunEnd
        std::uint64_t records_streamed = 0;  ///< sent this attach
        /** Records the daemon had consumed at its last kWindow or
         *  kRunEnd this attach. */
        std::uint64_t records_consumed = 0;
        /** Seconds between consecutive received kWindow frames. */
        std::vector<double> window_gaps_s;
    };

    /**
     * Stream @p records[from..] and collect windows until the daemon
     * reports run end — or, when @p stop_after_windows is set, until
     * that many windows arrived this attach (for mid-stream
     * evict/restore tests). @throws ServeWireError when the daemon
     * disappears mid-run.
     */
    RunProgress
    streamRun(const std::vector<wl::TraceRecord>& records,
              std::uint64_t from = 0,
              std::optional<std::uint64_t> stop_after_windows =
                  std::nullopt);

    /** Ask the daemon to evict this tenant to disk. Windows that race
     *  the detach are appended to @p stray_windows when non-null. */
    DetachAckMsg detach(harness::TimeSeries* stray_windows = nullptr);

    /** Fetch the aggregate stats JSON (usable without open()). */
    std::string stats();

    void close();
    bool connected() const { return fd_ >= 0; }

  private:
    void ensureConnected();
    /** Flush pending output and wait for the next complete frame.
     *  @throws ServeWireError on EOF or frame-timeout expiry. */
    transport::Payload waitFrame();
    /** One poll round; returns a frame if one completed. Waits with
     *  ::poll, not transport::EventLoop: the client watches one fd,
     *  so each wait is one call with no epoll fd to create or keep
     *  in sync. */
    std::optional<transport::Payload> pollOnce(int timeout_ms);
    /** The next whole buffered frame, if any. */
    std::optional<transport::Payload> nextFrame();

    std::string address_;
    int frame_timeout_ms_;
    int fd_ = -1;
    transport::FrameReader in_;
    transport::OutboxRing out_;
    std::uint64_t records_consumed_ = 0; ///< daemon's last ack
    harness::ExperimentSpec spec_;
    std::uint64_t window_instrs_ = 0;
};

/** Records per kAccess frame streamRun() sends. */
inline constexpr std::uint64_t kSendBatch = 4096;

/** Most records a finished streamRun() of @p records sends past what
 *  its run consumed: 2·kGateSlack + 3·(largest record's instructions),
 *  the bound of the flow control above. */
std::uint64_t readAheadBound(const std::vector<wl::TraceRecord>& records);

/** Connect a blocking socket to a parseServeAddress() address.
 *  @throws ServeError on a bad address (before any connect) or a
 *  failed connect. */
int connectToServe(const std::string& address);

} // namespace pythia::service
