/**
 * @file
 * ServeServer — the prefetch-as-a-service daemon core (DESIGN.md §12).
 *
 * One loop thread on the shared epoll EventLoop (common/transport.hpp)
 * owns every socket, accepts clients on a Unix or loopback-TCP socket
 * and speaks pythia-serve-v1 (wire.hpp); it never simulates. Each
 * client attaches a tenant (tenant.hpp): an id + ExperimentSpec whose
 * access stream the client feeds and whose SimSession runs as tasks on
 * a worker pool, serialized per tenant, emitting kWindow metrics.
 * Workers stage frames on the connection and mark it dirty; the loop
 * flushes each dirty connection with one vectored write per batch.
 *
 * Eviction (disconnect mid-run, kDetach, idle timeout, drain) writes
 * the tenant to state_dir as one pythia-snap-v1 image, which a later
 * kHello for the same tenant restores bit-exactly (tenant.hpp). A
 * state_dir written by a daemon that kept a .trace beside each .snap
 * is refused with kErrResume: those images have no `stream` section.
 *
 * Warm pool (warm_pool_bytes > 0): identical specs warm once; later
 * opens fork the pooled post-warmup machine and skip warmup
 * bit-exactly (warm_pool.hpp).
 *
 * Graceful drain (SIGTERM → requestDrain(), async-signal-safe): stop
 * accepting, evict every live session to state_dir, flush outstanding
 * frames, close, join() returns 0.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "service/wire.hpp"

namespace pythia::service {

/** The daemon's own counters, each named once: ServeServer::Stats
 *  holds them as integers, the daemon as atomics, and the kStatsAck
 *  document prints them under these keys, in this order. */
template <class T>
struct ServeCounters
{
    T connections_accepted{};
    T sessions_opened{};
    T sessions_resumed{};
    T sessions_evicted{};
    T runs_completed{};
    T windows_emitted{};
    T records_received{};
    T frames_rejected{};

    /** Call @p f(key, counter of each of @p sets...) per counter. */
    template <class F, class... Sets>
    static void each(F&& f, Sets&... sets)
    {
        f("connections_accepted", sets.connections_accepted...);
        f("sessions_opened", sets.sessions_opened...);
        f("sessions_resumed", sets.sessions_resumed...);
        f("sessions_evicted", sets.sessions_evicted...);
        f("runs_completed", sets.runs_completed...);
        f("windows_emitted", sets.windows_emitted...);
        f("records_received", sets.records_received...);
        f("frames_rejected", sets.frames_rejected...);
    }
};

struct ServeOptions
{
    /** Listen address (parseServeAddress): a unix path, or a loopback
     *  TCP port where 0 is ephemeral (read the bound port back via
     *  boundAddress()). */
    ServeAddress listen;

    /** Session-worker threads. */
    unsigned workers = 2;

    /** Directory for evicted-session state (created on start). */
    std::string state_dir = "serve_state";

    /** Per-tenant cap on streamed-but-unconsumed records before the
     *  loop stops reading the connection (input backpressure). */
    std::uint64_t max_inflight_records = 1u << 20;

    /** Per-connection cap on queued outgoing bytes before the pump
     *  stops advancing windows until they drain below half of it
     *  (slow-client write throttling). */
    std::size_t max_outbox_bytes = 8u << 20;

    /** Evict sessions idle for this long and close their connection;
     *  0 disables idle eviction. */
    std::uint64_t idle_evict_ms = 0;

    /** Byte budget of the shared warm pool (`warm_pool_bytes=` knob,
     *  warm_pool.hpp); 0 disables the pool. */
    std::size_t warm_pool_bytes = 0;

    /** Diagnostics stream (nullptr = silent). */
    std::ostream* log = nullptr;
};

class ServeServer
{
  public:
    explicit ServeServer(ServeOptions opt = {});
    ~ServeServer();

    ServeServer(const ServeServer&) = delete;
    ServeServer& operator=(const ServeServer&) = delete;

    /** Bind, listen and spawn the loop + worker threads.
     *  @throws ServeError when the address cannot be bound. */
    void start();

    /** "unix:<path>" or "tcp:127.0.0.1:<port>" (valid after start()). */
    std::string boundAddress() const;

    /** Begin graceful drain. Async-signal-safe (atomic flag + one
     *  self-pipe write) — call it from a SIGTERM handler. */
    void requestDrain();

    /** Wait for the loop to finish draining; returns the exit code
     *  (0 = clean drain). */
    int join();

    /** requestDrain() + join(). */
    int stop();

    bool running() const;

    /** Monotonic counters, readable from any thread. */
    struct Stats : ServeCounters<std::uint64_t>
    {
        std::uint64_t active_tenants = 0;
        std::uint64_t warm_hits = 0;      ///< opens served from the pool
        std::uint64_t warm_misses = 0;    ///< opens that warmed (leaders)
        std::uint64_t warm_waits = 0;     ///< opens parked behind a leader
        std::uint64_t warm_inserts = 0;   ///< pool publishes
        std::uint64_t warm_evictions = 0; ///< pool LRU drops
        std::uint64_t warm_bytes = 0;     ///< pool bytes currently held
        std::uint64_t warm_entries = 0;   ///< pool entries, pending too
    };

    Stats stats() const;

    /** The kStatsAck document (pythia-serve-stats-v1): the counters
     *  of stats() plus the warm_pool object, one "key": value each. */
    std::string statsJson() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace pythia::service
