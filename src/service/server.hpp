/**
 * @file
 * ServeServer — the prefetch-as-a-service daemon core (DESIGN.md §12).
 *
 * A single-threaded connection loop on the shared transport's epoll
 * EventLoop (common/transport.hpp) accepts clients on a Unix or
 * loopback-TCP socket and speaks pythia-serve-v1 (wire.hpp). Each
 * client attaches a *tenant*: an id + ExperimentSpec whose access
 * stream the client feeds in kAccess frames and whose SimSession runs
 * on a worker thread pool, emitting kWindow metrics as measurement
 * windows complete.
 *
 * Concurrency model:
 *  - The loop thread owns sockets: read accumulators, outbox rings,
 *    event-loop registration. It never simulates.
 *  - Workers execute per-tenant task queues (open/restore, pump,
 *    evict), strictly serialized per tenant — a tenant's session is
 *    only ever touched by the one task running for it.
 *  - Workers hand frames back through a mutex-guarded staging buffer
 *    on the connection plus a dirty-connection list and self-pipe
 *    wakeup; the loop splices staged frames into the connection's
 *    iovec outbox ring and flushes it with one vectored write per
 *    batch (common/transport.hpp).
 *
 * Resource caps (per tenant / connection):
 *  - inflight records: when streamed-but-unconsumed records exceed
 *    max_inflight_records the loop stops reading that connection until
 *    the pump catches up (client writes block in the socket buffer).
 *  - outbox bytes: when a slow client lets its write queue exceed
 *    max_outbox_bytes the pump stops advancing windows for it until
 *    the queue drains below half the cap.
 *
 * Eviction: on client disconnect mid-run, explicit kDetach, idle
 * timeout, or drain, the tenant's full streamed history is persisted
 * as a PYT2 trace file plus a pythia-snap-v1 snapshot (written last —
 * its presence marks the pair complete) under state_dir, keyed by the
 * FNV-1a-64 of the tenant id. A later kHello for the same tenant
 * restores both transparently — bit-exact by the PR 6 determinism
 * rule — and tells the client which record index to resume from.
 *
 * Warm pool (warm_pool_bytes > 0): tenants with no evicted state
 * share post-warmup machines keyed by the spec fingerprint. The first
 * Open per fingerprint warms and publishes a fork of its machine
 * (single-flight — simultaneous identical Opens wait instead of
 * warming N times); later identical Opens fork their session from the
 * pooled machine and skip warmup bit-exactly (warm_pool.hpp).
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


namespace pythia::service {

struct ServeOptions
{
    /** Unix-domain listen path; non-empty selects AF_UNIX. */
    std::string unix_path;

    /** Loopback TCP port when unix_path is empty; 0 = ephemeral
     *  (read the bound port back via boundAddress()). */
    std::uint16_t tcp_port = 0;

    /** Session-worker threads. */
    unsigned workers = 2;

    /** Directory for evicted-session state (created on start). */
    std::string state_dir = "serve_state";

    /** Per-tenant cap on streamed-but-unconsumed records before the
     *  loop stops reading the connection (input backpressure). */
    std::uint64_t max_inflight_records = 1u << 20;

    /** Per-connection cap on queued outgoing bytes before the pump
     *  stops advancing windows (slow-client write throttling). */
    std::size_t max_outbox_bytes = 8u << 20;

    /** Evict sessions idle for this long and close their connection;
     *  0 disables idle eviction. */
    std::uint64_t idle_evict_ms = 0;

    /** Byte budget of the shared warm pool (`warm_pool_bytes=` knob),
     *  charged each pooled machine's host footprint plus its warmup
     *  prefix: the first tenant finishing warmup for a spec publishes
     *  a fork of its post-warmup machine, later identical Opens fork
     *  from it and skip warmup bit-exactly. 0 disables the pool. */
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
    struct Stats
    {
        std::uint64_t connections_accepted = 0;
        std::uint64_t sessions_opened = 0;
        std::uint64_t sessions_resumed = 0;
        std::uint64_t sessions_evicted = 0;
        std::uint64_t runs_completed = 0;
        std::uint64_t windows_emitted = 0;
        std::uint64_t records_received = 0;
        std::uint64_t frames_rejected = 0;
        std::uint64_t active_tenants = 0;
        std::uint64_t warm_hits = 0;      ///< opens served from the pool
        std::uint64_t warm_misses = 0;    ///< opens that warmed (leaders)
        std::uint64_t warm_waits = 0;     ///< opens parked behind a leader
        std::uint64_t warm_evictions = 0; ///< pool LRU drops
        std::uint64_t warm_bytes = 0;     ///< pool bytes currently held
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
