/**
 * @file
 * WarmPool — the daemon's fingerprint-keyed shared cache of
 * post-warmup machines (DESIGN.md §12.2.3). The first tenant to finish
 * warmup for a spec publishes a fork of its SimSession, bound to a
 * pool-owned StreamWorkload over the warmup record prefix it consumed;
 * every later Open with the same fingerprint forks its own session
 * from that machine (harness::SimSession::fork) and skips warmup
 * bit-exactly. Publish and hit each copy machine state in memory —
 * no snapshot encode, checksum or decode.
 *
 * Concurrency contract (single-flight): when N identical Opens race,
 * exactly one caller gets Role::kLeader and runs warmup; the rest get
 * Role::kWaiter and register a callback that fires once the leader
 * publishes (→ re-acquire hits) or abandons (→ one waiter becomes the
 * new leader). Callbacks run outside the pool lock and must not
 * block — the server's waiters just re-schedule their openTask. A
 * published machine is const and never advanced: any number of hits
 * may fork from it at once.
 *
 * Capacity: an LRU byte budget over *ready* entries (pending entries
 * are pinned — a leader is mid-warmup for them), charged each
 * machine's host footprint plus its prefix. Budget 0 disables the
 * pool entirely: every acquire is a leader and publish is a no-op,
 * restoring the pre-pool daemon behavior byte-for-byte.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/session.hpp"
#include "service/stream_workload.hpp"

namespace pythia::service {

class WarmPool
{
  public:
    /** One published warm state: the post-warmup machine and the
     *  workload it runs on, which holds the warmup records the leader
     *  consumed. prefix is owned by (aliases) session's machine. Shared
     *  immutably — hits fork from it and never modify it. */
    struct Snapshot
    {
        std::shared_ptr<const harness::SimSession> session;
        std::shared_ptr<const StreamWorkload> prefix;
    };

    /** What acquire() decided for this caller. */
    enum class Role
    {
        kHit,    ///< @p out filled; fork from it and skip warmup
        kLeader, ///< run warmup, then publish() or abandon()
        kWaiter, ///< callback fires when the leader settles
    };

    /** @p byte_budget caps ready-entry bytes (machine footprints +
     *  prefixes, warmSnapshotBytes); 0 disables the pool. */
    explicit WarmPool(std::size_t byte_budget);

    /**
     * Look up @p fingerprint. kHit fills @p out. kLeader creates a
     * pending entry this caller must settle via publish() or
     * abandon(). kWaiter stores @p on_settled; it is invoked (outside
     * the lock) after the leader settles, and the waiter re-acquires.
     */
    Role acquire(const std::string& fingerprint, Snapshot* out,
                 std::function<void()> on_settled);

    /** Leader completed warmup: make the entry ready, wake waiters,
     *  then enforce the LRU budget. */
    void publish(const std::string& fingerprint, Snapshot snap);

    /** Leader failed or was evicted before publishing: drop the
     *  pending entry and wake waiters so one can take over. */
    void abandon(const std::string& fingerprint);

    struct Stats
    {
        std::uint64_t hits = 0;      ///< acquires served from a ready entry
        std::uint64_t misses = 0;    ///< acquires that became leader
        std::uint64_t waits = 0;     ///< acquires parked behind a leader
        std::uint64_t inserts = 0;   ///< publishes
        std::uint64_t evictions = 0; ///< LRU drops
        std::size_t bytes = 0;       ///< current ready-entry bytes
        std::size_t entries = 0;     ///< current entries (incl. pending)
    };

    Stats stats() const;

    bool enabled() const { return budget_ > 0; }

  private:
    struct Entry
    {
        Snapshot snap;
        bool ready = false;
        std::size_t bytes = 0;      ///< 0 while pending
        std::uint64_t last_use = 0; ///< LRU clock value
        std::vector<std::function<void()>> waiters;
    };

    /** Drop least-recently-used ready entries until under budget.
     *  Caller holds mu_. */
    void enforceBudget();

    const std::size_t budget_;
    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> entries_;
    std::size_t bytes_ = 0;  ///< ready-entry bytes
    std::uint64_t clock_ = 0;
    Stats stats_;
};

/** Retained bytes of one entry: the machine's host footprint
 *  (sim::System::footprintBytes) plus its prefix records. */
std::size_t warmSnapshotBytes(const WarmPool::Snapshot& snap);

/** Build a pool entry: fork @p leader's post-warmup session over a
 *  pool-owned StreamWorkload holding the first @p consumed records of
 *  @p records. */
WarmPool::Snapshot
forkWarmSnapshot(const harness::SimSession& leader,
                 const std::vector<wl::TraceRecord>& records,
                 std::size_t consumed);

} // namespace pythia::service
