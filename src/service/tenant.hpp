/**
 * @file
 * Tenant — one client's session in pythia_serve and its whole
 * lifecycle (DESIGN.md §12.2–§12.3): open or restore, warm-pool
 * leadership, pump, evict, fail. One phase, opening → running → ended
 * | gone, and one exit, retire(); a finished run keeps its map entry
 * until its connection closes. The loop (server.cpp) calls only the
 * member functions below; the work runs as tasks on the tenant's
 * serialized queue, drained by the loop's worker pool.
 *
 * An evicted tenant is one pythia-snap-v1 image, written once through
 * a temp file and a rename: state_dir/tenant-<hex FNV-1a-64 of the
 * id>.snap, a `stream` section holding the whole streamed history
 * (wl::encodeRecords), then the session's fields.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>

#include "service/server.hpp"
#include "service/stream_workload.hpp"
#include "service/warm_pool.hpp"

namespace pythia::service {

struct Connection; ///< a client socket, owned by the loop (server.cpp)
using ConnectionPtr = std::shared_ptr<Connection>;
class Tenant;

/** What the tenants of one daemon share, and what they ask of its
 *  loop (ServeServer's implementation is the one host). */
class TenantHost
{
  public:
    explicit TenantHost(ServeOptions o)
        : opt(std::move(o)), warm_pool(opt.warm_pool_bytes)
    {
    }

    const ServeOptions opt;
    WarmPool warm_pool;
    ServeCounters<std::atomic<std::uint64_t>> counters;
    std::atomic<bool> drain_requested{false};
    mutable std::mutex tenants_mu;
    std::map<std::string, std::shared_ptr<Tenant>> tenants; ///< live

    void log(const std::string& msg) const
    {
        if (opt.log)
            *opt.log << "[pythia_serve] " << msg << '\n';
    }

    /** Call @p t->runTasks() on a worker thread. */
    virtual void run(std::shared_ptr<Tenant> t) = 0;
    /** Stage @p payload for @p c and wake the loop to flush it (any
     *  thread); with @p last, close @p c once it is flushed. */
    virtual void send(const ConnectionPtr& c,
                      std::vector<std::uint8_t> payload,
                      bool last = false) = 0;
    /** Wake the loop to re-check @p c's read pause. */
    virtual void poke(const ConnectionPtr& c) = 0;
    /** @p c queues more than max_outbox_bytes (a slow client). */
    virtual bool backlogged(const ConnectionPtr& c) const = 0;

  protected:
    ~TenantHost() = default;
};

class Tenant : public std::enable_shared_from_this<Tenant>
{
  public:
    using Clock = std::chrono::steady_clock;

    Tenant(TenantHost& host, const HelloMsg& hello);

    /** Enter @p hello's tenant into the live map and queue its open,
     *  answered on @p c. @return nullptr when the id is attached. */
    static std::shared_ptr<Tenant>
    attach(TenantHost& host, const HelloMsg& hello, const ConnectionPtr& c);

    const std::string& id() const { return id_; }

    /** Queue streamed records for the session and pump them. */
    void receive(const std::vector<wl::TraceRecord>& records,
                 const ConnectionPtr& c);

    /** Re-queue a pump that stopped on a backlogged connection. */
    void resumeThrottled(const ConnectionPtr& c)
    {
        if (throttled_.load() && throttled_.exchange(false))
            requestPump(c);
    }

    /** Queue eviction: persist a running session, then retire.
     *  @p ack_to, when set, gets the kDetachAck. */
    void requestEvict(const ConnectionPtr& ack_to)
    {
        post(&Tenant::evict, ack_to);
    }

    /** Records received but not yet consumed (read pausing). */
    std::uint64_t inflight() const
    {
        return records_received_.load() - records_consumed_.load();
    }

    /** Running, with nothing received for @p ms since its open was
     *  acknowledged. An open in progress (a restore, a warm-pool wait)
     *  waits on the daemon, not the client, and is never idle. */
    bool idleFor(Clock::time_point now, std::uint64_t ms) const;

    /** Run queued tasks, in order, until the queue is empty. */
    void runTasks();

  private:
    enum class Phase : std::uint8_t { kOpening, kRunning, kEnded, kGone };
    using Task = void (Tenant::*)(const ConnectionPtr&);

    void post(Task task, const ConnectionPtr& c);
    void requestPump(const ConnectionPtr& c);
    void open(const ConnectionPtr& c);
    void pump(const ConnectionPtr& c);
    void evict(const ConnectionPtr& ack_to);
    void fail(const ConnectionPtr& c, std::uint32_t kind,
              const std::string& message);
    void retire(); ///< the one way out of the live map

    /** Point stream_ at a new StreamWorkload over @p history and
     *  return it as the session's workloads. */
    std::vector<std::unique_ptr<wl::Workload>>
    streamOver(std::vector<wl::TraceRecord> history);
    void splicePending();
    std::string statePath() const;

    TenantHost& host_;
    const std::string id_;
    const harness::ExperimentSpec spec_;
    const std::uint64_t window_instrs_;
    std::atomic<Phase> phase_{Phase::kOpening};

    std::mutex mu_; ///< guards tasks_, task_active_ and pending_
    std::deque<std::pair<Task, ConnectionPtr>> tasks_;
    bool task_active_ = false; ///< runTasks() is queued or running
    std::vector<wl::TraceRecord> pending_; ///< received, not spliced

    // Task-owned (serialized by the queue).
    StreamWorkload* stream_ = nullptr; ///< owned by session_'s System
    std::optional<harness::SimSession> session_;
    bool warm_leader_ = false; ///< must publish or abandon warm_fp_
    std::string warm_fp_;

    std::atomic<std::uint64_t> records_received_{0};
    std::atomic<std::uint64_t> records_consumed_{0};
    std::atomic<bool> pump_queued_{false};
    std::atomic<bool> throttled_{false};
    /** The open's ack or the last records received (idle eviction). */
    std::atomic<Clock::time_point> last_activity_;
};

} // namespace pythia::service
