#include "service/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/transport.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "harness/timeseries.hpp"
#include "service/stream_workload.hpp"
#include "service/warm_pool.hpp"
#include "service/wire.hpp"

namespace fs = std::filesystem;

namespace pythia::service {

namespace {

using Clock = std::chrono::steady_clock;
using transport::FlushResult;
using transport::IoEvent;

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

/** Windows the aggregate stats series retains (the tail half survives
 *  each compaction, bounding daemon memory over a long life). */
constexpr std::size_t kAggregateSeriesCap = 4096;

/** Drain grace: frames unflushed after this many ms are abandoned. */
constexpr std::uint64_t kDrainGraceMs = 30'000;

std::string
tenantKeyHex(const std::string& tenant)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << snap::fnv1a(tenant);
    return os.str();
}

// --------------------------------------------------------- Connection

/** One client socket. The loop thread owns fd/reader/outbox and the
 *  event-loop registration; workers hand frames over via the
 *  mutex-guarded staging buffer plus the server's dirty list. */
struct Connection : std::enable_shared_from_this<Connection>
{
    int fd = -1;
    transport::FrameReader reader;
    transport::OutboxRing outbox; ///< staged wire frames, flushed vectored
    bool got_hello = false;
    bool closing = false;   ///< flush outbox, then close
    bool paused_in = false; ///< inflight cap reached; read interest off

    // Event-loop registration mirror: updateEvents() only issues a
    // mod() when the wanted interest differs from what's registered.
    bool registered = false;
    bool reg_in = false;
    bool reg_out = false;

    std::mutex mu;
    std::vector<std::vector<std::uint8_t>> staged; ///< payloads from workers
    bool dead = false; ///< socket closed; staging is a no-op

    /** Total queued outgoing bytes (staged + outbox, headers
     *  included) — exact, updated on every partial write, which is
     *  what the max_outbox_bytes throttle compares against. */
    std::atomic<std::size_t> out_bytes{0};
    std::atomic<bool> close_after_flush{false};
    std::atomic<bool> dirty_queued{false}; ///< on the server dirty list

    std::shared_ptr<struct Tenant> tenant;

    void stage(std::vector<std::uint8_t> payload)
    {
        std::lock_guard<std::mutex> lk(mu);
        if (dead)
            return;
        out_bytes += payload.size() + transport::kFrameHeaderBytes;
        staged.push_back(std::move(payload));
    }
};

// ------------------------------------------------------------- Tenant

/** One client session. Session state (stream/session/run flags) is
 *  touched only inside the tenant's serialized task queue. */
struct Tenant
{
    std::string id;
    harness::ExperimentSpec spec;
    std::uint64_t window_instrs = 0;

    std::mutex mu; ///< guards tasks/task_active/pending
    std::deque<std::function<void()>> tasks;
    bool task_active = false;
    std::vector<wl::TraceRecord> pending; ///< received, not yet spliced

    // Worker-owned (serialized by the task queue).
    StreamWorkload* stream = nullptr; ///< owned by session's System
    std::optional<harness::SimSession> session;

    // Warm-pool leadership (worker-owned): set when this tenant's
    // open acquired the right to warm its fingerprint; cleared on
    // publish, and abandoned on failure/eviction so waiters recover.
    bool warm_leader = false;
    std::string warm_fp;

    std::atomic<bool> run_ended{false};
    std::atomic<bool> evicted{false};
    std::atomic<std::uint64_t> records_received{0};
    std::atomic<std::uint64_t> records_consumed{0};
    std::atomic<bool> pump_queued{false};
    std::atomic<bool> throttled{false};

    Clock::time_point last_activity; ///< loop-owned (idle eviction)
};

} // namespace

// --------------------------------------------------------------- Impl

struct ServeServer::Impl
{
    explicit Impl(ServeOptions o)
        : opt(std::move(o)), warm_pool(opt.warm_pool_bytes)
    {
    }

    ServeOptions opt;
    WarmPool warm_pool;

    int listen_fd = -1;
    int wake_r = -1;
    int wake_w = -1;
    std::string bound_address;

    /** Readiness over the wake pipe, the listen socket and every
     *  connection; owned by the loop thread once started. */
    transport::EventLoop loop;

    /** Connections with worker-staged frames (or other state the loop
     *  must service); populated by markDirty(), drained each tick so
     *  the loop touches O(dirty) connections instead of all of them. */
    std::mutex dirty_mu;
    std::vector<std::shared_ptr<Connection>> dirty;

    std::thread loop_thread;
    std::vector<std::thread> pool;
    std::mutex pool_mu;
    std::condition_variable pool_cv;
    std::deque<std::function<void()>> pool_q;
    bool pool_stop = false;

    std::atomic<bool> started{false};
    std::atomic<bool> drain_requested{false};
    std::atomic<bool> finished{false};
    std::atomic<int> busy_tasks{0}; ///< tenant tasks queued or running
    int exit_code = 0;

    std::mutex tenants_mu;
    std::map<std::string, std::shared_ptr<Tenant>> tenants;

    std::vector<std::shared_ptr<Connection>> conns; ///< loop-owned

    // Stats.
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> sessions_opened{0};
    std::atomic<std::uint64_t> sessions_resumed{0};
    std::atomic<std::uint64_t> sessions_evicted{0};
    std::atomic<std::uint64_t> runs_completed{0};
    std::atomic<std::uint64_t> windows_emitted{0};
    std::atomic<std::uint64_t> records_received{0};
    std::atomic<std::uint64_t> frames_rejected{0};

    mutable std::mutex series_mu;
    harness::TimeSeries aggregate_series;

    // ----------------------------------------------------------- misc

    void log(const std::string& msg)
    {
        if (opt.log)
            *opt.log << "[pythia_serve] " << msg << '\n';
    }

    void wake()
    {
        const char b = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_w, &b, 1);
    }

    /** Ask the loop to service @p c (flush staging, re-check pause /
     *  throttle watermarks). Deduplicated: one entry per connection
     *  per loop tick, and only the first marker pays a wake write —
     *  a pump pass staging many windows wakes the loop once, which
     *  then flushes them in one vectored write. */
    void markDirty(const std::shared_ptr<Connection>& c)
    {
        if (c->dirty_queued.exchange(true))
            return;
        {
            std::lock_guard<std::mutex> lk(dirty_mu);
            dirty.push_back(c);
        }
        wake();
    }

    /** Worker-side send: stage a payload and notify the loop. */
    void stageTo(const std::shared_ptr<Connection>& c,
                 std::vector<std::uint8_t> payload)
    {
        c->stage(std::move(payload));
        markDirty(c);
    }

    std::string statePath(const std::string& tenant,
                          const char* suffix) const
    {
        return opt.state_dir + "/tenant-" + tenantKeyHex(tenant) + suffix;
    }

    bool hasEvictedState(const std::string& tenant) const
    {
        // The snapshot is written last: its presence marks the pair
        // complete.
        return fs::exists(statePath(tenant, ".snap"));
    }

    void removeStateFiles(const std::string& tenant)
    {
        std::error_code ec;
        fs::remove(statePath(tenant, ".snap"), ec);
        fs::remove(statePath(tenant, ".trace"), ec);
    }

    void removeTenant(const std::string& id)
    {
        std::lock_guard<std::mutex> lk(tenants_mu);
        tenants.erase(id);
    }

    void recordWindow(const harness::WindowSample& w)
    {
        std::lock_guard<std::mutex> lk(series_mu);
        if (aggregate_series.size() >= kAggregateSeriesCap) {
            // Compact: keep the most recent half.
            std::vector<harness::WindowSample> tail(
                aggregate_series.samples().begin() +
                    static_cast<std::ptrdiff_t>(kAggregateSeriesCap / 2),
                aggregate_series.samples().end());
            aggregate_series.clear();
            for (auto& s : tail)
                aggregate_series.append(std::move(s));
        }
        aggregate_series.append(w);
    }

    // ------------------------------------------------------ task pool

    void postPool(std::function<void()> fn)
    {
        {
            std::lock_guard<std::mutex> lk(pool_mu);
            pool_q.push_back(std::move(fn));
        }
        pool_cv.notify_one();
    }

    void poolMain()
    {
        for (;;) {
            std::function<void()> fn;
            {
                std::unique_lock<std::mutex> lk(pool_mu);
                pool_cv.wait(lk,
                             [&] { return pool_stop || !pool_q.empty(); });
                if (pool_q.empty())
                    return;
                fn = std::move(pool_q.front());
                pool_q.pop_front();
            }
            fn();
        }
    }

    /** Enqueue @p fn on @p t's serialized task queue. */
    void schedule(const std::shared_ptr<Tenant>& t,
                  std::function<void()> fn)
    {
        ++busy_tasks;
        bool start = false;
        {
            std::lock_guard<std::mutex> lk(t->mu);
            t->tasks.push_back(std::move(fn));
            if (!t->task_active) {
                t->task_active = true;
                start = true;
            }
        }
        if (start)
            postPool([this, t] { tenantTasksMain(t); });
    }

    void tenantTasksMain(const std::shared_ptr<Tenant>& t)
    {
        for (;;) {
            std::function<void()> fn;
            {
                std::lock_guard<std::mutex> lk(t->mu);
                if (t->tasks.empty()) {
                    t->task_active = false;
                    return;
                }
                fn = std::move(t->tasks.front());
                t->tasks.pop_front();
            }
            fn();
            --busy_tasks;
            wake();
        }
    }

    void schedulePump(const std::shared_ptr<Tenant>& t,
                      const std::shared_ptr<Connection>& c)
    {
        if (t->pump_queued.exchange(true))
            return;
        schedule(t, [this, t, c] { pumpTask(t, c); });
    }

    // --------------------------------------------------- worker tasks

    /** Release @p t's warm-pool leadership, waking waiters so one of
     *  them warms instead. No-op unless t is an unpublished leader. */
    void abandonWarmLead(const std::shared_ptr<Tenant>& t)
    {
        if (!t->warm_leader)
            return;
        t->warm_leader = false;
        warm_pool.abandon(t->warm_fp);
    }

    /** Leader just finished warmup: publish a fork of its post-warmup
     *  machine over the warmup record prefix it consumed. A spec whose
     *  prefetcher cannot serialize abandons the entry — those specs
     *  simply keep warming per-tenant. */
    void publishWarm(const std::shared_ptr<Tenant>& t)
    {
        if (!t->warm_leader)
            return;
        t->warm_leader = false;
        try {
            warm_pool.publish(t->warm_fp,
                              forkWarmSnapshot(*t->session,
                                               t->stream->records(),
                                               t->stream->consumed()));
        } catch (const std::exception& e) {
            warm_pool.abandon(t->warm_fp);
            log("warm-pool publish failed for tenant '" + t->id +
                "': " + e.what());
        }
    }

    void failTenant(const std::shared_ptr<Tenant>& t,
                    const std::shared_ptr<Connection>& c,
                    std::uint32_t kind, const std::string& message)
    {
        ++frames_rejected;
        t->evicted = true;
        t->session.reset();
        t->stream = nullptr;
        abandonWarmLead(t);
        removeTenant(t->id);
        if (c) {
            c->stage(encodeError(kind, message));
            c->close_after_flush = true;
            markDirty(c);
        } else {
            wake();
        }
        log("tenant '" + t->id + "' failed: " + message);
    }

    void openTask(const std::shared_ptr<Tenant>& t,
                  const std::shared_ptr<Connection>& c)
    {
        // A warm-pool waiter's callback can re-run this task after
        // the tenant already died (disconnect, drain, idle eviction).
        if (t->evicted || t->run_ended || t->session)
            return;
        if (drain_requested.load()) {
            removeTenant(t->id);
            return;
        }
        try {
            auto stream = std::make_unique<StreamWorkload>(
                "serve:" + t->id);
            bool resumed = false;
            bool warm = false;
            WarmPool::Snapshot warm_snap;
            if (hasEvictedState(t->id)) {
                // Per-tenant evicted state takes precedence over the
                // shared pool: it carries mid-run progress.
                const std::string trace_path =
                    statePath(t->id, ".trace");
                if (!fs::exists(trace_path))
                    throw ServeError(
                        "evicted state for tenant '" + t->id +
                        "' is missing its trace file");
                stream = std::make_unique<StreamWorkload>(
                    "serve:" + t->id, wl::readTraceFile(trace_path));
                resumed = true;
            } else if (warm_pool.enabled()) {
                const std::string fp = harness::fingerprintFor(t->spec);
                const WarmPool::Role role = warm_pool.acquire(
                    fp, &warm_snap, [this, t, c] {
                        // Leader settled (published or abandoned):
                        // retry the open on the tenant's task queue —
                        // normally a pool hit now, else we lead.
                        schedule(t,
                                 [this, t, c] { openTask(t, c); });
                    });
                if (role == WarmPool::Role::kWaiter)
                    return; // parked; the callback re-runs us
                if (role == WarmPool::Role::kHit) {
                    // Seed the stream with the pooled warmup prefix —
                    // the fork replays consumed records from the
                    // start, and the client streams from prefix end.
                    stream = std::make_unique<StreamWorkload>(
                        "serve:" + t->id, warm_snap.prefix->records());
                    warm = true;
                } else {
                    t->warm_leader = true;
                    t->warm_fp = fp;
                }
            }
            t->stream = stream.get();
            std::vector<std::unique_ptr<wl::Workload>> workloads;
            workloads.push_back(std::move(stream));
            if (resumed) {
                t->session.emplace(harness::SimSession::resumeFrom(
                    t->spec, statePath(t->id, ".snap"),
                    std::move(workloads)));
                ++sessions_resumed;
            } else if (warm) {
                t->session.emplace(
                    warm_snap.session->fork(std::move(workloads)));
            } else {
                t->session.emplace(t->spec, std::move(workloads));
            }
            ++sessions_opened;
            // Restored history counts as already received; the client
            // resumes streaming from this index.
            t->records_received += t->stream->size();
            t->records_consumed = t->stream->consumed();

            HelloAckMsg ack;
            ack.resumed = resumed;
            ack.warm = warm;
            ack.instrs_advanced = t->session->instrsAdvanced();
            ack.windows_completed = t->session->windowsCompleted();
            ack.records_received = t->stream->size();
            ack.records_consumed = t->stream->consumed();
            stageTo(c, encodeHelloAck(ack));
            pumpTask(t, c); // records may already be pending
        } catch (const snap::FingerprintError& e) {
            failTenant(t, c, kErrResume, e.what());
        } catch (const snap::SnapshotError& e) {
            failTenant(t, c, kErrResume, e.what());
        } catch (const std::invalid_argument& e) {
            failTenant(t, c, kErrSpec, e.what());
        } catch (const std::exception& e) {
            failTenant(t, c, kErrInternal, e.what());
        }
    }

    void splicePending(const std::shared_ptr<Tenant>& t)
    {
        std::vector<wl::TraceRecord> batch;
        {
            std::lock_guard<std::mutex> lk(t->mu);
            batch.swap(t->pending);
        }
        if (!batch.empty() && t->stream)
            t->stream->append(batch);
    }

    void pumpTask(const std::shared_ptr<Tenant>& t,
                  const std::shared_ptr<Connection>& c)
    {
        t->pump_queued = false;
        splicePending(t);
        if (!t->session || t->run_ended || t->evicted)
            return;
        harness::SimSession& s = *t->session;
        try {
            // Warmup runs as its own phase (bit-identical to the
            // implicit warmup inside advance(): advance() calls
            // runWarmup() first) so a warm-pool leader can publish
            // the post-warmup machine state before any window runs.
            if (!s.warmupDone()) {
                if (t->stream->available() <
                    t->spec.warmup_instrs + kGateSlack)
                    return; // starved: wait for more records
                s.runWarmup();
                t->records_consumed = t->stream->consumed();
                publishWarm(t);
                if (c)
                    // No frame was staged, but consumption advanced:
                    // the loop must re-check the inflight pause.
                    markDirty(c);
            }
            while (!s.done()) {
                const std::uint64_t step =
                    std::min(t->window_instrs, s.instrsRemaining());
                if (t->stream->available() < step + kGateSlack)
                    return; // starved: wait for more records
                if (c && c->out_bytes.load() > opt.max_outbox_bytes) {
                    // Slow client: stop simulating until its write
                    // queue drains (the loop reschedules us).
                    t->throttled = true;
                    return;
                }
                s.advance(step);
                t->records_consumed = t->stream->consumed();
                WindowMsg wm;
                wm.window = s.lastWindow();
                wm.records_consumed = t->stream->consumed();
                recordWindow(wm.window);
                ++windows_emitted;
                if (c)
                    // Consecutive windows coalesce: markDirty dedups,
                    // so the whole pass flushes as one vectored write.
                    stageTo(c, encodeWindow(wm));
            }
            if (!t->run_ended.exchange(true)) {
                ++runs_completed;
                RunEndMsg rm;
                rm.final_result = s.cumulative();
                rm.windows_completed = s.windowsCompleted();
                rm.records_consumed = t->stream->consumed();
                removeStateFiles(t->id);
                if (c)
                    stageTo(c, encodeRunEnd(rm));
            }
        } catch (const std::exception& e) {
            failTenant(t, c, kErrInternal, e.what());
        }
    }

    /** Persist the tenant's session + history and drop it from the
     *  live map. Idempotent; @p ack_conn gets a kDetachAck when set. */
    void evictTask(const std::shared_ptr<Tenant>& t,
                   const std::shared_ptr<Connection>& ack_conn)
    {
        splicePending(t);
        if (t->run_ended || t->evicted || !t->session) {
            // Terminal either way (covers warm-pool waiters that never
            // opened a session): late waiter callbacks must no-op.
            t->evicted = true;
            abandonWarmLead(t);
            removeTenant(t->id);
            if (ack_conn) {
                DetachAckMsg ack;
                ack.records_received = t->records_received.load();
                ack.instrs_advanced =
                    t->session ? t->session->instrsAdvanced() : 0;
                ack.windows_completed =
                    t->session ? t->session->windowsCompleted() : 0;
                stageTo(ack_conn, encodeDetachAck(ack));
            }
            return;
        }
        try {
            fs::create_directories(opt.state_dir);
            // Trace first, snapshot last: the snapshot's presence
            // marks the pair complete (crash between the two leaves a
            // harmless orphan trace).
            if (!wl::writeTraceFile(statePath(t->id, ".trace"),
                                    t->stream->records()))
                throw ServeError("cannot write trace file for tenant '" +
                                 t->id + "'");
            t->session->snapshotTo(statePath(t->id, ".snap"));
            t->evicted = true;
            abandonWarmLead(t); // evicted mid-warmup: let a waiter lead
            ++sessions_evicted;
            DetachAckMsg ack;
            ack.records_received = t->stream->size();
            ack.instrs_advanced = t->session->instrsAdvanced();
            ack.windows_completed = t->session->windowsCompleted();
            t->session.reset();
            t->stream = nullptr;
            removeTenant(t->id);
            log("evicted tenant '" + t->id + "' (" +
                std::to_string(ack.instrs_advanced) + " instrs)");
            if (ack_conn)
                stageTo(ack_conn, encodeDetachAck(ack));
        } catch (const std::exception& e) {
            failTenant(t, ack_conn, kErrInternal, e.what());
        }
    }

    // ------------------------------------------------------ stats doc

    std::string statsJsonDoc() const
    {
        std::size_t active = 0;
        {
            std::lock_guard<std::mutex> lk(
                const_cast<std::mutex&>(tenants_mu));
            active = tenants.size();
        }
        const WarmPool::Stats wp = warm_pool.stats();
        std::ostringstream os;
        os << "{\n  \"schema\": \"pythia-serve-stats-v1\",\n"
           << "  \"active_tenants\": " << active << ",\n"
           << "  \"connections_accepted\": " << connections_accepted
           << ",\n"
           << "  \"sessions_opened\": " << sessions_opened << ",\n"
           << "  \"sessions_resumed\": " << sessions_resumed << ",\n"
           << "  \"sessions_evicted\": " << sessions_evicted << ",\n"
           << "  \"runs_completed\": " << runs_completed << ",\n"
           << "  \"windows_emitted\": " << windows_emitted << ",\n"
           << "  \"records_received\": " << records_received << ",\n"
           << "  \"frames_rejected\": " << frames_rejected << ",\n"
           << "  \"warm_pool\": {\"enabled\": "
           << (warm_pool.enabled() ? "true" : "false")
           << ", \"hits\": " << wp.hits
           << ", \"misses\": " << wp.misses
           << ", \"waits\": " << wp.waits
           << ", \"inserts\": " << wp.inserts
           << ", \"evictions\": " << wp.evictions
           << ", \"bytes\": " << wp.bytes
           << ", \"entries\": " << wp.entries << "},\n"
           << "  \"timeseries\": ";
        {
            std::lock_guard<std::mutex> lk(series_mu);
            aggregate_series.writeJson(os);
        }
        os << "\n}\n";
        return os.str();
    }

    // ----------------------------------------------------- frame hand

    void protocolError(const std::shared_ptr<Connection>& c,
                       const std::string& message)
    {
        ++frames_rejected;
        c->stage(encodeError(kErrProtocol, message));
        c->close_after_flush = true;
    }

    void handleFrame(const std::shared_ptr<Connection>& c,
                     const std::vector<std::uint8_t>& payload)
    {
        const FrameType type = frameType(payload);
        switch (type) {
        case FrameType::kHello: {
            if (c->got_hello) {
                protocolError(c, "second hello on one connection");
                return;
            }
            const HelloMsg m = decodeHello(payload);
            c->got_hello = true;
            if (m.spec.num_cores != 1 || !m.spec.mix.empty()) {
                ++frames_rejected;
                c->stage(encodeError(
                    kErrSpec,
                    "serve tenants are single-core: one client is one "
                    "access stream (num_cores=1, no mix)"));
                c->close_after_flush = true;
                return;
            }
            auto t = std::make_shared<Tenant>();
            t->id = m.tenant;
            t->spec = m.spec;
            t->window_instrs = m.window_instrs;
            t->last_activity = Clock::now();
            {
                std::lock_guard<std::mutex> lk(tenants_mu);
                if (!tenants.emplace(t->id, t).second) {
                    ++frames_rejected;
                    c->stage(encodeError(
                        kErrBusy, "tenant '" + t->id +
                                      "' is already attached"));
                    c->close_after_flush = true;
                    return;
                }
            }
            c->tenant = t;
            schedule(t, [this, t, c] { openTask(t, c); });
            return;
        }
        case FrameType::kAccess: {
            auto t = c->tenant;
            if (!t) {
                protocolError(c, "access frame before hello");
                return;
            }
            std::vector<wl::TraceRecord> records = decodeAccess(payload);
            records_received += records.size();
            t->records_received += records.size();
            t->last_activity = Clock::now();
            {
                std::lock_guard<std::mutex> lk(t->mu);
                t->pending.insert(t->pending.end(), records.begin(),
                                  records.end());
            }
            schedulePump(t, c);
            return;
        }
        case FrameType::kDetach: {
            auto t = c->tenant;
            if (!t) {
                protocolError(c, "detach before hello");
                return;
            }
            c->tenant.reset(); // further frames on this conn are errors
            schedule(t, [this, t, c] { evictTask(t, c); });
            return;
        }
        case FrameType::kStats:
            c->stage(encodeStatsAck(statsJsonDoc()));
            return;
        default:
            protocolError(c, "unexpected client frame type " +
                                 std::to_string(payload[0]));
            return;
        }
    }

    // ------------------------------------------------------ socket ops

    void bindAndListen()
    {
        if (!opt.unix_path.empty()) {
            listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (listen_fd < 0)
                throw ServeError(std::string("socket: ") +
                                 std::strerror(errno));
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            if (opt.unix_path.size() >= sizeof(addr.sun_path))
                throw ServeError("unix socket path too long: " +
                                 opt.unix_path);
            std::strncpy(addr.sun_path, opt.unix_path.c_str(),
                         sizeof(addr.sun_path) - 1);
            ::unlink(opt.unix_path.c_str());
            if (::bind(listen_fd,
                       reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) < 0)
                throw ServeError("bind " + opt.unix_path + ": " +
                                 std::strerror(errno));
            bound_address = "unix:" + opt.unix_path;
        } else {
            listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (listen_fd < 0)
                throw ServeError(std::string("socket: ") +
                                 std::strerror(errno));
            const int one = 1;
            ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port = htons(opt.tcp_port);
            if (::bind(listen_fd,
                       reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) < 0)
                throw ServeError(
                    "bind 127.0.0.1:" + std::to_string(opt.tcp_port) +
                    ": " + std::strerror(errno));
            socklen_t len = sizeof(addr);
            ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len);
            bound_address = "tcp:127.0.0.1:" +
                            std::to_string(ntohs(addr.sin_port));
        }
        setCloexec(listen_fd);
        setNonBlocking(listen_fd);
        if (::listen(listen_fd, 128) < 0)
            throw ServeError(std::string("listen: ") +
                             std::strerror(errno));
    }

    void acceptClients()
    {
        for (;;) {
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0)
                return; // EAGAIN or transient error: poll again
            setCloexec(fd);
            setNonBlocking(fd);
            if (opt.unix_path.empty()) {
                // Stream socket: windows and acks are small frames;
                // Nagle would batch them against the client's acks.
                const int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
            }
            auto c = std::make_shared<Connection>();
            c->fd = fd;
            updateEvents(c);
            conns.push_back(std::move(c));
            ++connections_accepted;
        }
    }

    /** Reconcile the event-loop registration with what the connection
     *  currently wants; issues a syscall only on a real transition. */
    void updateEvents(const std::shared_ptr<Connection>& c)
    {
        if (c->fd < 0)
            return;
        const bool want_in = !c->closing && !c->paused_in;
        const bool want_out = !c->outbox.empty();
        if (!c->registered) {
            loop.add(c->fd, c.get(), want_in, want_out);
            c->registered = true;
        } else if (want_in != c->reg_in || want_out != c->reg_out) {
            loop.mod(c->fd, want_in, want_out);
        } else {
            return;
        }
        c->reg_in = want_in;
        c->reg_out = want_out;
    }

    /** Move worker-staged payloads into the outbox ring. */
    void drainStaged(const std::shared_ptr<Connection>& c)
    {
        std::vector<std::vector<std::uint8_t>> staged;
        bool close_req = false;
        {
            std::lock_guard<std::mutex> lk(c->mu);
            staged.swap(c->staged);
            close_req = c->close_after_flush.load();
        }
        for (auto& payload : staged)
            c->outbox.push(std::move(payload));
        if (close_req)
            c->closing = true;
    }

    /** Vectored flush of the outbox ring, with exact out_bytes
     *  accounting. @return false when the connection died. */
    bool flushOut(const std::shared_ptr<Connection>& c)
    {
        if (c->outbox.empty())
            return true;
        const std::size_t before = c->outbox.bytes();
        const FlushResult r = transport::flushOutbox(c->fd, c->outbox);
        c->out_bytes -= before - c->outbox.bytes();
        return r != FlushResult::kDead;
    }

    /**
     * One full service pass over @p c on the loop thread: splice
     * staged frames into the ring, flush, and re-evaluate every
     * backpressure watermark. The single place pause/throttle state
     * transitions happen, so both the dirty path and the readiness
     * path behave identically. @return false when the connection died.
     */
    bool serviceConn(const std::shared_ptr<Connection>& c)
    {
        drainStaged(c);
        if (!flushOut(c))
            return false;
        auto t = c->tenant;
        if (t) {
            const std::uint64_t inflight =
                t->records_received.load() -
                t->records_consumed.load();
            if (!c->paused_in && inflight > opt.max_inflight_records)
                c->paused_in = true;
            else if (c->paused_in &&
                     inflight <= opt.max_inflight_records / 2)
                c->paused_in = false;
            if (t->throttled.load() &&
                c->out_bytes.load() < opt.max_outbox_bytes / 2) {
                if (t->throttled.exchange(false))
                    schedulePump(t, c);
            }
        }
        if (c->closing && c->outbox.empty()) {
            bool staged_empty;
            {
                std::lock_guard<std::mutex> lk(c->mu);
                staged_empty = c->staged.empty();
            }
            if (staged_empty)
                return false; // flushed everything; close for real
        }
        updateEvents(c);
        return true;
    }

    /** @return false when the connection died (EOF or error). */
    bool readIn(const std::shared_ptr<Connection>& c)
    {
        if (!c->reader.fill(c->fd))
            return false; // EOF or error
        try {
            while (auto frame = c->reader.next()) {
                handleFrame(c, *frame);
                if (c->closing || c->close_after_flush)
                    break;
            }
        } catch (const ServeWireError& e) {
            protocolError(c, e.what());
        } catch (const transport::FrameError& e) {
            protocolError(c, std::string("serve wire: ") + e.what());
        }
        return true;
    }

    void disconnect(const std::shared_ptr<Connection>& c, bool draining)
    {
        {
            std::lock_guard<std::mutex> lk(c->mu);
            c->dead = true;
            c->staged.clear();
        }
        if (c->registered) {
            loop.del(c->fd);
            c->registered = false;
        }
        ::close(c->fd);
        c->fd = -1;
        if (c->tenant) {
            auto t = c->tenant;
            c->tenant.reset();
            if (!draining && !t->run_ended && !t->evicted)
                schedule(t, [this, t] {
                    evictTask(t, nullptr);
                });
            else if (t->run_ended)
                // Completed runs have no state to evict; drop the
                // tenant so the id can be reopened fresh.
                removeTenant(t->id);
        }
    }

    // ------------------------------------------------------- main loop

    /** Disconnect and forget every connection in @p dead (entries a
     *  prior sweep already closed are skipped). */
    void reapDead(std::vector<std::shared_ptr<Connection>>& dead,
                  bool draining)
    {
        for (auto& c : dead) {
            if (c->fd < 0)
                continue; // already reaped this tick
            disconnect(c, draining);
            conns.erase(std::remove(conns.begin(), conns.end(), c),
                        conns.end());
        }
        dead.clear();
    }

    void loopMain()
    {
        bool draining = false;
        Clock::time_point drain_deadline{};
        std::vector<IoEvent> events;
        std::vector<std::shared_ptr<Connection>> dirty_now;
        std::vector<std::shared_ptr<Connection>> dead;

        loop.add(wake_r, nullptr, true, false);
        if (listen_fd >= 0)
            loop.add(listen_fd, nullptr, true, false);

        while (true) {
            // Service only the connections workers flagged since the
            // last tick — staged frames to splice/flush, watermark
            // transitions — instead of scanning every connection.
            dirty_now.clear();
            {
                std::lock_guard<std::mutex> lk(dirty_mu);
                dirty_now.swap(dirty);
            }
            for (auto& c : dirty_now) {
                c->dirty_queued = false;
                if (c->fd < 0)
                    continue;
                if (!serviceConn(c))
                    dead.push_back(c);
            }
            reapDead(dead, draining);

            if (drain_requested.load() && !draining) {
                draining = true;
                drain_deadline =
                    Clock::now() +
                    std::chrono::milliseconds(kDrainGraceMs);
                if (listen_fd >= 0) {
                    loop.del(listen_fd);
                    ::close(listen_fd);
                    listen_fd = -1;
                }
                std::vector<std::shared_ptr<Tenant>> live;
                {
                    std::lock_guard<std::mutex> lk(tenants_mu);
                    for (auto& [id, t] : tenants)
                        live.push_back(t);
                }
                for (auto& t : live)
                    schedule(t, [this, t] { evictTask(t, nullptr); });
                log("draining: evicting " +
                    std::to_string(live.size()) + " live sessions");
            }

            if (draining) {
                bool flushed = true;
                for (auto& c : conns) {
                    std::lock_guard<std::mutex> lk(c->mu);
                    if (!c->outbox.empty() || !c->staged.empty())
                        flushed = false;
                }
                if ((busy_tasks.load() == 0 && flushed) ||
                    Clock::now() >= drain_deadline) {
                    for (auto& c : conns)
                        disconnect(c, true);
                    conns.clear();
                    break;
                }
            }

            // Idle eviction.
            if (!draining && opt.idle_evict_ms > 0) {
                const auto now = Clock::now();
                for (auto& c : conns) {
                    auto t = c->tenant;
                    if (!t || t->run_ended || t->evicted)
                        continue;
                    const auto idle =
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            now - t->last_activity)
                            .count();
                    if (idle >= 0 &&
                        static_cast<std::uint64_t>(idle) >=
                            opt.idle_evict_ms) {
                        log("idle-evicting tenant '" + t->id + "'");
                        c->closing = true;
                        c->tenant.reset();
                        updateEvents(c); // stop reading immediately
                        schedule(t, [this, t] {
                            evictTask(t, nullptr);
                        });
                        markDirty(c); // close once the outbox drains
                    }
                }
            }

            int timeout_ms = 1000;
            if (draining)
                timeout_ms = 10;
            else if (opt.idle_evict_ms > 0)
                timeout_ms = static_cast<int>(std::min<std::uint64_t>(
                    opt.idle_evict_ms / 2 + 1, 1000));
            loop.wait(events, timeout_ms);

            for (const IoEvent& ev : events) {
                if (ev.fd == wake_r) {
                    std::uint8_t b[256];
                    while (::read(wake_r, b, sizeof b) > 0) {
                    }
                    continue;
                }
                if (listen_fd >= 0 && ev.fd == listen_fd) {
                    if (!draining)
                        acceptClients();
                    continue;
                }
                auto* raw = static_cast<Connection*>(ev.ud);
                if (!raw)
                    continue; // registration already gone
                auto c = raw->shared_from_this();
                if (c->fd < 0)
                    continue;
                bool alive = !ev.err;
                if (alive && ev.in)
                    alive = readIn(c);
                if (alive)
                    alive = serviceConn(c);
                if (!alive)
                    dead.push_back(c);
            }
            reapDead(dead, draining);
        }

        // Shut the pool down (drain eviction tasks already ran:
        // busy_tasks was 0 before the loop broke, except on grace
        // timeout — remaining tasks still run to completion here).
        {
            std::lock_guard<std::mutex> lk(pool_mu);
            pool_stop = true;
        }
        pool_cv.notify_all();
        for (auto& th : pool)
            th.join();
        pool.clear();
        if (listen_fd >= 0) {
            ::close(listen_fd);
            listen_fd = -1;
        }
        if (!opt.unix_path.empty())
            ::unlink(opt.unix_path.c_str());
        finished = true;
        log("drained; exiting " + std::to_string(exit_code));
    }
};

// --------------------------------------------------------- ServeServer

ServeServer::ServeServer(ServeOptions opt)
    : impl_(std::make_unique<Impl>(std::move(opt)))
{
}

ServeServer::~ServeServer()
{
    if (impl_ && impl_->started.load() && !impl_->finished.load())
        stop();
    else if (impl_ && impl_->loop_thread.joinable())
        impl_->loop_thread.join();
}

void
ServeServer::start()
{
    std::signal(SIGPIPE, SIG_IGN);
    if (impl_->started.exchange(true))
        throw ServeError("ServeServer::start() called twice");
    fs::create_directories(impl_->opt.state_dir);
    int pipefd[2];
    if (::pipe(pipefd) != 0)
        throw ServeError(std::string("pipe: ") + std::strerror(errno));
    impl_->wake_r = pipefd[0];
    impl_->wake_w = pipefd[1];
    setNonBlocking(impl_->wake_r);
    setNonBlocking(impl_->wake_w);
    setCloexec(impl_->wake_r);
    setCloexec(impl_->wake_w);
    impl_->bindAndListen();
    const unsigned workers = std::max(1u, impl_->opt.workers);
    for (unsigned i = 0; i < workers; ++i)
        impl_->pool.emplace_back([impl = impl_.get()] {
            impl->poolMain();
        });
    impl_->loop_thread = std::thread([impl = impl_.get()] {
        impl->loopMain();
    });
    impl_->log("listening on " + impl_->bound_address);
}

std::string
ServeServer::boundAddress() const
{
    return impl_->bound_address;
}

void
ServeServer::requestDrain()
{
    impl_->drain_requested.store(true);
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(impl_->wake_w, &b, 1);
}

int
ServeServer::join()
{
    if (impl_->loop_thread.joinable())
        impl_->loop_thread.join();
    return impl_->exit_code;
}

int
ServeServer::stop()
{
    requestDrain();
    return join();
}

bool
ServeServer::running() const
{
    return impl_->started.load() && !impl_->finished.load();
}

ServeServer::Stats
ServeServer::stats() const
{
    Stats s;
    s.connections_accepted = impl_->connections_accepted.load();
    s.sessions_opened = impl_->sessions_opened.load();
    s.sessions_resumed = impl_->sessions_resumed.load();
    s.sessions_evicted = impl_->sessions_evicted.load();
    s.runs_completed = impl_->runs_completed.load();
    s.windows_emitted = impl_->windows_emitted.load();
    s.records_received = impl_->records_received.load();
    s.frames_rejected = impl_->frames_rejected.load();
    {
        std::lock_guard<std::mutex> lk(impl_->tenants_mu);
        s.active_tenants = impl_->tenants.size();
    }
    const WarmPool::Stats wp = impl_->warm_pool.stats();
    s.warm_hits = wp.hits;
    s.warm_misses = wp.misses;
    s.warm_waits = wp.waits;
    s.warm_evictions = wp.evictions;
    s.warm_bytes = wp.bytes;
    return s;
}

std::string
ServeServer::statsJson() const
{
    return impl_->statsJsonDoc();
}

} // namespace pythia::service
