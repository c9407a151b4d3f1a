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
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/transport.hpp"
#include "service/tenant.hpp"

namespace fs = std::filesystem;

namespace pythia::service {

namespace {

using Clock = std::chrono::steady_clock;
using transport::FlushResult;
using transport::IoEvent;

/** Drain grace: frames unflushed after this many ms are abandoned. */
constexpr std::uint64_t kDrainGraceMs = 30'000;

} // namespace

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

    std::shared_ptr<Tenant> tenant;
};

// --------------------------------------------------------------- Impl

struct ServeServer::Impl final : TenantHost
{
    explicit Impl(ServeOptions o) : TenantHost(std::move(o)) {}

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
    std::vector<ConnectionPtr> dirty;

    std::thread loop_thread;
    std::vector<std::thread> pool;
    std::mutex pool_mu;
    std::condition_variable pool_cv;
    std::deque<std::shared_ptr<Tenant>> pool_q; ///< tenants with tasks
    bool pool_stop = false;

    std::atomic<bool> started{false};
    std::atomic<bool> finished{false};
    std::atomic<int> busy_tenants{0}; ///< tenants with tasks queued or running
    int exit_code = 0;

    std::vector<ConnectionPtr> conns; ///< loop-owned

    // ----------------------------------------------------------- misc

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
    void markDirty(const ConnectionPtr& c)
    {
        if (c->dirty_queued.exchange(true))
            return;
        {
            std::lock_guard<std::mutex> lk(dirty_mu);
            dirty.push_back(c);
        }
        wake();
    }

    // ----------------------------------------------- tenant host side

    void send(const ConnectionPtr& c, std::vector<std::uint8_t> payload,
              bool last) override
    {
        {
            std::lock_guard<std::mutex> lk(c->mu);
            if (c->dead)
                return;
            c->out_bytes += payload.size() + transport::kFrameHeaderBytes;
            c->staged.push_back(std::move(payload));
        }
        if (last)
            c->close_after_flush = true;
        markDirty(c);
    }

    void poke(const ConnectionPtr& c) override { markDirty(c); }

    bool backlogged(const ConnectionPtr& c) const override
    {
        return c->out_bytes.load() > opt.max_outbox_bytes;
    }

    // ------------------------------------------------------ task pool

    void run(std::shared_ptr<Tenant> t) override
    {
        ++busy_tenants;
        {
            std::lock_guard<std::mutex> lk(pool_mu);
            pool_q.push_back(std::move(t));
        }
        pool_cv.notify_one();
    }

    void poolMain()
    {
        for (;;) {
            std::shared_ptr<Tenant> t;
            {
                std::unique_lock<std::mutex> lk(pool_mu);
                pool_cv.wait(lk,
                             [&] { return pool_stop || !pool_q.empty(); });
                if (pool_q.empty())
                    return;
                t = std::move(pool_q.front());
                pool_q.pop_front();
            }
            t->runTasks();
            --busy_tenants;
            wake();
        }
    }

    // ------------------------------------------------------ stats doc

    Stats stats() const
    {
        Stats s;
        ServeCounters<std::uint64_t>::each(
            [](const char*, std::uint64_t& out,
               const std::atomic<std::uint64_t>& in) { out = in.load(); },
            s, counters);
        {
            std::lock_guard<std::mutex> lk(tenants_mu);
            s.active_tenants = tenants.size();
        }
        const WarmPool::Stats wp = warm_pool.stats();
        s.warm_hits = wp.hits;
        s.warm_misses = wp.misses;
        s.warm_waits = wp.waits;
        s.warm_inserts = wp.inserts;
        s.warm_evictions = wp.evictions;
        s.warm_bytes = wp.bytes;
        s.warm_entries = wp.entries;
        return s;
    }

    std::string statsJsonDoc() const
    {
        const Stats s = stats();
        std::ostringstream os;
        os << "{\n  \"schema\": \"pythia-serve-stats-v1\",\n"
           << "  \"active_tenants\": " << s.active_tenants << ",\n";
        ServeCounters<std::uint64_t>::each(
            [&](const char* key, std::uint64_t v) {
                os << "  \"" << key << "\": " << v << ",\n";
            },
            s);
        os << "  \"warm_pool\": {\"enabled\": "
           << (warm_pool.enabled() ? "true" : "false")
           << ", \"hits\": " << s.warm_hits
           << ", \"misses\": " << s.warm_misses
           << ", \"waits\": " << s.warm_waits
           << ", \"inserts\": " << s.warm_inserts
           << ", \"evictions\": " << s.warm_evictions
           << ", \"bytes\": " << s.warm_bytes
           << ", \"entries\": " << s.warm_entries << "}\n}\n";
        return os.str();
    }

    // ----------------------------------------------------- frame hand

    void reject(const ConnectionPtr& c, std::uint32_t kind,
                const std::string& message)
    {
        ++counters.frames_rejected;
        send(c, encodeError(kind, message), true);
    }

    void handleFrame(const ConnectionPtr& c,
                     const std::vector<std::uint8_t>& payload)
    {
        const FrameType type = frameType(payload);
        switch (type) {
        case FrameType::kHello: {
            if (c->got_hello) {
                reject(c, kErrProtocol, "second hello on one connection");
                return;
            }
            const HelloMsg m = decodeHello(payload);
            c->got_hello = true;
            if (m.spec.num_cores != 1 || !m.spec.mix.empty()) {
                reject(c, kErrSpec,
                       "serve tenants are single-core: one client is one "
                       "access stream (num_cores=1, no mix)");
                return;
            }
            c->tenant = Tenant::attach(*this, m, c);
            if (!c->tenant)
                reject(c, kErrBusy,
                       "tenant '" + m.tenant + "' is already attached");
            return;
        }
        case FrameType::kAccess:
            if (c->tenant)
                c->tenant->receive(decodeAccess(payload), c);
            else
                reject(c, kErrProtocol, "access frame before hello");
            return;
        case FrameType::kDetach:
            // Further frames on this connection are errors.
            if (c->tenant)
                std::exchange(c->tenant, nullptr)->requestEvict(c);
            else
                reject(c, kErrProtocol, "detach before hello");
            return;
        case FrameType::kStats:
            send(c, encodeStatsAck(statsJsonDoc()), false);
            return;
        default:
            reject(c, kErrProtocol, "unexpected client frame type " +
                                        std::to_string(payload[0]));
            return;
        }
    }

    // ------------------------------------------------------ socket ops

    void bindAndListen()
    {
        const ServeAddress& a = opt.listen;
        sockaddr_storage addr;
        const socklen_t len = toSockaddr(a, addr);
        listen_fd = ::socket(addr.ss_family,
                             SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (listen_fd < 0)
            throw ServeError(std::string("socket: ") + std::strerror(errno));
        if (a.is_unix) {
            ::unlink(a.unix_path.c_str());
        } else {
            const int one = 1;
            ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
        }
        if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len) < 0)
            throw ServeError(
                "bind " +
                (a.is_unix ? a.unix_path
                           : "127.0.0.1:" + std::to_string(a.tcp_port)) +
                ": " + std::strerror(errno));
        if (a.is_unix) {
            bound_address = "unix:" + a.unix_path;
        } else {
            socklen_t n = sizeof(addr);
            ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &n);
            const auto& in = reinterpret_cast<const sockaddr_in&>(addr);
            bound_address =
                "tcp:127.0.0.1:" + std::to_string(ntohs(in.sin_port));
        }
        if (::listen(listen_fd, 128) < 0)
            throw ServeError(std::string("listen: ") +
                             std::strerror(errno));
    }

    void acceptClients()
    {
        for (;;) {
            const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0)
                return; // EAGAIN or transient error: poll again
            if (!opt.listen.is_unix) {
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
            ++counters.connections_accepted;
        }
    }

    /** Reconcile the event-loop registration with what the connection
     *  currently wants; issues a syscall only on a real transition. */
    void updateEvents(const ConnectionPtr& c)
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
    void drainStaged(const ConnectionPtr& c)
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
    bool flushOut(const ConnectionPtr& c)
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
    bool serviceConn(const ConnectionPtr& c)
    {
        drainStaged(c);
        if (!flushOut(c))
            return false;
        if (const auto& t = c->tenant) {
            const std::uint64_t inflight = t->inflight();
            if (!c->paused_in && inflight > opt.max_inflight_records)
                c->paused_in = true;
            else if (c->paused_in &&
                     inflight <= opt.max_inflight_records / 2)
                c->paused_in = false;
            if (c->out_bytes.load() < opt.max_outbox_bytes / 2)
                t->resumeThrottled(c);
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
    bool readIn(const ConnectionPtr& c)
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
            reject(c, kErrProtocol, e.what());
        } catch (const transport::FrameError& e) {
            reject(c, kErrProtocol, std::string("serve wire: ") + e.what());
        }
        return true;
    }

    void disconnect(const ConnectionPtr& c)
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
        // A mid-run tenant is evicted; any other retires (a drain
        // already queued its eviction, which this one follows).
        if (auto t = std::exchange(c->tenant, nullptr))
            t->requestEvict(nullptr);
    }

    // ------------------------------------------------------- main loop

    /** Disconnect and forget every connection in @p dead (entries a
     *  prior sweep already closed are skipped). */
    void reapDead(std::vector<ConnectionPtr>& dead)
    {
        for (auto& c : dead) {
            if (c->fd < 0)
                continue; // already reaped this tick
            disconnect(c);
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
        std::vector<ConnectionPtr> dirty_now;
        std::vector<ConnectionPtr> dead;

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
            reapDead(dead);

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
                std::lock_guard<std::mutex> lk(tenants_mu);
                log("draining: evicting " +
                    std::to_string(tenants.size()) + " live sessions");
                for (auto& [id, t] : tenants)
                    t->requestEvict(nullptr);
            }

            if (draining) {
                bool flushed = true;
                for (auto& c : conns) {
                    std::lock_guard<std::mutex> lk(c->mu);
                    if (!c->outbox.empty() || !c->staged.empty())
                        flushed = false;
                }
                if ((busy_tenants.load() == 0 && flushed) ||
                    Clock::now() >= drain_deadline) {
                    for (auto& c : conns)
                        disconnect(c);
                    conns.clear();
                    break;
                }
            }

            // Idle eviction.
            if (!draining && opt.idle_evict_ms > 0) {
                const auto now = Clock::now();
                for (auto& c : conns) {
                    const auto t = c->tenant;
                    if (!t || !t->idleFor(now, opt.idle_evict_ms))
                        continue;
                    log("idle-evicting tenant '" + t->id() + "'");
                    c->closing = true;
                    c->tenant.reset();
                    updateEvents(c); // stop reading immediately
                    t->requestEvict(nullptr);
                    markDirty(c); // close once the outbox drains
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
            reapDead(dead);
        }

        // Shut the pool down (drain eviction tasks already ran:
        // busy_tenants was 0 before the loop broke, except on grace
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
        if (opt.listen.is_unix)
            ::unlink(opt.listen.unix_path.c_str());
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
    if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0)
        throw ServeError(std::string("pipe2: ") + std::strerror(errno));
    impl_->wake_r = pipefd[0];
    impl_->wake_w = pipefd[1];
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
    impl_->wake();
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
    return impl_->stats();
}

std::string
ServeServer::statsJson() const
{
    return impl_->statsJsonDoc();
}

} // namespace pythia::service
