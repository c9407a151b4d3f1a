#include "service/tenant.hpp"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <utility>

#include "snapshot/archive.hpp"
#include "snapshot/snapshot.hpp"

namespace fs = std::filesystem;

namespace pythia::service {

Tenant::Tenant(TenantHost& host, const HelloMsg& hello)
    : host_(host), id_(hello.tenant), spec_(hello.spec),
      window_instrs_(hello.window_instrs)
{
}

std::shared_ptr<Tenant>
Tenant::attach(TenantHost& host, const HelloMsg& hello,
               const ConnectionPtr& c)
{
    auto t = std::make_shared<Tenant>(host, hello);
    {
        std::lock_guard<std::mutex> lk(host.tenants_mu);
        if (!host.tenants.emplace(t->id_, t).second)
            return nullptr;
    }
    t->post(&Tenant::open, c);
    return t;
}

void
Tenant::receive(const std::vector<wl::TraceRecord>& records,
                const ConnectionPtr& c)
{
    host_.counters.records_received += records.size();
    records_received_ += records.size();
    last_activity_ = Clock::now();
    {
        std::lock_guard<std::mutex> lk(mu_);
        pending_.insert(pending_.end(), records.begin(), records.end());
    }
    requestPump(c);
}

void
Tenant::requestPump(const ConnectionPtr& c)
{
    if (!pump_queued_.exchange(true))
        post(&Tenant::pump, c);
}

bool
Tenant::idleFor(Clock::time_point now, std::uint64_t ms) const
{
    const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now - last_activity_.load())
                          .count();
    return phase_ == Phase::kRunning && idle >= 0 &&
           static_cast<std::uint64_t>(idle) >= ms;
}

void
Tenant::post(Task task, const ConnectionPtr& c)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        tasks_.emplace_back(task, c);
        if (std::exchange(task_active_, true))
            return; // the running worker picks it up
    }
    host_.run(shared_from_this());
}

void
Tenant::runTasks()
{
    for (;;) {
        std::pair<Task, ConnectionPtr> next;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (tasks_.empty()) {
                task_active_ = false;
                return;
            }
            next = std::move(tasks_.front());
            tasks_.pop_front();
        }
        (this->*next.first)(next.second);
    }
}

std::string
Tenant::statePath() const
{
    std::ostringstream os;
    os << host_.opt.state_dir << "/tenant-" << std::hex << std::setw(16)
       << std::setfill('0') << snap::fnv1a(id_) << ".snap";
    return os.str();
}

std::vector<std::unique_ptr<wl::Workload>>
Tenant::streamOver(std::vector<wl::TraceRecord> history)
{
    auto stream =
        std::make_unique<StreamWorkload>("serve:" + id_, std::move(history));
    stream_ = stream.get();
    std::vector<std::unique_ptr<wl::Workload>> workloads;
    workloads.push_back(std::move(stream));
    return workloads;
}

void
Tenant::open(const ConnectionPtr& c)
{
    // A warm-pool waiter's callback can re-run this task after the
    // tenant already left (disconnect, drain, idle eviction).
    if (phase_ != Phase::kOpening)
        return;
    if (host_.drain_requested.load()) {
        retire();
        return;
    }
    try {
        HelloAckMsg ack;
        const std::string path = statePath();
        if (fs::exists(path)) {
            // Evicted state takes precedence over the shared pool: it
            // carries mid-run progress.
            const snap::SnapshotFile image =
                snap::readSnapshotFile(path, harness::fingerprintFor(spec_));
            snap::Reader body = image.body();
            body.enterSection("stream");
            std::vector<wl::TraceRecord> history = wl::decodeRecords(body);
            body.leaveSection();
            session_.emplace(harness::SimSession::restore(
                spec_, body, streamOver(std::move(history))));
            ++host_.counters.sessions_resumed;
            ack.resumed = true;
        } else {
            WarmPool::Snapshot warm;
            if (host_.warm_pool.enabled()) {
                const std::string fp = harness::fingerprintFor(spec_);
                // A parked waiter retries the open once the leader
                // settled: normally a pool hit then, else it leads.
                const WarmPool::Role role = host_.warm_pool.acquire(
                    fp, &warm, [self = shared_from_this(), c] {
                        self->post(&Tenant::open, c);
                    });
                if (role == WarmPool::Role::kWaiter)
                    return;
                if (role == WarmPool::Role::kLeader) {
                    warm_leader_ = true;
                    warm_fp_ = fp;
                }
            }
            if (warm.session) {
                // Seed the stream with the pooled warmup prefix — the
                // fork replays consumed records from the start, and
                // the client streams from prefix end.
                session_.emplace(
                    warm.session->fork(streamOver(warm.prefix->records())));
                ack.warm = true;
            } else {
                session_.emplace(spec_, streamOver({}));
            }
        }
        ++host_.counters.sessions_opened;
        last_activity_ = Clock::now();
        phase_ = Phase::kRunning;
        // Restored history counts as already received; the client
        // resumes streaming from this index.
        records_received_ += stream_->size();
        records_consumed_ = stream_->consumed();
        ack.instrs_advanced = session_->instrsAdvanced();
        ack.windows_completed = session_->windowsCompleted();
        ack.records_received = stream_->size();
        ack.records_consumed = stream_->consumed();
        host_.send(c, encodeHelloAck(ack));
        pump(c); // records may already be pending
    } catch (const snap::SnapshotError& e) {
        fail(c, kErrResume, e.what());
    } catch (const std::invalid_argument& e) {
        fail(c, kErrSpec, e.what());
    } catch (const std::exception& e) {
        fail(c, kErrInternal, e.what());
    }
}

void
Tenant::splicePending()
{
    std::vector<wl::TraceRecord> batch;
    {
        std::lock_guard<std::mutex> lk(mu_);
        batch.swap(pending_);
    }
    if (!batch.empty())
        stream_->append(batch);
}

void
Tenant::pump(const ConnectionPtr& c)
{
    pump_queued_ = false;
    if (phase_ != Phase::kRunning)
        return;
    splicePending();
    harness::SimSession& s = *session_;
    try {
        // Warmup runs as its own phase (bit-identical to the implicit
        // warmup inside advance()) so a warm-pool leader can publish
        // the post-warmup machine before any window runs. Both gates
        // count streamed-but-unconsumed instructions (wire.hpp,
        // kGateSlack): every record the core starts begins within
        // kGateSlack instructions of its target.
        if (!s.warmupDone()) {
            if (stream_->availableInstrs() <
                spec_.warmup_instrs + kGateSlack)
                return; // starved: wait for more records
            s.runWarmup();
            records_consumed_ = stream_->consumed();
            if (warm_leader_) {
                // A throw leaves this tenant the leader: fail() then
                // abandons the entry through retire().
                host_.warm_pool.publish(
                    warm_fp_, forkWarmSnapshot(s, stream_->records(),
                                               stream_->consumed()));
                warm_leader_ = false;
            }
            host_.poke(c);
        }
        while (!s.done()) {
            const std::uint64_t step =
                std::min(window_instrs_, s.instrsRemaining());
            if (stream_->availableInstrs() < step + kGateSlack)
                return; // starved: wait for more records
            if (host_.backlogged(c)) {
                // Slow client: stop simulating until its write queue
                // drains (the loop re-queues us).
                throttled_ = true;
                return;
            }
            s.advance(step);
            records_consumed_ = stream_->consumed();
            ++host_.counters.windows_emitted;
            host_.send(c, encodeWindow({s.lastWindow(), stream_->consumed()}));
        }
        phase_ = Phase::kEnded;
        ++host_.counters.runs_completed;
        // The run is over: drop its image and the debris an eviction
        // can leave beside it (a .snap.tmp cut short mid-write, a
        // legacy .trace).
        const std::string image = statePath();
        std::error_code ec;
        for (const std::string& path :
             {image, image + ".tmp",
              image.substr(0, image.size() - 5) + ".trace"})
            fs::remove(path, ec);
        host_.send(c, encodeRunEnd({s.cumulative(), s.windowsCompleted(),
                                    stream_->consumed()}));
    } catch (const std::exception& e) {
        fail(c, kErrInternal, e.what());
    }
}

void
Tenant::evict(const ConnectionPtr& ack_to)
{
    DetachAckMsg ack{records_received_.load(),
                     session_ ? session_->instrsAdvanced() : 0,
                     session_ ? session_->windowsCompleted() : 0};
    if (phase_ == Phase::kRunning) {
        splicePending();
        try {
            snap::writeSnapshotFile(
                statePath(), harness::fingerprintFor(spec_),
                [this](snap::Writer& w) {
                    w.beginSection("stream");
                    wl::encodeRecords(w, stream_->records().data(),
                                      stream_->size());
                    w.endSection();
                    snap::save(*session_, w);
                });
        } catch (const std::exception& e) {
            fail(ack_to, kErrInternal, e.what());
            return;
        }
        ++host_.counters.sessions_evicted;
        ack.records_received = stream_->size();
        host_.log("evicted tenant '" + id_ + "' (" +
                  std::to_string(ack.instrs_advanced) + " instrs)");
    }
    retire();
    if (ack_to)
        host_.send(ack_to, encodeDetachAck(ack));
}

void
Tenant::fail(const ConnectionPtr& c, std::uint32_t kind,
             const std::string& message)
{
    ++host_.counters.frames_rejected;
    retire();
    if (c)
        host_.send(c, encodeError(kind, message), true);
    host_.log("tenant '" + id_ + "' failed: " + message);
}

void
Tenant::retire()
{
    if (phase_.exchange(Phase::kGone) == Phase::kGone)
        return;
    if (std::exchange(warm_leader_, false))
        host_.warm_pool.abandon(warm_fp_);
    session_.reset();
    stream_ = nullptr;
    std::lock_guard<std::mutex> lk(host_.tenants_mu);
    host_.tenants.erase(id_);
}

} // namespace pythia::service
