#include "service/warm_pool.hpp"

namespace pythia::service {

WarmPool::WarmPool(std::size_t byte_budget) : budget_(byte_budget) {}

std::size_t
warmSnapshotBytes(const WarmPool::Snapshot& snap)
{
    std::size_t n = 0;
    if (snap.session)
        n += snap.session->system().footprintBytes();
    if (snap.prefix)
        n += snap.prefix->size() * sizeof(wl::TraceRecord);
    return n;
}

WarmPool::Snapshot
forkWarmSnapshot(const harness::SimSession& leader,
                 const std::vector<wl::TraceRecord>& records,
                 std::size_t consumed)
{
    const auto end =
        records.begin() + static_cast<std::ptrdiff_t>(consumed);
    auto stream = std::make_unique<StreamWorkload>(
        "warm-pool", std::vector<wl::TraceRecord>(records.begin(), end));
    const StreamWorkload* prefix = stream.get();
    std::vector<std::unique_ptr<wl::Workload>> workloads;
    workloads.push_back(std::move(stream));
    WarmPool::Snapshot snap;
    snap.session = std::make_shared<const harness::SimSession>(
        leader.fork(std::move(workloads)));
    snap.prefix = std::shared_ptr<const StreamWorkload>(snap.session, prefix);
    return snap;
}

WarmPool::Role
WarmPool::acquire(const std::string& fingerprint, Snapshot* out,
                  std::function<void()> on_settled)
{
    if (!enabled())
        return Role::kLeader; // pool off: everyone warms themselves

    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
        Entry& e = it->second;
        if (e.ready) {
            e.last_use = ++clock_;
            ++stats_.hits;
            if (out)
                *out = e.snap;
            return Role::kHit;
        }
        ++stats_.waits;
        e.waiters.push_back(std::move(on_settled));
        return Role::kWaiter;
    }
    // First in: pin a pending entry; this caller owns settling it.
    entries_.emplace(fingerprint, Entry{});
    ++stats_.misses;
    return Role::kLeader;
}

void
WarmPool::publish(const std::string& fingerprint, Snapshot snap)
{
    if (!enabled())
        return;

    // Sized before locking: the footprint serializes prefetcher state.
    const std::size_t bytes = warmSnapshotBytes(snap);
    std::vector<std::function<void()>> waiters;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Entry& e = entries_[fingerprint]; // pending, or fresh if the
                                          // entry was abandoned/raced
        waiters.swap(e.waiters);
        e.snap = std::move(snap);
        e.bytes = bytes;
        e.ready = true;
        e.last_use = ++clock_;
        bytes_ += e.bytes;
        ++stats_.inserts;
        enforceBudget();
    }
    // Callbacks run unlocked: they re-schedule openTask, which
    // re-acquires (normally a hit — unless the budget already evicted
    // an oversized entry, in which case one waiter leads again).
    for (auto& fn : waiters)
        if (fn)
            fn();
}

void
WarmPool::abandon(const std::string& fingerprint)
{
    if (!enabled())
        return;

    std::vector<std::function<void()>> waiters;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(fingerprint);
        if (it == entries_.end() || it->second.ready)
            return; // nothing pending to abandon
        waiters.swap(it->second.waiters);
        entries_.erase(it);
    }
    for (auto& fn : waiters)
        if (fn)
            fn();
}

void
WarmPool::enforceBudget()
{
    while (bytes_ > budget_) {
        // Find the least-recently-used ready entry. Pending entries
        // are pinned (a leader is warming for their waiters).
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.ready)
                continue;
            if (victim == entries_.end() ||
                it->second.last_use < victim->second.last_use)
                victim = it;
        }
        if (victim == entries_.end())
            return;
        bytes_ -= victim->second.bytes;
        entries_.erase(victim);
        ++stats_.evictions;
    }
}

WarmPool::Stats
WarmPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.bytes = bytes_;
    s.entries = entries_.size();
    return s;
}

} // namespace pythia::service
