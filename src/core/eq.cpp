#include "core/eq.hpp"

#include <algorithm>
#include <utility>

#include "common/hashing.hpp"
#include "snapshot/codec.hpp"

namespace pythia::rl {

namespace {

std::size_t
nextPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

EvaluationQueue::EvaluationQueue(std::size_t capacity) : capacity_(capacity)
{
    const std::size_t backing = nextPow2(capacity_);
    mask_ = backing - 1;
    ring_.resize(backing);
    // Distinct pending blocks never exceed the live entry count, but
    // immortal keys (see PendingCounts) can push past it; start at 2x
    // capacity rounded up and grow on demand.
    const std::size_t pcap = nextPow2(std::max<std::size_t>(16, 2 * backing));
    pending_.assign(pcap, PendingSlot{});
    pending_mask_ = pcap - 1;
}

std::size_t
EvaluationQueue::pendingHome(Addr key) const
{
    return static_cast<std::size_t>(mix64(key)) & pending_mask_;
}

std::size_t
EvaluationQueue::pendingFind(Addr key) const
{
    std::size_t i = pendingHome(key);
    while (pending_[i].used) {
        if (pending_[i].key == key)
            return i;
        i = (i + 1) & pending_mask_;
    }
    return kNpos;
}

EvaluationQueue::PendingCounts&
EvaluationQueue::pendingRef(Addr key)
{
    std::size_t i = pendingHome(key);
    while (pending_[i].used) {
        if (pending_[i].key == key)
            return pending_[i].pc;
        i = (i + 1) & pending_mask_;
    }
    if ((pending_size_ + 1) * 4 > pending_.size() * 3) {
        pendingGrow();
        i = pendingHome(key);
        while (pending_[i].used)
            i = (i + 1) & pending_mask_;
    }
    pending_[i].used = true;
    pending_[i].key = key;
    pending_[i].pc = PendingCounts{};
    ++pending_size_;
    return pending_[i].pc;
}

void
EvaluationQueue::pendingGrow()
{
    std::vector<PendingSlot> old = std::move(pending_);
    pending_.assign(old.size() * 2, PendingSlot{});
    pending_mask_ = pending_.size() - 1;
    for (const PendingSlot& s : old) {
        if (!s.used)
            continue;
        std::size_t i = pendingHome(s.key);
        while (pending_[i].used)
            i = (i + 1) & pending_mask_;
        pending_[i] = s;
    }
}

void
EvaluationQueue::pendingErase(std::size_t i)
{
    // Backward-shift deletion: pull every displaced follower of the
    // probe chain one slot back so linear probing never crosses a hole.
    pending_[i].used = false;
    --pending_size_;
    std::size_t j = i;
    while (true) {
        j = (j + 1) & pending_mask_;
        if (!pending_[j].used)
            return;
        const std::size_t home = pendingHome(pending_[j].key);
        // Move j back to i iff j's probe distance from its home spans
        // the vacated slot; otherwise j is already at/past its home.
        if (((j - home) & pending_mask_) >= ((j - i) & pending_mask_)) {
            pending_[i] = pending_[j];
            pending_[j].used = false;
            i = j;
        }
    }
}

std::optional<EqEntry>
EvaluationQueue::insert(EqEntry entry)
{
    std::optional<EqEntry> evicted;
    if (count_ >= capacity_) {
        evicted = std::move(ring_[head_]);
        head_ = (head_ + 1) & mask_;
        --count_;
        if (evicted->has_prefetch) {
            const std::size_t pi = pendingFind(evicted->prefetch_block);
            if (pi != kNpos) {
                // Decrement only for transitions this entry still
                // carries; an externally rewarded entry was never
                // decremented, and stays accounted (see PendingCounts).
                PendingCounts& pc = pending_[pi].pc;
                if (!evicted->has_reward && pc.unrewarded > 0)
                    --pc.unrewarded;
                if (!evicted->fill_known && pc.fill_unknown > 0)
                    --pc.fill_unknown;
                if (pc.unrewarded == 0 && pc.fill_unknown == 0)
                    pendingErase(pi);
            }
        }
    }
    if (entry.has_prefetch) {
        PendingCounts& pc = pendingRef(entry.prefetch_block);
        if (!entry.has_reward)
            ++pc.unrewarded;
        if (!entry.fill_known)
            ++pc.fill_unknown;
    }
    ring_[(head_ + count_) & mask_] = std::move(entry);
    ++count_;
    return evicted;
}

EqEntry*
EvaluationQueue::search(Addr block)
{
    const std::size_t pi = pendingFind(block);
    if (pi == kNpos || pending_[pi].pc.unrewarded == 0)
        return nullptr;
    // Most recent first: a fresh prefetch should absorb the demand match.
    for (std::size_t i = count_; i-- > 0;) {
        EqEntry& e = ring_[(head_ + i) & mask_];
        if (e.has_prefetch && e.prefetch_block == block && !e.has_reward)
            return &e;
    }
    return nullptr;
}

std::vector<EqEntry*>
EvaluationQueue::searchAll(Addr block)
{
    std::vector<EqEntry*> matches;
    const std::size_t pi = pendingFind(block);
    if (pi == kNpos || pending_[pi].pc.unrewarded == 0)
        return matches;
    for (std::size_t i = 0; i < count_; ++i) {
        EqEntry& e = ring_[(head_ + i) & mask_];
        if (e.has_prefetch && e.prefetch_block == block && !e.has_reward)
            matches.push_back(&e);
    }
    return matches;
}

bool
EvaluationQueue::markFill(Addr block, Cycle at)
{
    const std::size_t pi = pendingFind(block);
    if (pi == kNpos || pending_[pi].pc.fill_unknown == 0)
        return false;
    for (std::size_t i = count_; i-- > 0;) {
        EqEntry& e = ring_[(head_ + i) & mask_];
        if (e.has_prefetch && e.prefetch_block == block &&
            !e.fill_known) {
            e.fill_time = at;
            e.fill_known = true;
            PendingCounts& pc = pending_[pi].pc;
            if (pc.fill_unknown > 0)
                --pc.fill_unknown;
            if (pc.unrewarded == 0 && pc.fill_unknown == 0)
                pendingErase(pi);
            return true;
        }
    }
    return false;
}

const EqEntry&
EvaluationQueue::head() const
{
    assert(count_ > 0);
    return ring_[head_];
}

void
EvaluationQueue::clear()
{
    head_ = 0;
    count_ = 0;
    std::fill(pending_.begin(), pending_.end(), PendingSlot{});
    pending_size_ = 0;
}

void
EvaluationQueue::saveState(snap::Writer& w) const
{
    w.u64(capacity_);
    w.u64(count_);
    for (std::size_t i = 0; i < count_; ++i) {
        const EqEntry& e = ring_[(head_ + i) & mask_];
        // Same bytes as Writer::vecU64 of the old heap state vector.
        w.u64(e.state.size());
        for (const std::uint64_t fv : e.state)
            w.u64(fv);
        w.u32(e.action);
        w.u64(e.prefetch_block);
        w.boolean(e.has_prefetch);
        w.u64(e.fill_time);
        w.boolean(e.fill_known);
        w.boolean(e.has_reward);
        w.f64(e.reward);
    }
    // The pending index iterates in table order; sort by address so
    // identical logical state always produces identical bytes.
    std::vector<std::pair<Addr, PendingCounts>> pending;
    pending.reserve(pending_size_);
    for (const PendingSlot& s : pending_) {
        if (s.used)
            pending.emplace_back(s.key, s.pc);
    }
    std::sort(pending.begin(), pending.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.u64(pending.size());
    for (const auto& [addr, pc] : pending) {
        w.u64(addr);
        w.u32(pc.unrewarded);
        w.u32(pc.fill_unknown);
    }
}

void
EvaluationQueue::loadState(snap::Reader& r)
{
    const std::uint64_t capacity = r.u64();
    if (capacity != capacity_)
        throw snap::CorruptError(
            "snapshot corrupt: eq capacity " + std::to_string(capacity) +
            " does not match this configuration (" +
            std::to_string(capacity_) + ")");
    const std::uint64_t n = r.u64();
    if (n > capacity_)
        throw snap::CorruptError(
            "snapshot corrupt: eq holds " + std::to_string(n) +
            " entries, above its capacity " + std::to_string(capacity_));
    head_ = 0;
    count_ = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        EqEntry e;
        const std::vector<std::uint64_t> state = r.vecU64();
        if (state.size() > kEqStateSlots)
            throw snap::CorruptError(
                "snapshot corrupt: eq entry state has " +
                std::to_string(state.size()) +
                " features, above the inline capacity " +
                std::to_string(kEqStateSlots));
        e.state = state;
        e.action = r.u32();
        e.prefetch_block = r.u64();
        e.has_prefetch = r.boolean();
        e.fill_time = r.u64();
        e.fill_known = r.boolean();
        e.has_reward = r.boolean();
        e.reward = r.f64();
        ring_[count_++] = std::move(e);
    }
    std::fill(pending_.begin(), pending_.end(), PendingSlot{});
    pending_size_ = 0;
    const std::uint64_t n_pending = r.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
        const Addr addr = r.u64();
        PendingCounts pc;
        pc.unrewarded = r.u32();
        pc.fill_unknown = r.u32();
        pendingRef(addr) = pc;
    }
}

} // namespace pythia::rl
