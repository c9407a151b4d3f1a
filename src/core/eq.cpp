#include "core/eq.hpp"

#include <algorithm>
#include <utility>

#include "common/hashing.hpp"
#include "snapshot/archive.hpp"

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
    keys_.assign(backing, kNoKey);
    // Distinct pending blocks never exceed the live entry count; start
    // at 2x capacity rounded up (under 1/2 load) and grow on demand.
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

void
EvaluationQueue::pendingAcquire(const EqEntry& e)
{
    PendingCounts& pc = pendingRef(e.prefetch_block);
    if (!e.has_reward)
        ++pc.unrewarded;
    if (!e.fill_known)
        ++pc.fill_unknown;
}

void
EvaluationQueue::pendingRelease(const EqEntry& e)
{
    const std::size_t pi = pendingFind(e.prefetch_block);
    if (pi == kNpos)
        return; // nothing open for this block
    PendingCounts& pc = pending_[pi].pc;
    if (!e.has_reward) {
        assert(pc.unrewarded > 0);
        --pc.unrewarded;
    }
    if (!e.fill_known) {
        assert(pc.fill_unknown > 0);
        --pc.fill_unknown;
    }
    if (pc.unrewarded == 0 && pc.fill_unknown == 0)
        pendingErase(pi);
}

std::vector<const EqEntry*>
EvaluationQueue::searchAll(Addr block) const
{
    std::vector<const EqEntry*> matches;
    const std::size_t pi = pendingFind(block);
    if (pi == kNpos || pending_[pi].pc.unrewarded == 0)
        return matches;
    for (std::size_t i = 0; i < count_; ++i) {
        const std::size_t slot = (head_ + i) & mask_;
        const EqEntry& e = ring_[slot];
        if (keys_[slot] == block && e.has_prefetch && !e.has_reward)
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
    // Most recent first: the fill belongs to the latest prefetch.
    for (std::size_t i = count_; i-- > 0;) {
        const std::size_t slot = (head_ + i) & mask_;
        if (keys_[slot] != block)
            continue;
        EqEntry& e = ring_[slot];
        if (e.has_prefetch && !e.fill_known) {
            e.fill_time = at;
            e.fill_known = true;
            PendingCounts& pc = pending_[pi].pc;
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
EvaluationQueue::saveQueue(snap::Writer& w) const
{
    w.u64(count_);
    for (std::size_t i = 0; i < count_; ++i) {
        const EqEntry& e = ring_[(head_ + i) & mask_];
        // The bytes of a listed std::vector<std::uint64_t>: count, values.
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
EvaluationQueue::loadQueue(snap::Reader& r)
{
    const std::uint64_t n = r.u64();
    if (n > capacity_)
        throw snap::CorruptError(
            "snapshot corrupt: eq holds " + std::to_string(n) +
            " entries, above its capacity " + std::to_string(capacity_));
    head_ = 0;
    count_ = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        EqEntry e;
        std::vector<std::uint64_t> state;
        snap::load(state, r);
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
        keys_[count_] = e.has_prefetch ? e.prefetch_block : kNoKey;
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
    // The scans stop once a block's count is used up, so the counts
    // must be exactly the entries' open transitions: tally the entries
    // per index slot and compare.
    std::vector<PendingCounts> tally(pending_.size());
    for (std::size_t i = 0; i < count_; ++i) {
        const EqEntry& e = ring_[i];
        if (!e.has_prefetch || (e.has_reward && e.fill_known))
            continue;
        const std::size_t pi = pendingFind(e.prefetch_block);
        if (pi == kNpos)
            throw snap::CorruptError(
                "snapshot corrupt: eq pending index misses block " +
                std::to_string(e.prefetch_block));
        tally[pi].unrewarded += e.has_reward ? 0 : 1;
        tally[pi].fill_unknown += e.fill_known ? 0 : 1;
    }
    for (std::size_t pi = 0; pi < pending_.size(); ++pi) {
        const PendingSlot& s = pending_[pi];
        if (s.used && (s.pc.unrewarded != tally[pi].unrewarded ||
                       s.pc.fill_unknown != tally[pi].fill_unknown))
            throw snap::CorruptError(
                "snapshot corrupt: eq pending counts of block " +
                std::to_string(s.key) + " disagree with its entries");
    }
}

} // namespace pythia::rl
