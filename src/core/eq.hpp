/**
 * @file
 * EQ — Pythia's Evaluation Queue (paper §4, Fig. 4): a FIFO of the
 * recently-taken actions with their state vectors, prefetch addresses,
 * fill status and (once known) rewards. Reward assignment happens at
 * insertion (no-prefetch / cross-page), during residency (demand match =>
 * R_AT / R_AL) or at eviction (R_IN); the evicted entry drives the SARSA
 * update together with the entry at the head of the queue.
 *
 * Data layout (DESIGN.md §10): the queue is a fixed-capacity flat ring
 * (any capacity from 1 to 65536 over a power-of-two backing store, head
 * index + count) of EqEntry values whose state vectors live inline in
 * the entry (StateVec) — inserting, evicting and scanning the EQ
 * performs zero heap allocations. A flat array of the entries'
 * prefetch blocks runs parallel to the ring, so a scan for a block
 * reads 8 bytes per entry and touches an entry only on a key match.
 * The pending-block index in front of the scans is an open-addressed
 * linear probe table over flat slots.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace pythia::snap {
class Writer;
class Reader;
} // namespace pythia::snap

namespace pythia::rl {

/** Inline state-vector capacity of an EqEntry. The paper's Pythia uses
 *  2 features (PC+Delta, Sequence of offsets); 8 slots leave room for
 *  every configurable feature set without per-entry heap storage. */
inline constexpr std::size_t kEqStateSlots = 8;

/**
 * A fixed-capacity inline vector of feature values. Replaces the
 * std::vector<uint64_t> an EqEntry used to carry: entries are copied on
 * every insert/evict/retire, and with inline storage those copies are
 * flat memcpys instead of allocate+copy+free round trips.
 */
class StateVec
{
  public:
    StateVec() = default;
    StateVec(std::initializer_list<std::uint64_t> il)
    {
        assign(il.begin(), il.size());
    }
    StateVec& operator=(std::initializer_list<std::uint64_t> il)
    {
        assign(il.begin(), il.size());
        return *this;
    }
    StateVec& operator=(const std::vector<std::uint64_t>& v)
    {
        assign(v.data(), v.size());
        return *this;
    }

    void assign(const std::uint64_t* p, std::size_t n)
    {
        assert(n <= kEqStateSlots);
        n_ = static_cast<std::uint32_t>(n);
        for (std::size_t i = 0; i < n; ++i)
            v_[i] = p[i];
    }

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    const std::uint64_t* data() const { return v_; }
    std::uint64_t* data() { return v_; }
    std::uint64_t operator[](std::size_t i) const { return v_[i]; }
    std::uint64_t& operator[](std::size_t i) { return v_[i]; }
    const std::uint64_t* begin() const { return v_; }
    const std::uint64_t* end() const { return v_ + n_; }

    bool operator==(const StateVec& o) const
    {
        if (n_ != o.n_)
            return false;
        for (std::uint32_t i = 0; i < n_; ++i)
            if (v_[i] != o.v_[i])
                return false;
        return true;
    }

  private:
    std::uint64_t v_[kEqStateSlots] = {};
    std::uint32_t n_ = 0;
};

/** Inline QVStore row-cache capacity of an EqEntry: one slot per
 *  (vault, plane) pair. Pythia's shipping configs use 2x3; larger
 *  feature sets fall back to re-hashing at retirement. */
inline constexpr std::size_t kEqRowSlots = 16;

/** One Evaluation Queue entry. */
struct EqEntry
{
    StateVec state;                   ///< feature values at action time
    std::uint32_t action = 0;         ///< action index
    Addr prefetch_block = 0;          ///< 0 when no prefetch was issued
    bool has_prefetch = false;
    Cycle fill_time = 0;              ///< prefetch fill completion cycle
    bool fill_known = false;
    bool has_reward = false;
    double reward = 0.0;
    /** QVStore plane-row offsets of `state`, cached at insertion so the
     *  retirement-time SARSA update never re-hashes (DESIGN.md §10).
     *  Pure derived data: not serialized (snapshots restore with
     *  qrows_n = 0 and the update path re-hashes — identical rows, so
     *  restore→advance stays bit-exact). */
    std::uint32_t qrows[kEqRowSlots] = {};
    std::uint32_t qrows_n = 0;        ///< 0 = no cached rows
};

/** Fixed-capacity FIFO of EqEntry. */
class EvaluationQueue
{
  public:
    explicit EvaluationQueue(std::size_t capacity = 256);

    /**
     * Remove the oldest entry (Algorithm 1 line 23) and return it for
     * retirement. The pending index forgets it first, by the reward and
     * fill status it leaves with, so the caller may then reward it in
     * place. The reference stays valid until the next push().
     * @pre !empty()
     */
    EqEntry& popFront()
    {
        assert(count_ > 0);
        EqEntry& e = ring_[head_];
        head_ = (head_ + 1) & mask_;
        --count_;
        if (e.has_prefetch)
            pendingRelease(e);
        return e;
    }

    /** Append a copy of @p entry at the tail. @pre !full() */
    void push(const EqEntry& entry)
    {
        assert(count_ < capacity_);
        const std::size_t slot = (head_ + count_) & mask_;
        ring_[slot] = entry;
        keys_[slot] = entry.has_prefetch ? entry.prefetch_block : kNoKey;
        ++count_;
        if (entry.has_prefetch)
            pendingAcquire(entry);
    }

    /** popFront() when full, then push(@p entry); @return a copy of the
     *  evicted entry, if any. For tests and microbenches; the agent
     *  retires in place through popFront(). */
    std::optional<EqEntry> insert(const EqEntry& entry)
    {
        std::optional<EqEntry> evicted;
        if (full())
            evicted = popFront();
        push(entry);
        return evicted;
    }

    /**
     * Every un-rewarded entry whose prefetch address matches @p block,
     * in queue order (a read-only query: rewarding goes through
     * rewardAll()). A demand can match several queued actions:
     * different offsets from different trigger addresses can target the
     * same line.
     */
    std::vector<const EqEntry*> searchAll(Addr block) const;

    /**
     * Reward every un-rewarded entry matching @p block (Algorithm 1
     * line 6): invoke @p assign on each, in queue order, then mark it
     * rewarded. @p assign sets the entry's reward value; the queue sets
     * has_reward and keeps the pending-block index exact. A template
     * (not std::function) so the per-demand call — which almost always
     * exits after one index probe — pays no type-erasure setup. The
     * scan compares the key array and stops once the index's count of
     * un-rewarded matches is used up. @return number of entries
     * rewarded.
     */
    template <typename AssignFn>
    std::size_t rewardAll(Addr block, AssignFn&& assign)
    {
        const std::size_t pi = pendingFind(block);
        if (pi == kNpos || pending_[pi].pc.unrewarded == 0)
            return 0;
        PendingCounts& pc = pending_[pi].pc;
        std::size_t rewarded = 0;
        for (std::size_t i = 0; i < count_ && pc.unrewarded > 0; ++i) {
            const std::size_t slot = (head_ + i) & mask_;
            if (keys_[slot] != block)
                continue;
            EqEntry& e = ring_[slot];
            if (e.has_prefetch && !e.has_reward) {
                assign(e);
                e.has_reward = true;
                ++rewarded;
                --pc.unrewarded;
            }
        }
        if (pc.unrewarded == 0 && pc.fill_unknown == 0)
            pendingErase(pi);
        return rewarded;
    }

    /** Record a prefetch fill for a matching entry (Algorithm 1 line 31).
     *  @return true when an entry was marked. */
    bool markFill(Addr block, Cycle at);

    /** Entry at the head (oldest); @pre !empty(). Provides (S2, A2) for
     *  the SARSA update of the just-evicted entry. */
    const EqEntry& head() const;

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= capacity_; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return capacity_; }

    /** Drop all entries (Algorithm 1 line 3). */
    void clear();

    /** Snapshot state (snapshot/archive.hpp): the capacity stamp, then
     *  a custom form — entries in queue order and the pending-block
     *  index sorted by address — so neither the ring layout nor the
     *  probe table's slot order leaks into the bytes. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.expect("eq capacity", static_cast<std::uint64_t>(s.capacity_));
        ar.custom(s, &EvaluationQueue::saveQueue,
                  &EvaluationQueue::loadQueue);
    }

  private:
    /** The custom form: states write as length-prefixed u64 runs. */
    void saveQueue(snap::Writer& w) const;

    /** @throws snap::CorruptError on occupancy above capacity, a state
     *  wider than the inline slots, or pending counts that disagree with
     *  the entries (the counts stay exact across a load). */
    void loadQueue(snap::Reader& r);

    /**
     * Per-block occupancy counts for the O(1) early exit in front of
     * the queue scans. A 256-entry EQ is scanned on *every* demand
     * access, and almost every scan matches nothing; one hash probe
     * answers "nothing here" without walking the ring.
     *
     * Counts are exact: only the queue changes an entry's reward or
     * fill status while it is queued (rewardAll, markFill), and it
     * updates the counts at every such transition, at push() and at
     * popFront(). A key leaves the table when both counts reach zero.
     */
    struct PendingCounts
    {
        std::uint32_t unrewarded = 0;  ///< has_prefetch && !has_reward
        std::uint32_t fill_unknown = 0; ///< has_prefetch && !fill_known
    };

    /** One open-addressed pending-index slot (linear probing). The
     *  occupancy flag is separate from the key because block 0 is a
     *  valid address. */
    struct PendingSlot
    {
        Addr key = 0;
        PendingCounts pc;
        bool used = false;
    };

    static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
    /** keys_ value of an entry without a prefetch. A block address is a
     *  byte address shifted right, so it never equals this; entries are
     *  still checked after a key match, so correctness never rests on
     *  it. */
    static constexpr Addr kNoKey = ~Addr{0};

    /** Count a pushed entry's open transitions in the index. */
    void pendingAcquire(const EqEntry& e);
    /** Uncount a popped entry's open transitions. */
    void pendingRelease(const EqEntry& e);

    std::size_t pendingHome(Addr key) const;
    /** Linear-probe lookup; kNpos when absent. */
    std::size_t pendingFind(Addr key) const;
    /** Lookup-or-insert; grows the table at 3/4 load. */
    PendingCounts& pendingRef(Addr key);
    /** Backward-shift deletion keeping every probe chain contiguous. */
    void pendingErase(std::size_t i);
    void pendingGrow();

    std::size_t capacity_;  ///< logical FIFO capacity (any value >= 1)
    std::size_t mask_;      ///< ring_.size() - 1 (power-of-two backing)
    std::size_t head_ = 0;  ///< ring index of the oldest entry
    std::size_t count_ = 0; ///< live entries
    std::vector<EqEntry> ring_;
    /** Per ring slot: the entry's prefetch block, kNoKey without one. */
    std::vector<Addr> keys_;
    std::vector<PendingSlot> pending_;
    std::size_t pending_mask_;
    std::size_t pending_size_ = 0;
};

} // namespace pythia::rl
