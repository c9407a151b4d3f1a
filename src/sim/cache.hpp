/**
 * @file
 * Set-associative cache model with MSHR-limited miss handling, prefetch
 * issue/fill tracking and pluggable replacement, composed into the
 * three-level hierarchy of the paper's simulated system (Table 5).
 *
 * Timing is resolved analytically: an access returns the cycle at which
 * its data is available. Blocks inserted on a miss carry their fill
 * completion time, so later accesses to in-flight lines naturally model
 * MSHR merging and *late* prefetches (the R_AL case of Pythia's reward
 * scheme).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/prefetcher_api.hpp"
#include "sim/replacement.hpp"

namespace pythia::sim {

class Dram;

/** One memory request travelling through the hierarchy. */
struct MemAccess
{
    Addr pc = 0;
    Addr block = 0;      ///< cacheline-granular address
    AccessType type = AccessType::Load;
    Cycle at = 0;        ///< issue cycle
    std::uint32_t core = 0;
};

/** Anything a cache can forward misses to (another cache or DRAM). */
class MemoryLevel
{
  public:
    virtual ~MemoryLevel() = default;

    /** Handle @p req; return the data-available cycle. */
    virtual Cycle access(const MemAccess& req) = 0;

    /** Level name for stats dumps. */
    virtual const std::string& levelName() const = 0;
};

/** Adapter presenting Dram as the terminal MemoryLevel. */
class DramLevel : public MemoryLevel
{
  public:
    explicit DramLevel(Dram& dram) : dram_(dram) {}
    Cycle access(const MemAccess& req) override;
    const std::string& levelName() const override { return name_; }

  private:
    Dram& dram_;
    std::string name_ = "dram";
};

/** Cache geometry and timing parameters. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t ways = 8;
    Cycle lookup_latency = 4;   ///< added before hit return / miss forward
    std::uint32_t mshrs = 16;
    std::string replacement = "lru";
    std::uint32_t max_prefetches_per_access = 32;
};

/**
 * A single cache level.
 *
 * A prefetcher may be attached with setPrefetcher(); it is trained on
 * every demand access reaching this level (for an L2 prefetcher this is
 * exactly the stream of L1 misses, matching the paper's §5.2 methodology)
 * and its candidates are issued from this level with a configurable fill
 * level (this cache, or next level only).
 */
class Cache : public MemoryLevel
{
  public:
    Cache(const CacheConfig& cfg, MemoryLevel& next);

    Cycle access(const MemAccess& req) override;
    const std::string& levelName() const override { return cfg_.name; }

    /** Attach (or detach with nullptr) the prefetcher for this level. */
    void setPrefetcher(PrefetcherApi* pf) { prefetcher_ = pf; }

    /** The attached prefetcher (may be nullptr). */
    PrefetcherApi* prefetcher() const { return prefetcher_; }

    /** True when @p block currently resides (or is in flight) here. */
    bool contains(Addr block) const;

    /** Statistic counters for this level. */
    const StatGroup& stats() const { return stats_; }
    StatGroup& stats() { return stats_; }

    /** Zero the statistics (keeps cache contents — used after warmup). */
    void resetStats() { stats_.reset(); }

    /** Invalidate all contents and reset statistics. */
    void flush();

    /** Number of sets. */
    std::uint32_t numSets() const { return sets_; }

    const CacheConfig& config() const { return cfg_; }

    /** Snapshot state (snapshot/archive.hpp): the geometry stamp,
     *  contents, in-flight misses (the min-heap in its vector layout,
     *  which keeps the heap invariant verbatim), replacement state and
     *  statistics. The attached prefetcher is not included — it
     *  serializes through its own section. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.expect("cache sets", s.sets_);
        ar.expect("cache ways", s.cfg_.ways);
        ar.each(s.blocks_);
        ar.derived(s.tags_);
        ar.list("cache in-flight misses", s.inflight_, s.cfg_.mshrs);
        if (s.lru_)
            ar(*s.lru_);
        else
            ar(*s.ship_);
        ar(s.stats_);
    }

    /** Restore hook: re-derive tags_ from blocks_. */
    void afterRestore();

  private:
    struct Block
    {
        Addr addr = 0;  ///< full cacheline address (tag + index)
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        bool used = false;    ///< prefetched block later hit by a demand
        bool reused = false;  ///< any demand hit during residency
        Cycle fill_time = 0;  ///< when the data actually arrives

        template <class Self, class Ar>
        static void fields(Self& b, Ar& ar)
        {
            ar(b.addr, b.valid, b.dirty, b.prefetched, b.used, b.reused,
               b.fill_time);
        }
    };

    std::uint32_t setOf(Addr block) const;

    /** tags_ value of an invalid way. Block addresses are cacheline
     *  numbers (address >> 6, plus a per-core offset in bits 46+), so
     *  all-ones cannot collide with a real block. */
    static constexpr Addr kInvalidTag = ~static_cast<Addr>(0);

    /** Way-scan of the set at @p base for @p block; null on miss. The
     *  one tag-match loop both findBlock() and access() use. Scans the
     *  contiguous tag array (DESIGN.md §10) — one cache line per
     *  8-way set — instead of striding through Block records. */
    Block* findBlockAt(std::size_t base, Addr block);

    Block* findBlock(Addr block);
    const Block* findBlock(Addr block) const;

    /** Pop the smallest completion time off the in-flight min-heap. */
    void popInflight();

    /** Apply MSHR occupancy: may delay @p t until a slot frees up. */
    Cycle reserveMshr(Cycle t);

    /** Insert @p block; evicts as needed. Returns the block slot. */
    Block& insertBlock(const MemAccess& req, Cycle fill_time);

    void issuePrefetches(const PrefetchAccess& acc,
                         std::vector<PrefetchRequest>& candidates);

    // Devirtualized replacement dispatch: the factory returns one of
    // two concrete policies; branching on a cached downcast lets the
    // per-access hooks inline instead of going through the vtable.
    void replOnHit(std::uint32_t set, std::uint32_t way,
                   const ReplAccess& ctx)
    {
        if (lru_)
            lru_->onHit(set, way, ctx);
        else if (ship_)
            ship_->onHit(set, way, ctx);
        else
            repl_->onHit(set, way, ctx);
    }
    void replOnInsert(std::uint32_t set, std::uint32_t way,
                      const ReplAccess& ctx)
    {
        if (lru_)
            lru_->onInsert(set, way, ctx);
        else if (ship_)
            ship_->onInsert(set, way, ctx);
        else
            repl_->onInsert(set, way, ctx);
    }
    void replOnEvict(std::uint32_t set, std::uint32_t way, bool reused)
    {
        if (lru_)
            lru_->onEvict(set, way, reused);
        else if (ship_)
            ship_->onEvict(set, way, reused);
        else
            repl_->onEvict(set, way, reused);
    }
    std::uint32_t replVictim(std::uint32_t set)
    {
        if (lru_)
            return lru_->victim(set);
        if (ship_)
            return ship_->victim(set);
        return repl_->victim(set);
    }

    CacheConfig cfg_;
    MemoryLevel& next_;
    std::uint32_t sets_;
    bool pow2_sets_;         ///< enables mask indexing in setOf
    std::uint32_t set_mask_; ///< sets_ - 1 when pow2_sets_
    std::vector<Block> blocks_;
    /** blocks_[i].addr for valid ways, kInvalidTag otherwise — the
     *  structure-of-arrays mirror the tag scans read. */
    std::vector<Addr> tags_;
    std::unique_ptr<ReplacementPolicy> repl_;
    LruPolicy* lru_ = nullptr;   ///< repl_ downcast when kind == lru
    ShipPolicy* ship_ = nullptr; ///< repl_ downcast when kind == ship
    /** Completion times of pending misses, as a min-heap (only the
     *  earliest completion is ever consumed). */
    std::vector<Cycle> inflight_;
    PrefetcherApi* prefetcher_ = nullptr;
    std::vector<PrefetchRequest> scratch_candidates_;
    StatGroup stats_;

    /** Per-access counters, resolved once (see StatGroup::counterSlot). */
    struct HotCounters
    {
        std::uint64_t* demand_load_access;
        std::uint64_t* demand_store_access;
        std::uint64_t* demand_load_miss;
        std::uint64_t* demand_store_miss;
        std::uint64_t* read_miss_total;
        std::uint64_t* mshr_stalls;
        std::uint64_t* evictions;
        std::uint64_t* writebacks;
        std::uint64_t* prefetch_useless;
        std::uint64_t* prefetch_dropped;
        std::uint64_t* prefetch_bad_fill_level;
        std::uint64_t* prefetch_issued;
        std::uint64_t* prefetch_issued_next_level;
        std::uint64_t* prefetch_useful_timely;
        std::uint64_t* prefetch_useful_late;
    } hot_;
};

} // namespace pythia::sim
