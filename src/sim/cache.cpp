#include "sim/cache.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "sim/dram.hpp"

namespace pythia::sim {

// ---------------------------------------------------------------------------
// DramLevel

Cycle
DramLevel::access(const MemAccess& req)
{
    return dram_.access(req.block, req.at,
                        req.type == AccessType::Writeback);
}

// ---------------------------------------------------------------------------
// Cache

Cache::Cache(const CacheConfig& cfg, MemoryLevel& next)
    : cfg_(cfg), next_(next), stats_(cfg.name)
{
    assert(cfg_.size_bytes % (kBlockSize * cfg_.ways) == 0);
    sets_ = static_cast<std::uint32_t>(cfg_.size_bytes /
                                       (kBlockSize * cfg_.ways));
    assert(sets_ > 0);
    pow2_sets_ = (sets_ & (sets_ - 1)) == 0;
    set_mask_ = sets_ - 1;
    blocks_.assign(static_cast<std::size_t>(sets_) * cfg_.ways, Block{});
    tags_.assign(blocks_.size(), kInvalidTag);
    repl_ = makeReplacement(cfg_.replacement, sets_, cfg_.ways);
    lru_ = dynamic_cast<LruPolicy*>(repl_.get());
    ship_ = dynamic_cast<ShipPolicy*>(repl_.get());

    hot_.demand_load_access = stats_.counterSlot("demand_load_access");
    hot_.demand_store_access = stats_.counterSlot("demand_store_access");
    hot_.demand_load_miss = stats_.counterSlot("demand_load_miss");
    hot_.demand_store_miss = stats_.counterSlot("demand_store_miss");
    hot_.read_miss_total = stats_.counterSlot("read_miss_total");
    hot_.mshr_stalls = stats_.counterSlot("mshr_stalls");
    hot_.evictions = stats_.counterSlot("evictions");
    hot_.writebacks = stats_.counterSlot("writebacks");
    hot_.prefetch_useless = stats_.counterSlot("prefetch_useless");
    hot_.prefetch_dropped = stats_.counterSlot("prefetch_dropped");
    hot_.prefetch_bad_fill_level =
        stats_.counterSlot("prefetch_bad_fill_level");
    hot_.prefetch_issued = stats_.counterSlot("prefetch_issued");
    hot_.prefetch_issued_next_level =
        stats_.counterSlot("prefetch_issued_next_level");
    hot_.prefetch_useful_timely =
        stats_.counterSlot("prefetch_useful_timely");
    hot_.prefetch_useful_late =
        stats_.counterSlot("prefetch_useful_late");
}

std::uint32_t
Cache::setOf(Addr block) const
{
    // Power-of-two set counts (the common geometry) reduce to a mask;
    // the modulo fallback supports e.g. the 24MB LLC of a 12-core
    // system. Both forms compute block % sets_.
    if (pow2_sets_)
        return static_cast<std::uint32_t>(block) & set_mask_;
    return static_cast<std::uint32_t>(block % sets_);
}

Cache::Block*
Cache::findBlockAt(std::size_t base, Addr block)
{
    // Invalid ways hold kInvalidTag, which never equals a real block, so
    // the scan needs no validity check: 8 contiguous u64 compares.
    const Addr* tags = tags_.data() + base;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == block)
            return &blocks_[base + w];
    }
    return nullptr;
}

void
Cache::afterRestore()
{
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        tags_[i] = blocks_[i].valid ? blocks_[i].addr : kInvalidTag;
}

Cache::Block*
Cache::findBlock(Addr block)
{
    return findBlockAt(static_cast<std::size_t>(setOf(block)) * cfg_.ways,
                       block);
}

const Cache::Block*
Cache::findBlock(Addr block) const
{
    return const_cast<Cache*>(this)->findBlock(block);
}

bool
Cache::contains(Addr block) const
{
    return findBlock(block) != nullptr;
}

void
Cache::popInflight()
{
    std::pop_heap(inflight_.begin(), inflight_.end(),
                  std::greater<Cycle>{});
    inflight_.pop_back();
}

Cycle
Cache::reserveMshr(Cycle t)
{
    // Retire completed misses, then stall until a slot frees if needed.
    // The heap only ever surfaces the earliest completion time, which
    // is all MSHR accounting consumes.
    while (!inflight_.empty() && inflight_.front() <= t)
        popInflight();
    if (inflight_.size() >= cfg_.mshrs) {
        ++*hot_.mshr_stalls;
        t = inflight_.front();
        popInflight();
    }
    return t;
}

Cache::Block&
Cache::insertBlock(const MemAccess& req, Cycle fill_time)
{
    const std::uint32_t set = setOf(req.block);
    const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;

    // Prefer an invalid way; otherwise consult the replacement policy.
    std::uint32_t way = cfg_.ways;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags_[base + w] == kInvalidTag) {
            way = w;
            break;
        }
    }
    if (way == cfg_.ways) {
        way = replVictim(set);
        Block& victim = blocks_[base + way];
        replOnEvict(set, way, victim.reused);
        ++*hot_.evictions;
        if (victim.prefetched) {
            if (!victim.used)
                ++*hot_.prefetch_useless;
            if (prefetcher_)
                prefetcher_->onPrefetchEvicted(victim.addr, victim.used);
        }
        if (victim.dirty) {
            ++*hot_.writebacks;
            MemAccess wb;
            wb.pc = 0;
            wb.block = victim.addr;
            wb.type = AccessType::Writeback;
            wb.at = req.at;
            wb.core = req.core;
            next_.access(wb); // fire and forget
        }
    }

    Block& b = blocks_[base + way];
    b.addr = req.block;
    tags_[base + way] = req.block;
    b.valid = true;
    b.dirty = (req.type == AccessType::Store ||
               req.type == AccessType::Writeback);
    b.prefetched = (req.type == AccessType::Prefetch);
    b.used = false;
    b.reused = false;
    b.fill_time = fill_time;

    ReplAccess ctx;
    ctx.pc = req.pc;
    ctx.is_prefetch = b.prefetched;
    replOnInsert(set, way, ctx);
    return b;
}

void
Cache::issuePrefetches(const PrefetchAccess& acc,
                       std::vector<PrefetchRequest>& candidates)
{
    std::uint32_t issued = 0;
    for (const PrefetchRequest& pr : candidates) {
        if (issued >= cfg_.max_prefetches_per_access)
            break;
        if (pr.fill_level < 2 || pr.fill_level > 3) {
            // Reject out-of-range fill levels from buggy prefetchers
            // instead of silently misrouting the fill.
            ++*hot_.prefetch_bad_fill_level;
            continue;
        }
        if (pr.block == acc.block)
            continue;
        if (contains(pr.block)) {
            ++*hot_.prefetch_dropped;
            continue;
        }
        MemAccess req;
        req.pc = acc.pc;
        req.block = pr.block;
        req.type = AccessType::Prefetch;
        req.at = acc.cycle;
        req.core = acc.core;

        if (pr.fill_level >= 3) {
            // Fill the next level only; do not pollute this cache.
            next_.access(req);
            ++*hot_.prefetch_issued_next_level;
        } else {
            const Cycle t = reserveMshr(req.at);
            req.at = t;
            const Cycle done = next_.access(req);
            inflight_.push_back(done);
            std::push_heap(inflight_.begin(), inflight_.end(),
                           std::greater<Cycle>{});
            insertBlock(req, done);
            ++*hot_.prefetch_issued;
            if (prefetcher_)
                prefetcher_->onFill(pr.block, done);
        }
        ++issued;
    }
    candidates.clear();
}

Cycle
Cache::access(const MemAccess& req)
{
    const bool is_demand = (req.type == AccessType::Load ||
                            req.type == AccessType::Store);
    const Cycle t = req.at + cfg_.lookup_latency;

    const std::uint32_t set = setOf(req.block);
    const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;
    Block* blk = findBlockAt(base, req.block);
    const bool hit = (blk != nullptr);

    if (is_demand) {
        ++*(req.type == AccessType::Load ? hot_.demand_load_access
                                         : hot_.demand_store_access);
        if (!hit) {
            ++*(req.type == AccessType::Load ? hot_.demand_load_miss
                                             : hot_.demand_store_miss);
            ++*hot_.read_miss_total;
        }
    } else if (req.type == AccessType::Prefetch && !hit) {
        ++*hot_.read_miss_total;
    }

    Cycle ready;
    if (hit) {
        if (is_demand) {
            if (blk->prefetched && !blk->used) {
                blk->used = true;
                const bool timely = blk->fill_time <= t;
                ++*(timely ? hot_.prefetch_useful_timely
                           : hot_.prefetch_useful_late);
                if (prefetcher_)
                    prefetcher_->onPrefetchUsed(req.block, timely);
            }
            blk->reused = true;
            const auto way =
                static_cast<std::uint32_t>(blk - &blocks_[base]);
            ReplAccess ctx;
            ctx.pc = req.pc;
            replOnHit(set, way, ctx);
        }
        if (req.type == AccessType::Store ||
            req.type == AccessType::Writeback)
            blk->dirty = true;
        ready = std::max(t, blk->fill_time);
    } else {
        if (req.type == AccessType::Writeback) {
            // Allocate the dirty line without stalling on MSHRs.
            insertBlock(req, t);
            ready = t;
        } else {
            const Cycle start = reserveMshr(t);
            MemAccess fwd = req;
            fwd.at = start;
            const Cycle done = next_.access(fwd);
            inflight_.push_back(done);
            std::push_heap(inflight_.begin(), inflight_.end(),
                           std::greater<Cycle>{});
            insertBlock(req, done);
            ready = done;
        }
    }

    // Train the attached prefetcher on the demand stream at this level.
    if (is_demand && prefetcher_) {
        PrefetchAccess acc;
        acc.pc = req.pc;
        acc.address = req.block << kBlockShift;
        acc.block = req.block;
        acc.hit = hit;
        acc.is_write = (req.type == AccessType::Store);
        acc.cycle = t;
        acc.core = req.core;
        scratch_candidates_.clear();
        prefetcher_->train(acc, scratch_candidates_);
        if (!scratch_candidates_.empty())
            issuePrefetches(acc, scratch_candidates_);
    }
    return ready;
}

void
Cache::flush()
{
    for (auto& b : blocks_)
        b = Block{};
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    inflight_.clear();
    stats_.reset();
}

} // namespace pythia::sim
