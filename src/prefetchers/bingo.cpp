#include "prefetchers/bingo.hpp"

#include <algorithm>
#include <bit>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "bingo",
    "Bingo spatial footprint prefetcher [Bakhshalipour+ HPCA'19]",
    {"region_bytes", "ft_entries", "at_entries", "pht_sets", "pht_ways"},
    [](const sim::PrefetcherParams& p) {
        BingoConfig cfg;
        cfg.region_bytes = p.getU32("region_bytes", cfg.region_bytes);
        cfg.ft_entries = p.getU32("ft_entries", cfg.ft_entries);
        cfg.at_entries = p.getU32("at_entries", cfg.at_entries);
        cfg.pht_sets = p.getU32("pht_sets", cfg.pht_sets);
        cfg.pht_ways = p.getU32("pht_ways", cfg.pht_ways);
        return std::make_unique<BingoPrefetcher>(cfg);
    }};

} // namespace

BingoPrefetcher::BingoPrefetcher(const BingoConfig& cfg)
    : PrefetcherBase("bingo", 47104 /* ~46KB, Table 7 */), cfg_(cfg)
{
    // The footprint bitvector is 64 bits wide; smaller regions round up
    // to one block.
    requireConfig("bingo", {
        {std::has_single_bit(cfg.region_bytes) &&
             cfg.region_bytes <= 64 * kBlockSize,
         "region_bytes", "a power of two <= 4096"},
        {cfg.at_entries >= 1, "at_entries", ">= 1"},
        {cfg.pht_sets >= 1, "pht_sets", ">= 1"},
        {cfg.pht_ways >= 1, "pht_ways", ">= 1"}});
    blocks_per_region_ = std::max<std::uint32_t>(
        1, cfg_.region_bytes / static_cast<std::uint32_t>(kBlockSize));
    region_shift_ = std::countr_zero(blocks_per_region_);
    at_.resize(cfg_.at_entries);
    pht_.resize(static_cast<std::size_t>(cfg_.pht_sets) * cfg_.pht_ways);
}

Addr
BingoPrefetcher::regionOf(Addr block) const
{
    return block >> region_shift_;
}

std::uint32_t
BingoPrefetcher::offsetInRegion(Addr block) const
{
    return static_cast<std::uint32_t>(block & (blocks_per_region_ - 1));
}

std::uint64_t
BingoPrefetcher::longEvent(Addr pc, Addr block) const
{
    return hashCombine(mix64(pc), block);
}

std::uint64_t
BingoPrefetcher::shortEvent(Addr pc, std::uint32_t offset) const
{
    return hashCombine(mix64(pc) ^ 0xB1960ull, offset);
}

BingoPrefetcher::AtEntry*
BingoPrefetcher::findAt(Addr region)
{
    for (auto& e : at_)
        if (e.valid && e.region == region)
            return &e;
    return nullptr;
}

void
BingoPrefetcher::evictToPht(AtEntry& e)
{
    if (!e.valid || std::popcount(e.footprint) < 2) {
        e.valid = false;
        return;
    }
    const Addr trigger_block =
        (e.region << region_shift_) + e.trigger_offset;
    const std::uint64_t long_ev = longEvent(e.trigger_pc, trigger_block);
    const std::uint64_t short_ev =
        shortEvent(e.trigger_pc, e.trigger_offset);

    // The PHT is indexed by the *short* event (PC+Offset) so that both
    // the long-event and the fallback lookup land in the same set; the
    // long event acts as a tag within the set.
    const std::size_t set =
        static_cast<std::size_t>(short_ev) % cfg_.pht_sets;
    PhtEntry* base = &pht_[set * cfg_.pht_ways];
    PhtEntry* victim = &base[0];
    for (std::uint32_t w = 0; w < cfg_.pht_ways; ++w) {
        if (base[w].valid && base[w].long_event == long_ev) {
            victim = &base[w];
            break;
        }
        if (!base[w].valid || base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->valid = true;
    victim->long_event = long_ev;
    victim->short_event = short_ev;
    victim->footprint = e.footprint;
    victim->lru = ++tick_;
    e.valid = false;
}

const BingoPrefetcher::PhtEntry*
BingoPrefetcher::lookupPht(std::uint64_t long_ev,
                           std::uint64_t short_ev) const
{
    // Both lookups scan the short-event-indexed set: first an exact
    // long-event (PC+Address) tag match, then the PC+Offset fallback.
    const std::size_t set =
        static_cast<std::size_t>(short_ev) % cfg_.pht_sets;
    const PhtEntry* base = &pht_[set * cfg_.pht_ways];
    for (std::uint32_t w = 0; w < cfg_.pht_ways; ++w)
        if (base[w].valid && base[w].long_event == long_ev)
            return &base[w];
    const PhtEntry* best = nullptr;
    for (std::uint32_t w = 0; w < cfg_.pht_ways; ++w)
        if (base[w].valid && base[w].short_event == short_ev)
            if (best == nullptr || base[w].lru > best->lru)
                best = &base[w];
    return best;
}

void
BingoPrefetcher::predict(const PrefetchAccess& access,
                         std::vector<PrefetchRequest>& out)
{
    const std::uint32_t offset = offsetInRegion(access.block);
    const PhtEntry* e = lookupPht(longEvent(access.pc, access.block),
                                  shortEvent(access.pc, offset));
    if (e == nullptr)
        return;
    const Addr region_base = access.block - offset;
    for (std::uint32_t b = 0; b < blocks_per_region_; ++b) {
        if (b == offset || ((e->footprint >> b) & 1) == 0)
            continue;
        // Footprint offsets are region-relative; convert to a line offset
        // from the trigger block.
        const auto rel = static_cast<std::int32_t>(b) -
                         static_cast<std::int32_t>(offset);
        emitWithinPage(access.block, rel, out);
        (void)region_base;
    }
}

void
BingoPrefetcher::train(const PrefetchAccess& access,
                       std::vector<PrefetchRequest>& out)
{
    const Addr region = regionOf(access.block);
    const std::uint32_t offset = offsetInRegion(access.block);

    AtEntry* at = findAt(region);
    if (at != nullptr) {
        at->footprint |= 1ull << offset;
        at->lru = ++tick_;
        return; // non-trigger accesses only accumulate
    }

    // Trigger access for this region: predict, then start accumulating.
    predict(access, out);

    AtEntry* victim = &at_[0];
    for (auto& e : at_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    evictToPht(*victim);
    victim->valid = true;
    victim->region = region;
    victim->trigger_pc = access.pc;
    victim->trigger_offset = offset;
    victim->footprint = 1ull << offset;
    victim->lru = ++tick_;
}

void
BingoPrefetcher::saveState(snap::Writer& w) const
{
    w.u64(tick_);
    w.u64(at_.size());
    for (const AtEntry& e : at_) {
        w.u64(e.region);
        w.u64(e.trigger_pc);
        w.u32(e.trigger_offset);
        w.u64(e.footprint);
        w.u64(e.lru);
        w.boolean(e.valid);
    }
    w.u64(pht_.size());
    for (const PhtEntry& e : pht_) {
        w.u64(e.long_event);
        w.u64(e.short_event);
        w.u64(e.footprint);
        w.u64(e.lru);
        w.boolean(e.valid);
    }
}

void
BingoPrefetcher::loadState(snap::Reader& r)
{
    const std::uint64_t tick = r.u64();
    const std::uint64_t n_at = r.u64();
    if (n_at != at_.size())
        throw snap::CorruptError(
            "snapshot corrupt: bingo accumulation table has " +
            std::to_string(n_at) + " entries but this configuration has " +
            std::to_string(at_.size()));
    tick_ = tick;
    for (AtEntry& e : at_) {
        e.region = r.u64();
        e.trigger_pc = r.u64();
        e.trigger_offset = r.u32();
        e.footprint = r.u64();
        e.lru = r.u64();
        e.valid = r.boolean();
    }
    const std::uint64_t n_pht = r.u64();
    if (n_pht != pht_.size())
        throw snap::CorruptError(
            "snapshot corrupt: bingo history table has " +
            std::to_string(n_pht) + " entries but this configuration has " +
            std::to_string(pht_.size()));
    for (PhtEntry& e : pht_) {
        e.long_event = r.u64();
        e.short_event = r.u64();
        e.footprint = r.u64();
        e.lru = r.u64();
        e.valid = r.boolean();
    }
}

} // namespace pythia::pf
