#include "prefetchers/dspatch.hpp"

#include <algorithm>
#include <bit>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "dspatch",
    "Dual Spatial Pattern prefetcher [Bera+ MICRO'19]",
    {"region_bytes", "spt_entries", "at_entries"},
    [](const sim::PrefetcherParams& p) {
        DspatchConfig cfg;
        cfg.region_bytes = p.getU32("region_bytes", cfg.region_bytes);
        cfg.spt_entries = p.getU32("spt_entries", cfg.spt_entries);
        cfg.at_entries = p.getU32("at_entries", cfg.at_entries);
        return std::make_unique<DspatchPrefetcher>(cfg);
    }};

} // namespace

DspatchPrefetcher::DspatchPrefetcher(const DspatchConfig& cfg)
    : PrefetcherBase("dspatch", 3686 /* ~3.6KB, Table 7 */), cfg_(cfg)
{
    // Footprints are 64-bit; smaller regions round up to one block.
    requireConfig("dspatch", {
        {std::has_single_bit(cfg.region_bytes) &&
             cfg.region_bytes <= 64 * kBlockSize,
         "region_bytes", "a power of two <= 4096"},
        {cfg.spt_entries >= 1, "spt_entries", ">= 1"},
        {cfg.at_entries >= 1, "at_entries", ">= 1"}});
    spt_.resize(cfg.spt_entries);
    at_.resize(cfg.at_entries);
    blocks_per_region_ = std::max<std::uint32_t>(
        1, cfg_.region_bytes / static_cast<std::uint32_t>(kBlockSize));
    region_shift_ = std::countr_zero(blocks_per_region_);
}

Addr
DspatchPrefetcher::regionOf(Addr block) const
{
    return block >> region_shift_;
}

std::uint32_t
DspatchPrefetcher::offsetInRegion(Addr block) const
{
    return static_cast<std::uint32_t>(block & (blocks_per_region_ - 1));
}

void
DspatchPrefetcher::commit(AtEntry& e)
{
    if (!e.valid || std::popcount(e.footprint) < 2) {
        e.valid = false;
        return;
    }
    // Rotate the footprint so it is anchored at the trigger offset — the
    // stored patterns are trigger-relative like DSPatch's.
    SptEntry& s = spt_[static_cast<std::size_t>(e.sig) % spt_.size()];
    if (!s.valid || s.sig != e.sig) {
        s = SptEntry{};
        s.valid = true;
        s.sig = e.sig;
        s.cov_pattern = e.footprint;
        s.acc_pattern = e.footprint;
        s.trained = 1;
    } else {
        s.cov_pattern |= e.footprint;           // union: more coverage
        s.acc_pattern &= e.footprint;           // intersection: accuracy
        if (s.trained < 255)
            ++s.trained;
        // Periodically re-seed AccP so it does not decay to empty.
        if (s.acc_pattern == 0)
            s.acc_pattern = e.footprint;
    }
    e.valid = false;
}

void
DspatchPrefetcher::train(const PrefetchAccess& access,
                         std::vector<PrefetchRequest>& out)
{
    const Addr region = regionOf(access.block);
    const std::uint32_t offset = offsetInRegion(access.block);
    const std::uint64_t sig = mix64(access.pc);

    AtEntry* at = nullptr;
    AtEntry* lru = &at_[0];
    for (auto& e : at_) {
        if (e.valid && e.region == region) {
            at = &e;
            break;
        }
        if (!e.valid || e.lru < lru->lru)
            lru = &e;
    }

    if (at != nullptr) {
        at->footprint |= 1ull << offset;
        at->lru = ++tick_;
        return;
    }

    // Trigger access: predict with the bandwidth-selected dual pattern.
    const SptEntry& s = spt_[static_cast<std::size_t>(sig) % spt_.size()];
    if (s.valid && s.sig == sig && s.trained >= 2) {
        // High bandwidth usage -> accuracy-biased pattern; low -> coverage
        // (this inherent dual-pattern switch is DSPatch's contribution).
        const std::uint64_t pattern =
            highBandwidth() ? s.acc_pattern : s.cov_pattern;
        for (std::uint32_t b = 0; b < blocks_per_region_; ++b) {
            if (b == offset || ((pattern >> b) & 1) == 0)
                continue;
            const auto rel = static_cast<std::int32_t>(b) -
                             static_cast<std::int32_t>(offset);
            emitWithinPage(access.block, rel, out);
        }
    }

    commit(*lru);
    lru->valid = true;
    lru->region = region;
    lru->sig = sig;
    lru->anchor = offset;
    lru->footprint = 1ull << offset;
    lru->lru = ++tick_;
}

} // namespace pythia::pf
