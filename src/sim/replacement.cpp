#include "sim/replacement.hpp"

#include <cassert>
#include <stdexcept>

#include "common/hashing.hpp"

namespace pythia::sim {

// ---------------------------------------------------------------------------
// LruPolicy

LruPolicy::LruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), stamp_(static_cast<std::size_t>(sets) * ways, 0)
{
    assert(sets > 0 && ways > 0);
}

void
LruPolicy::touch(std::uint32_t set, std::uint32_t way)
{
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++tick_;
}

std::uint32_t
LruPolicy::victim(std::uint32_t set)
{
    std::uint32_t victim_way = 0;
    std::uint64_t oldest = ~0ull;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const std::uint64_t s =
            stamp_[static_cast<std::size_t>(set) * ways_ + w];
        if (s < oldest) {
            oldest = s;
            victim_way = w;
        }
    }
    return victim_way;
}

void
LruPolicy::onInsert(std::uint32_t set, std::uint32_t way, const ReplAccess&)
{
    touch(set, way);
}

void
LruPolicy::onHit(std::uint32_t set, std::uint32_t way, const ReplAccess&)
{
    touch(set, way);
}

void
LruPolicy::onEvict(std::uint32_t, std::uint32_t, bool)
{
}

// ---------------------------------------------------------------------------
// ShipPolicy

ShipPolicy::ShipPolicy(std::uint32_t sets, std::uint32_t ways,
                       std::uint32_t shct_entries)
    : ways_(ways), shct_mask_(shct_entries - 1),
      rrpv_(static_cast<std::size_t>(sets) * ways, kMaxRrpv),
      line_sig_(static_cast<std::size_t>(sets) * ways, 0),
      shct_(shct_entries, 1)
{
    assert((shct_entries & (shct_entries - 1)) == 0 &&
           "SHCT size must be a power of two");
}

std::uint32_t
ShipPolicy::signatureOf(Addr pc) const
{
    return static_cast<std::uint32_t>(mix64(pc)) & shct_mask_;
}

std::uint32_t
ShipPolicy::victim(std::uint32_t set)
{
    // Standard RRIP victim search: find RRPV==max, aging all on failure.
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (;;) {
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (rrpv_[base + w] == kMaxRrpv)
                return w;
        for (std::uint32_t w = 0; w < ways_; ++w)
            ++rrpv_[base + w];
    }
}

void
ShipPolicy::onInsert(std::uint32_t set, std::uint32_t way,
                     const ReplAccess& ctx)
{
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    const std::uint32_t sig = signatureOf(ctx.pc);
    line_sig_[idx] = sig;
    if (ctx.is_prefetch) {
        rrpv_[idx] = kMaxRrpv; // prefetches inserted dead-on-arrival
    } else {
        rrpv_[idx] = (shct_[sig] == 0) ? kMaxRrpv : kMaxRrpv - 1;
    }
}

void
ShipPolicy::onHit(std::uint32_t set, std::uint32_t way, const ReplAccess&)
{
    rrpv_[static_cast<std::size_t>(set) * ways_ + way] = 0;
}

void
ShipPolicy::onEvict(std::uint32_t set, std::uint32_t way, bool was_reused)
{
    const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
    const std::uint32_t sig = line_sig_[idx];
    if (was_reused) {
        if (shct_[sig] < kShctMax)
            ++shct_[sig];
    } else {
        if (shct_[sig] > 0)
            --shct_[sig];
    }
    rrpv_[idx] = kMaxRrpv;
}

// ---------------------------------------------------------------------------

std::unique_ptr<ReplacementPolicy>
makeReplacement(const std::string& kind, std::uint32_t sets,
                std::uint32_t ways)
{
    if (kind == "lru")
        return std::make_unique<LruPolicy>(sets, ways);
    if (kind == "ship")
        return std::make_unique<ShipPolicy>(sets, ways);
    throw std::invalid_argument("unknown replacement policy: " + kind);
}

} // namespace pythia::sim
