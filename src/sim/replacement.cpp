#include "sim/replacement.hpp"

#include <cassert>
#include <stdexcept>

#include "common/hashing.hpp"
#include "snapshot/codec.hpp"

namespace pythia::sim {

namespace {

/** Geometry guard shared by the policy loaders: a state vector restored
 *  into a policy of different shape would index out of bounds later. */
void
requireSize(const char* what, std::size_t got, std::size_t want)
{
    if (got != want)
        throw snap::CorruptError(
            std::string("snapshot corrupt: replacement ") + what +
            " size " + std::to_string(got) + " does not match policy "
            "geometry " + std::to_string(want));
}

/** Downcast guard shared by the policies' copyStateFrom: @p other
 *  must be the same kind of policy as @p self. */
template <typename Policy>
const Policy&
sameKind(const ReplacementPolicy& self, const ReplacementPolicy& other)
{
    const auto* o = dynamic_cast<const Policy*>(&other);
    if (!o)
        throw std::invalid_argument("replacement copy: cannot copy '" +
                                    other.name() + "' state into '" +
                                    self.name() + "'");
    return *o;
}

} // namespace

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

void
LruPolicy::saveState(snap::Writer& w) const
{
    w.u64(tick_);
    w.vecU64(stamp_);
}

void
LruPolicy::loadState(snap::Reader& r)
{
    const std::uint64_t tick = r.u64();
    std::vector<std::uint64_t> stamp = r.vecU64();
    requireSize("lru stamp", stamp.size(), stamp_.size());
    tick_ = tick;
    stamp_ = std::move(stamp);
}

void
LruPolicy::copyStateFrom(const ReplacementPolicy& other)
{
    const LruPolicy& o = sameKind<LruPolicy>(*this, other);
    if (o.stamp_.size() != stamp_.size() || o.ways_ != ways_)
        throw std::invalid_argument("replacement copy: lru geometry "
                                    "differs");
    *this = o;
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

void
ShipPolicy::saveState(snap::Writer& w) const
{
    w.vecU8(rrpv_);
    w.vecU32(line_sig_);
    w.vecU8(shct_);
}

void
ShipPolicy::loadState(snap::Reader& r)
{
    std::vector<std::uint8_t> rrpv = r.vecU8();
    std::vector<std::uint32_t> line_sig = r.vecU32();
    std::vector<std::uint8_t> shct = r.vecU8();
    requireSize("ship rrpv", rrpv.size(), rrpv_.size());
    requireSize("ship line_sig", line_sig.size(), line_sig_.size());
    requireSize("ship shct", shct.size(), shct_.size());
    rrpv_ = std::move(rrpv);
    line_sig_ = std::move(line_sig);
    shct_ = std::move(shct);
}

void
ShipPolicy::copyStateFrom(const ReplacementPolicy& other)
{
    const ShipPolicy& o = sameKind<ShipPolicy>(*this, other);
    if (o.rrpv_.size() != rrpv_.size() || o.shct_.size() != shct_.size())
        throw std::invalid_argument("replacement copy: ship geometry "
                                    "differs");
    *this = o;
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
