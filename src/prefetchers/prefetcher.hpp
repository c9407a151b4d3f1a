/**
 * @file
 * Common base class for all prefetching algorithms in this repository,
 * plus small helpers shared by several of them (in-page clamping, delta
 * history tracking).
 */
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "common/types.hpp"
#include "sim/prefetcher_api.hpp"
#include "snapshot/archive.hpp"

namespace pythia::pf {

using sim::BandwidthInfo;
using sim::PrefetchAccess;
using sim::PrefetcherApi;
using sim::PrefetchRequest;

/**
 * The table-size rules, so no spec string can make the host allocate or
 * loop without limit: a table holds at most 65536 rows (16x the largest
 * default), a set at most 16 ways, and a degree-style key (prefetches
 * or lookahead steps per access) is at most kMaxDegree — a page holds
 * 64 lines, so an in-page prefetcher can never use more. Every
 * prefetcher constructor checks its config's knobs (common/knobs.hpp)
 * before it allocates a table, so a degenerate spec
 * ("stride:entries=0") is a typed error, never a crash or an unbounded
 * allocation.
 */
inline constexpr std::uint32_t kMaxDegree = 64;
inline constexpr Bound<std::uint32_t> kTable{1, 65536};
inline constexpr Bound<std::uint32_t> kWays{1, 16};
inline constexpr Bound<std::uint32_t> kDegree{0, kMaxDegree};
/** A region size the 64-bit footprint bitvectors can hold. */
inline constexpr Pred<std::uint32_t> kRegionBytes{
    "a power of two <= 4096", [](const std::uint32_t& v) {
        return std::has_single_bit(v) && v <= 64 * kBlockSize;
    }};

/**
 * Base class holding the name, the bandwidth feedback pointer and the
 * declared storage budget of a prefetcher.
 */
class PrefetcherBase : public PrefetcherApi
{
  public:
    /**
     * @param name          display name
     * @param storage_bytes declared metadata budget (Table 7 comparisons)
     */
    PrefetcherBase(std::string name, std::size_t storage_bytes);

    const std::string& name() const override { return name_; }
    std::size_t storageBytes() const override { return storage_bytes_; }
    void setBandwidthInfo(const BandwidthInfo* bw) override { bw_ = bw; }

    /**
     * Emit block + @p line_offset as a prefetch candidate iff the target
     * stays inside the same physical page (post-L1 prefetchers never cross
     * pages, §3.1). @return true when emitted.
     */
    static bool emitWithinPage(Addr block, std::int32_t line_offset,
                               std::vector<PrefetchRequest>& out,
                               int fill_level = 2);

  protected:
    /** Bandwidth feedback source; may be nullptr in unit tests. */
    const BandwidthInfo* bandwidth() const { return bw_; }

    /** True when DRAM bandwidth usage is currently high (false when no
     *  feedback source is attached). */
    bool highBandwidth() const { return bw_ != nullptr && bw_->highUsage(); }

  private:
    std::string name_;
    std::size_t storage_bytes_;
    const BandwidthInfo* bw_ = nullptr;
};

/**
 * PrefetcherBase whose snapshot codec derives from Derived's one state
 * declaration, `template <class Self, class Ar> static void fields(Self&,
 * Ar&)` (snapshot/archive.hpp). Every prefetcher inherits from it.
 */
template <class Derived>
class StatefulPrefetcher : public PrefetcherBase
{
  public:
    using PrefetcherBase::PrefetcherBase;

    void saveState(snap::Writer& w) const override
    {
        snap::save(static_cast<const Derived&>(*this), w);
    }

    void loadState(snap::Reader& r) override
    {
        snap::load(static_cast<Derived&>(*this), r);
    }
};

/**
 * Rolling per-page last-offset tracker used by delta-based prefetchers
 * (SPP, DSPatch, Pythia's feature extraction). Small direct-mapped table
 * keyed by page id.
 */
class PageTracker
{
  public:
    explicit PageTracker(std::size_t entries = 256);

    /**
     * Record an access to @p block; returns the delta (in cachelines) to
     * the previous access in the same page, or 0 when this is the first
     * access observed for the page (a fresh table entry).
     */
    std::int32_t recordAndDelta(Addr block);

    /** Last recorded in-page offset for @p block's page (-1 if unknown). */
    std::int32_t lastOffset(Addr block) const;

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("page tracker", s.entries_);
    }

  private:
    struct Entry
    {
        Addr page = ~0ull;
        std::int32_t last_offset = -1;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.page, e.last_offset);
        }
    };
    std::size_t index(Addr page) const;
    std::vector<Entry> entries_;
};

} // namespace pythia::pf
