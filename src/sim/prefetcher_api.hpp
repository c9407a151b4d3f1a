/**
 * @file
 * The boundary between the cache model and any prefetching algorithm.
 *
 * Mirrors the ChampSim prefetcher hook set the paper's artifact uses:
 * prefetchers are trained on the demand stream arriving at their cache
 * level (L1 misses, for the L2 prefetchers evaluated in the paper, §5.2),
 * are notified of prefetch fills, and emit cacheline prefetch candidates.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pythia::snap {
class Writer;
class Reader;
} // namespace pythia::snap

namespace pythia::sim {

/** A demand access as seen by a prefetcher's cache level. */
struct PrefetchAccess
{
    Addr pc = 0;            ///< load/store PC
    Addr address = 0;       ///< full byte address
    Addr block = 0;         ///< cacheline-granular address
    bool hit = false;       ///< hit in this cache level
    bool is_write = false;  ///< store (true) or load (false)
    Cycle cycle = 0;        ///< core cycle of the access
    std::uint32_t core = 0; ///< issuing core id
};

/** One prefetch candidate produced by a prefetcher. */
struct PrefetchRequest
{
    Addr block = 0;  ///< cacheline-granular target address
    int fill_level = 2; ///< 2 = fill this cache (L2), 3 = fill LLC only
};

/**
 * Read-only view of the memory subsystem state a system-aware prefetcher
 * may consult (the paper's "system-level feedback"). Implemented by the
 * DRAM model.
 */
class BandwidthInfo
{
  public:
    virtual ~BandwidthInfo() = default;

    /** Bus utilization in [0,1] over the most recent epoch. */
    virtual double utilization() const = 0;

    /** True when utilization exceeds the high-usage threshold (paper's
     *  R^H vs R^L reward split). */
    virtual bool highUsage() const = 0;
};

/**
 * Abstract prefetching algorithm plugged into a Cache.
 */
class PrefetcherApi
{
  public:
    virtual ~PrefetcherApi() = default;

    /**
     * Observe one demand access and emit prefetch candidates into @p out.
     * Called for every demand (load/store) access that reaches the cache
     * level this prefetcher is attached to.
     */
    virtual void train(const PrefetchAccess& access,
                       std::vector<PrefetchRequest>& out) = 0;

    /**
     * A prefetch issued earlier will be (or has been) filled into the
     * cache. @p at is the fill completion cycle; because the simulator
     * resolves latencies at issue time, this may be called before the
     * simulated fill instant — implementations must compare @p at against
     * demand cycles rather than assume "already filled".
     */
    virtual void onFill(Addr block, Cycle at) { (void)block; (void)at; }

    /** A demand matched a prefetched block. @p timely is false when the
     *  demand arrived before the prefetch fill completed. */
    virtual void onPrefetchUsed(Addr block, bool timely)
    {
        (void)block; (void)timely;
    }

    /** A prefetched block left the cache. @p used tells whether any demand
     *  hit it during residency (false = wasted prefetch). */
    virtual void onPrefetchEvicted(Addr block, bool used)
    {
        (void)block; (void)used;
    }

    /** Attach the system bandwidth feedback source (may be nullptr). */
    virtual void setBandwidthInfo(const BandwidthInfo* bw) { (void)bw; }

    /** Stable display name. */
    virtual const std::string& name() const = 0;

    /** Metadata storage cost in bytes (paper Table 7 comparisons). */
    virtual std::size_t storageBytes() const = 0;

    /** Serialize all learned/tracked state (snapshot subsystem,
     *  DESIGN.md §9). Prefetchers declare their state once and inherit
     *  both codec functions from pf::StatefulPrefetcher. */
    virtual void saveState(snap::Writer& w) const = 0;

    /** Restore a saveState() image. @throws snap::CorruptError when
     *  the image does not fit this configuration. */
    virtual void loadState(snap::Reader& r) = 0;
};

} // namespace pythia::sim
