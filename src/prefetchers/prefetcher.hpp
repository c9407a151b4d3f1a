/**
 * @file
 * Common base class for all prefetching algorithms in this repository,
 * plus small helpers shared by several of them (in-page clamping, delta
 * history tracking).
 */
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/prefetcher_api.hpp"

namespace pythia::pf {

using sim::BandwidthInfo;
using sim::PrefetchAccess;
using sim::PrefetcherApi;
using sim::PrefetchRequest;

/** One constructor-time configuration rule: @p key is valid when @p ok. */
struct ConfigRule
{
    bool ok;
    const char* key;
    const char* rule; ///< what a valid value is, e.g. ">= 1"
};

/**
 * Constructor-time configuration guard: every prefetcher checks its
 * configuration with this before it allocates a table, so a degenerate
 * spec ("stride:entries=0") is a typed error, never a crash.
 * @throws std::invalid_argument "<owner>: <key> must be <rule>" for the
 *         first rule that does not hold.
 */
void requireConfig(const std::string& owner,
                   std::initializer_list<ConfigRule> rules);

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

  private:
    struct Entry
    {
        Addr page = ~0ull;
        std::int32_t last_offset = -1;
    };
    std::size_t index(Addr page) const;
    std::vector<Entry> entries_;
};

} // namespace pythia::pf
