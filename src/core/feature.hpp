/**
 * @file
 * Program feature definition and extraction for Pythia's state vector.
 *
 * A feature is the concatenation of one *control-flow* component and one
 * *data-flow* component (paper §3.1, Table 3): 4 control kinds x 8 data
 * kinds = the 32-feature exploration space of §4.3.1. The extractor keeps
 * the rolling PC/delta/offset histories those components need.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pythia::snap {
class Writer;
class Reader;
} // namespace pythia::snap

namespace pythia::rl {

/** Control-flow feature components (paper Table 3). */
enum class ControlKind : std::uint8_t {
    None,        ///< no control-flow component
    Pc,          ///< PC of the load request
    PcPath3,     ///< XOR of the last 3 load PCs
    PcXorPrevPc, ///< PC XOR-ed with the preceding PC (stands in for the
                 ///< branch-PC component; traces carry no branch PCs)
};

/** Data-flow feature components (paper Table 3). */
enum class DataKind : std::uint8_t {
    None,          ///< no data-flow component
    CachelineAddr, ///< load cacheline address
    PageNum,       ///< physical page number
    PageOffset,    ///< cacheline offset within the page
    Delta,         ///< delta to the previous access in the same page
    Last4Offsets,  ///< packed sequence of the last 4 page offsets
    Last4Deltas,   ///< packed sequence of the last 4 deltas
    OffsetXorDelta,///< page offset XOR-ed with the delta
};

/** One program feature: control + data component. */
struct FeatureSpec
{
    ControlKind control = ControlKind::None;
    DataKind data = DataKind::None;

    bool operator==(const FeatureSpec&) const = default;
};

/** Human-readable feature name, e.g. "PC+Delta". Spec strings join
 *  the two components with '.' instead ("PC.Delta"): they reserve '+'
 *  for composition. */
std::string featureName(const FeatureSpec& spec, char join = '+');

/** Inverse of featureName(spec, '.'): nullopt when no feature has that
 *  spelling. */
std::optional<FeatureSpec> parseFeatureName(const std::string& name);

/** All 32 feature combinations of the §4.3.1 exploration space, excluding
 *  the degenerate None+None. */
std::vector<FeatureSpec> allFeatureSpecs();

/** The basic configuration's winning state-vector:
 *  { PC+Delta, Sequence of last-4 deltas } (paper Table 2). */
std::vector<FeatureSpec> basicFeatureSpecs();

/**
 * Rolling observation state + feature evaluation.
 *
 * observe() must be called once per demand request (before extraction)
 * with the request's PC and cacheline address; extract() then evaluates
 * any FeatureSpec against the updated histories.
 */
class FeatureExtractor
{
  public:
    FeatureExtractor();

    /** Ingest one demand request. */
    void observe(Addr pc, Addr block);

    /** Evaluate @p spec against the current histories. */
    std::uint64_t extract(const FeatureSpec& spec) const;

    /** Evaluate a whole state vector. */
    std::vector<std::uint64_t>
    extractAll(const std::vector<FeatureSpec>& specs) const;

    /** Evaluate a whole state vector into @p out (cleared first), so a
     *  per-demand caller can reuse one buffer instead of allocating. */
    void extractAllInto(const std::vector<FeatureSpec>& specs,
                        std::vector<std::uint64_t>& out) const;

    /** Delta (in cachelines) of the most recent access within its page;
     *  0 for page-first accesses. */
    std::int32_t lastDelta() const { return deltas_[0]; }

    /** Most recent page offset. */
    std::uint32_t lastOffset() const { return offsets_[0]; }

    /** Reset all histories. */
    void reset();

    /** Serialize the rolling histories (snapshot subsystem). */
    void saveState(snap::Writer& w) const;

    /** Restore a saveState() image. */
    void loadState(snap::Reader& r);

  private:
    std::uint64_t controlValue(ControlKind kind) const;
    std::uint64_t dataValue(DataKind kind) const;

    /** Recompute the packed/derived caches from the raw histories
     *  (constructor, reset, loadState). */
    void rebuildDerived();

    // Histories, most recent first. These remain the serialized
    // representation (the snapshot wire format predates the caches).
    Addr pcs_[3];
    std::int32_t deltas_[4];
    std::uint32_t offsets_[4];
    Addr last_block_ = 0;
    Addr last_page_ = ~0ull;
    bool has_last_ = false;

    // Derived values maintained incrementally by observe() so extract()
    // is table lookups instead of history walks (DESIGN.md §10): the
    // packed last-4 sequences shift one element per observation, and
    // the control-flow combinations fold in the new PC once.
    std::uint64_t packed_offsets_ = 0; ///< 4 x 6-bit, newest on top
    std::uint64_t packed_deltas_ = 0;  ///< 4 x 7-bit, newest on top
    std::uint32_t packed_delta0_ = 0;  ///< packDelta(deltas_[0])
    std::uint64_t pc_path3_ = 0;       ///< pcs0 ^ pcs1<<1 ^ pcs2<<2
    std::uint64_t pc_xor_prev_ = 0;    ///< pcs0 ^ pcs1
};

} // namespace pythia::rl
