/**
 * @file
 * PC-based stride prefetcher [Fu+ MICRO'92, Jouppi ISCA'90], the classic
 * L1 prefetcher used by the paper's multi-level comparisons (§6.2.4) and
 * the "St" component of the §6.3 prefetcher-combination study.
 */
#pragma once

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** Stride tuning knobs. */
struct StrideConfig
{
    /** Table entries (direct mapped by PC hash). */
    std::uint32_t entries = 256;
    /** Prefetch distance in strides once confident. */
    std::uint32_t degree = 4;

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("entries", c.entries, kTable);
        ar("degree", c.degree, kDegree);
    }
};

/**
 * Per-PC stride table with 2-bit confidence. When the same PC produces the
 * same cacheline stride twice in a row the entry becomes confident and
 * prefetches @p degree strides ahead.
 */
class StridePrefetcher : public StatefulPrefetcher<StridePrefetcher>
{
  public:
    explicit StridePrefetcher(const StrideConfig& cfg = StrideConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("stride table", s.table_);
    }

  private:
    struct Entry
    {
        Addr pc = 0;
        Addr last_block = 0;
        std::int32_t stride = 0;
        std::uint8_t confidence = 0; ///< saturating 0..3; >=2 prefetches
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.pc, e.last_block, e.stride, e.confidence, e.valid);
        }
    };

    std::vector<Entry> table_;
    std::uint32_t degree_;
};

} // namespace pythia::pf
