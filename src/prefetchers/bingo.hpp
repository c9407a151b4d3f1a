/**
 * @file
 * Bingo spatial prefetcher [Bakhshalipour+ HPCA'19], the paper's second
 * headline baseline. Learns the spatial access footprint of 2KB regions
 * and replays it when the region's *trigger* access recurs, looking the
 * pattern up first with the long PC+Address event and falling back to the
 * shorter PC+Offset event — the "one-table lookahead" trick of Bingo.
 */
#pragma once

#include <unordered_map>

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** Bingo tuning knobs; defaults follow Table 7 (2KB regions, 128/4K
 *  entry AT/PHT). The model has no filter table: regions train in the
 *  AT from their first access, so Table 7's 64-entry FT has no knob. */
struct BingoConfig
{
    std::uint32_t region_bytes = 2048;
    std::uint32_t at_entries = 128;
    std::uint32_t pht_sets = 1024;
    std::uint32_t pht_ways = 4;

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("region_bytes", c.region_bytes, kRegionBytes);
        ar("at_entries", c.at_entries, kTable);
        ar("pht_sets", c.pht_sets, kTable);
        ar("pht_ways", c.pht_ways, kWays);
    }
};

/**
 * Bingo. Footprints are bitvectors over the blocks of one region,
 * anchored at the trigger offset.
 */
class BingoPrefetcher : public StatefulPrefetcher<BingoPrefetcher>
{
  public:
    explicit BingoPrefetcher(const BingoConfig& cfg = BingoConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.tick_);
        ar.table("bingo accumulation table", s.at_);
        ar.table("bingo history table", s.pht_);
    }

    /** Blocks per region (32 for 2KB regions). */
    std::uint32_t blocksPerRegion() const { return blocks_per_region_; }

  private:
    struct AtEntry
    {
        Addr region = ~0ull;
        Addr trigger_pc = 0;
        std::uint32_t trigger_offset = 0;
        std::uint64_t footprint = 0;
        std::uint64_t lru = 0;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.region, e.trigger_pc, e.trigger_offset, e.footprint, e.lru,
               e.valid);
        }
    };

    struct PhtEntry
    {
        std::uint64_t long_event = 0;  ///< hash of PC+Address
        std::uint64_t short_event = 0; ///< hash of PC+Offset
        std::uint64_t footprint = 0;   ///< anchored at trigger offset
        std::uint64_t lru = 0;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.long_event, e.short_event, e.footprint, e.lru, e.valid);
        }
    };

    Addr regionOf(Addr block) const;
    std::uint32_t offsetInRegion(Addr block) const;
    std::uint64_t longEvent(Addr pc, Addr block) const;
    std::uint64_t shortEvent(Addr pc, std::uint32_t offset) const;

    AtEntry* findAt(Addr region);
    void evictToPht(AtEntry& e);
    const PhtEntry* lookupPht(std::uint64_t long_ev,
                              std::uint64_t short_ev) const;
    void predict(const PrefetchAccess& access,
                 std::vector<PrefetchRequest>& out);

    BingoConfig cfg_;
    std::uint32_t blocks_per_region_;
    std::uint32_t region_shift_;
    std::vector<AtEntry> at_;
    std::vector<PhtEntry> pht_;
    std::uint64_t tick_ = 0;
};

} // namespace pythia::pf
