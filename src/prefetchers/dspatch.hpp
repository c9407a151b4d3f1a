/**
 * @file
 * DSPatch — Dual Spatial Pattern prefetcher [Bera+ MICRO'19], the
 * "SPP+DSPatch" companion baseline of the paper. Keeps two bit-pattern
 * predictions per program context: a coverage-biased pattern (CovP,
 * union of observed footprints) and an accuracy-biased pattern (AccP,
 * intersection), and selects between them using DRAM bandwidth usage.
 */
#pragma once

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** DSPatch tuning knobs (defaults sized to the paper's ~3.6KB budget). */
struct DspatchConfig
{
    std::uint32_t region_bytes = 2048;
    std::uint32_t spt_entries = 256;  ///< signature pattern table entries
    std::uint32_t at_entries = 32;    ///< in-flight region accumulators

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("region_bytes", c.region_bytes, kRegionBytes);
        ar("spt_entries", c.spt_entries, kTable);
        ar("at_entries", c.at_entries, kTable);
    }
};

/** Dual Spatial Pattern prefetcher. */
class DspatchPrefetcher : public StatefulPrefetcher<DspatchPrefetcher>
{
  public:
    explicit DspatchPrefetcher(const DspatchConfig& cfg = DspatchConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.tick_);
        ar.table("dspatch pattern table", s.spt_);
        ar.table("dspatch accumulation table", s.at_);
    }

  private:
    struct SptEntry
    {
        std::uint64_t sig = 0;
        std::uint64_t cov_pattern = 0; ///< union (coverage-biased)
        std::uint64_t acc_pattern = 0; ///< intersection (accuracy-biased)
        std::uint8_t trained = 0;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.sig, e.cov_pattern, e.acc_pattern, e.trained, e.valid);
        }
    };

    struct AtEntry
    {
        Addr region = ~0ull;
        std::uint64_t sig = 0;
        std::uint32_t anchor = 0;
        std::uint64_t footprint = 0;
        std::uint64_t lru = 0;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.region, e.sig, e.anchor, e.footprint, e.lru, e.valid);
        }
    };

    Addr regionOf(Addr block) const;
    std::uint32_t offsetInRegion(Addr block) const;
    void commit(AtEntry& e);

    DspatchConfig cfg_;
    std::uint32_t blocks_per_region_;
    std::uint32_t region_shift_;
    std::vector<SptEntry> spt_;
    std::vector<AtEntry> at_;
    std::uint64_t tick_ = 0;
};

} // namespace pythia::pf
