/**
 * @file
 * SPP — Signature Path Prefetcher [Kim+ MICRO'16], one of the paper's two
 * headline baselines. Learns compressed delta-history signatures per page
 * and walks the pattern table speculatively (lookahead) while the path
 * confidence stays above threshold.
 */
#pragma once

#include <array>

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** SPP tuning knobs; defaults follow the paper's Table 7 configuration
 *  (256-entry ST, 512-entry 4-way PT). */
struct SppConfig
{
    std::uint32_t st_entries = 256;
    std::uint32_t pt_sets = 512;
    std::uint32_t pt_ways = 4;
    double fill_threshold = 0.40;  ///< confidence to fill into L2
    double pf_threshold = 0.15;    ///< confidence to fill into LLC only
    std::uint32_t max_lookahead = 8;

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("st_entries", c.st_entries, kTable);
        ar("pt_sets", c.pt_sets, kTable);
        ar("pt_ways", c.pt_ways, kWays);
        ar("fill_threshold", c.fill_threshold);
        ar("pf_threshold", c.pf_threshold);
        ar("max_lookahead", c.max_lookahead, kDegree);
    }
};

/**
 * Signature Path Prefetcher.
 *
 * Per page, a 12-bit signature compresses the delta history
 * (sig' = (sig << 3) XOR delta). The pattern table maps a signature to
 * candidate next deltas with confidence counters; prediction multiplies
 * per-step confidences along the speculative path and stops below
 * threshold, exactly the lookahead scheme of the original design.
 */
class SppPrefetcher : public StatefulPrefetcher<SppPrefetcher>
{
  public:
    explicit SppPrefetcher(const SppConfig& cfg = SppConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("spp signature table", s.st_);
        ar.table("spp pattern table", s.pt_);
    }

    /** Expose the predicted (delta, confidence) list for one signature —
     *  consumed by the PPF wrapper and by unit tests. */
    struct Prediction
    {
        std::int32_t delta = 0;
        double confidence = 0.0;
    };

    /** Highest-confidence prediction for @p signature (confidence 0 when
     *  the signature is unknown). */
    Prediction predictBest(std::uint32_t signature) const;

    /** Signature currently tracked for @p block's page (0 if untracked). */
    std::uint32_t pageSignature(Addr block) const;

    static constexpr std::uint32_t kSigBits = 12;
    static constexpr std::uint32_t kSigMask = (1u << kSigBits) - 1;

    /** sig' = (sig << 3) ^ delta, folded to 12 bits. */
    static std::uint32_t advanceSignature(std::uint32_t sig,
                                          std::int32_t delta);

  private:
    struct StEntry
    {
        Addr page = ~0ull;
        std::uint32_t signature = 0;
        std::int32_t last_offset = -1;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.page, e.signature, e.last_offset);
        }
    };

    struct PtEntry
    {
        std::uint32_t signature = 0;
        bool valid = false;
        std::array<std::int32_t, 4> delta{};
        std::array<std::uint16_t, 4> c_delta{};
        std::uint16_t c_sig = 0;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.signature, e.valid, e.delta, e.c_delta, e.c_sig);
        }
    };

    StEntry& stEntry(Addr page);
    PtEntry* findPt(std::uint32_t signature);
    const PtEntry* findPt(std::uint32_t signature) const;
    void updatePattern(std::uint32_t signature, std::int32_t delta);

    SppConfig cfg_;
    std::vector<StEntry> st_;
    std::vector<PtEntry> pt_;
};

} // namespace pythia::pf
