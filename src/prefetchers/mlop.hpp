/**
 * @file
 * MLOP — Multi-Lookahead Offset Prefetcher [Shakerinava+ DPC3'19], the
 * third baseline of the paper's headline comparison. Scores every
 * candidate offset at multiple lookahead levels against an access-map
 * history and prefetches the best offset of each level once enough
 * evaluation updates have accumulated.
 */
#pragma once

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** MLOP tuning knobs; defaults follow Table 7 (128-entry AMT, 500-update
 *  evaluation rounds, degree 16). */
struct MlopConfig
{
    std::uint32_t amt_entries = 128;   ///< tracked pages (access maps)
    std::uint32_t update_round = 500;  ///< updates per evaluation round
    std::uint32_t max_degree = 16;     ///< lookahead levels / max prefetches
    std::int32_t max_offset = 31;      ///< candidate offsets in [-max,max]

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("amt_entries", c.amt_entries, kTable);
        ar("update_round", c.update_round);
        ar("max_degree", c.max_degree, kDegree);
        // Candidate offsets stay within one page.
        ar("max_offset", c.max_offset,
           Bound<std::int32_t>{
               0, static_cast<std::int32_t>(kBlocksPerPage) - 1});
    }
};

/**
 * MLOP. Each tracked page keeps a 64-bit access bitmap plus the sequence
 * index of each block's access; offset d earns a point at lookahead level
 * l when the current access was preceded, at least l accesses earlier,
 * by an access to (block - d) in the same page — i.e. prefetching d ahead
 * from that earlier access would have covered this demand in time.
 */
class MlopPrefetcher : public StatefulPrefetcher<MlopPrefetcher>
{
  public:
    explicit MlopPrefetcher(const MlopConfig& cfg = MlopConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Offsets currently chosen per lookahead level (for tests). */
    const std::vector<std::int32_t>& chosenOffsets() const
    {
        return chosen_;
    }

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("mlop access maps", s.maps_);
        ar.table("mlop scores", s.scores_);
        ar.list("mlop chosen offsets", s.chosen_, s.cfg_.max_degree);
        ar(s.updates_);
    }

  private:
    struct MapEntry
    {
        Addr page = ~0ull;
        std::uint64_t bitmap = 0;
        std::uint8_t access_seq[64] = {}; ///< per-block recency rank
        std::uint8_t seq = 0;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.page, e.bitmap, e.access_seq, e.seq, e.valid);
        }
    };

    MapEntry& mapOf(Addr page);
    void finishRound();

    MlopConfig cfg_;
    std::vector<MapEntry> maps_;
    /** Candidate offsets per level: 2 * max_offset + 1. */
    std::size_t width_;
    /** score[level * width_ + offset_index]; offset_index 0 =>
     *  -max_offset. */
    std::vector<std::uint32_t> scores_;
    std::vector<std::int32_t> chosen_;
    std::uint32_t updates_ = 0;
};

} // namespace pythia::pf
