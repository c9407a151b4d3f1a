/**
 * @file
 * PPF — Perceptron-based Prefetch Filtering [Bhatia+ ISCA'19] layered on
 * SPP, the "SPP+PPF" baseline of the paper. A perceptron judges every SPP
 * candidate from a handful of cheap features; rejected candidates are
 * suppressed, and the perceptron trains from prefetch outcome feedback.
 */
#pragma once

#include "prefetchers/prefetcher.hpp"
#include "prefetchers/spp.hpp"

namespace pythia::pf {

/** PPF tuning knobs. */
struct PpfConfig
{
    std::uint32_t table_entries = 4096; ///< per-feature weight table size
    std::int32_t threshold = 0;         ///< accept when sum >= threshold
    std::int32_t train_margin = 32;     ///< retrain when |sum| < margin
    std::int32_t weight_max = 31;       ///< saturating weight bound
    SppConfig spp;                      ///< the inner SPP

    /** Spec keys (common/knobs.hpp): the inner SPP's tables are checked
     *  here, under this entry's spp_* keys, before it is built. */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("table_entries", c.table_entries, kTable);
        ar("threshold", c.threshold);
        ar("train_margin", c.train_margin);
        ar("weight_max", c.weight_max);
        ar("spp_st_entries", c.spp.st_entries, kTable);
        ar("spp_pt_sets", c.spp.pt_sets, kTable);
        ar("spp_max_lookahead", c.spp.max_lookahead, kDegree);
    }
};

/**
 * SPP with a perceptron filter. Wraps an internal SppPrefetcher; its
 * candidates are scored by summing per-feature weights (PC, page offset,
 * delta, signature). Outcomes (useful / useless) adjust the weights.
 */
class PpfPrefetcher : public StatefulPrefetcher<PpfPrefetcher>
{
  public:
    explicit PpfPrefetcher(const PpfConfig& cfg = PpfConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;
    void onFill(Addr block, Cycle at) override;
    void onPrefetchUsed(Addr block, bool timely) override;
    void onPrefetchEvicted(Addr block, bool used) override;

    /** Number of candidates rejected by the filter so far. */
    std::uint64_t rejected() const { return rejected_; }

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.spp_);
        ar.table("ppf weights", s.weights_);
        ar.table("ppf pending table", s.pending_);
        ar(s.rejected_);
    }

    /** Restore hook: weights within their saturation bound, pending
     *  feature indices within the weight tables. */
    void afterRestore() const;

  private:
    static constexpr int kFeatures = 4;
    /** Pending-prefetch slots (DESIGN.md §9.1): direct-mapped by target
     *  block, a new prefetch overwriting its slot. */
    static constexpr std::size_t kPendingSlots = 4096;

    struct PendingPrefetch
    {
        Addr block = 0;
        std::uint32_t feature_idx[kFeatures] = {0, 0, 0, 0};
        std::int32_t sum = 0;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.block, e.feature_idx, e.sum, e.valid);
        }
    };

    /** Compute the perceptron feature indices of a candidate. */
    void featureIndices(const PrefetchAccess& access, Addr target,
                        std::uint32_t idx[kFeatures]) const;
    std::int32_t score(const std::uint32_t idx[kFeatures]) const;
    void adjust(const PendingPrefetch& p, bool useful);

    /** The slot of @p block when it holds @p block's prefetch. */
    PendingPrefetch* pendingOf(Addr block);

    PpfConfig cfg_;
    SppPrefetcher spp_;
    std::vector<std::int32_t> weights_; ///< kFeatures * table_entries
    std::vector<PendingPrefetch> pending_;
    std::uint64_t rejected_ = 0;
};

} // namespace pythia::pf
