/**
 * @file
 * POWER7-style adaptive stream prefetcher [Jimenez+ TOPC'14], compared
 * against Pythia in the paper's Appendix B.5. A conventional streamer
 * whose depth is retuned periodically from observed prefetch usefulness
 * and DRAM bandwidth utilization — system feedback as an *afterthought*
 * control loop, in contrast to Pythia's inherent reward integration.
 */
#pragma once

#include "prefetchers/prefetcher.hpp"
#include "prefetchers/streamer.hpp"

namespace pythia::pf {

/** POWER7 adaptive prefetcher knobs. */
struct Power7Config
{
    std::uint32_t epoch_prefetches = 256; ///< retune interval
    std::uint32_t min_depth = 1;
    std::uint32_t max_depth = 16;

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("epoch_prefetches", c.epoch_prefetches);
        // The depths become the inner streamer's degree.
        ar("min_depth", c.min_depth, kDegree);
        ar("max_depth", c.max_depth, kDegree);
    }
};

/** Streamer with epoch-based adaptive depth selection. */
class Power7Prefetcher : public StatefulPrefetcher<Power7Prefetcher>
{
  public:
    explicit Power7Prefetcher(const Power7Config& cfg = Power7Config{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;
    void onPrefetchUsed(Addr block, bool timely) override;
    void onPrefetchEvicted(Addr block, bool used) override;

    /** Current adaptive depth (for tests). */
    std::uint32_t depth() const { return streamer_.degree(); }

    /** Snapshot state (snapshot/archive.hpp): the inner streamer (its
     *  degree is the adaptive depth) and the epoch counters. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.streamer_, s.issued_, s.used_, s.wasted_);
    }

  private:
    void maybeRetune();

    Power7Config cfg_;
    StreamerPrefetcher streamer_;
    std::uint64_t issued_ = 0;
    std::uint64_t used_ = 0;
    std::uint64_t wasted_ = 0;
};

} // namespace pythia::pf
