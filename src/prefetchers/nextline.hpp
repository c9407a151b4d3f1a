/**
 * @file
 * Degenerate next-line prefetcher, used as a sanity baseline in tests and
 * ablations (not one of the paper's comparison points, but the simplest
 * member of the API for validation).
 */
#pragma once

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** Next-line tuning knobs. */
struct NextLineConfig
{
    std::uint32_t degree = 1; ///< sequential lines per demand

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("degree", c.degree, kDegree);
    }
};

/** Prefetches the next @p degree sequential cachelines on every demand. */
class NextLinePrefetcher : public StatefulPrefetcher<NextLinePrefetcher>
{
  public:
    explicit NextLinePrefetcher(const NextLineConfig& cfg = NextLineConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Snapshot state: none (degree_ is configuration). */
    template <class Self, class Ar>
    static void fields(Self&, Ar&)
    {
    }

  private:
    std::uint32_t degree_;
};

} // namespace pythia::pf
