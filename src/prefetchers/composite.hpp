/**
 * @file
 * Composite prefetcher that runs several child prefetchers side by side
 * and merges their candidates — the "St+S+B+D+M" hybrid stacks of the
 * paper's Figs. 9(b)/10(b), whose additive overprediction Pythia is shown
 * to beat.
 */
#pragma once

#include <memory>

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** Trains every child on every access; unions their candidate lists. */
class CompositePrefetcher : public StatefulPrefetcher<CompositePrefetcher>
{
  public:
    /** @param name display name (e.g. "St+S+B")
     *  @param children component prefetchers, trained in order. */
    CompositePrefetcher(std::string name,
                        std::vector<std::unique_ptr<PrefetcherApi>>
                            children);

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;
    void onFill(Addr block, Cycle at) override;
    void onPrefetchUsed(Addr block, bool timely) override;
    void onPrefetchEvicted(Addr block, bool used) override;
    void setBandwidthInfo(const BandwidthInfo* bw) override;

    /** Snapshot state (snapshot/archive.hpp): the child count, then
     *  every child's own state in training order. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.expect("composite children",
                  static_cast<std::uint64_t>(s.children_.size()));
        for (const auto& c : s.children_)
            ar(*c);
    }

    /** Number of children. */
    std::size_t size() const { return children_.size(); }

  private:
    std::vector<std::unique_ptr<PrefetcherApi>> children_;
};

} // namespace pythia::pf
