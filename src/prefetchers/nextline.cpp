#include "prefetchers/nextline.hpp"

#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

NextLinePrefetcher::NextLinePrefetcher(const NextLineConfig& cfg)
    : StatefulPrefetcher("nextline", 8 /* degree register */),
      degree_(checkKnobs(name(), cfg).degree)
{
}

void
NextLinePrefetcher::train(const PrefetchAccess& access,
                          std::vector<PrefetchRequest>& out)
{
    for (std::uint32_t d = 1; d <= degree_; ++d)
        emitWithinPage(access.block, static_cast<std::int32_t>(d), out);
}

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<NextLinePrefetcher>("nextline", NextLineConfig{});

} // namespace

} // namespace pythia::pf
