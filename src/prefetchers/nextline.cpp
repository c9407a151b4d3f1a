#include "prefetchers/nextline.hpp"

#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

NextLinePrefetcher::NextLinePrefetcher(std::uint32_t degree)
    : StatefulPrefetcher("nextline", 8 /* degree register */),
      degree_(degree)
{
    requireConfig("nextline", {{degree <= kMaxDegree, "degree", kDegreeRule}});
}

void
NextLinePrefetcher::train(const PrefetchAccess& access,
                          std::vector<PrefetchRequest>& out)
{
    for (std::uint32_t d = 1; d <= degree_; ++d)
        emitWithinPage(access.block, static_cast<std::int32_t>(d), out);
}

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "nextline",
    {"degree"},
    [](const sim::PrefetcherParams& p) {
        return std::make_unique<NextLinePrefetcher>(p.getU32("degree", 1));
    }};

} // namespace

} // namespace pythia::pf
