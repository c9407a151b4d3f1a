#include "prefetchers/stride.hpp"

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<StridePrefetcher>("stride", StrideConfig{});

} // namespace

StridePrefetcher::StridePrefetcher(const StrideConfig& cfg)
    : StatefulPrefetcher("stride",
                         cfg.entries * 16 /* pc tag + addr + stride + conf */),
      degree_(cfg.degree)
{
    checkKnobs(name(), cfg);
    table_.resize(cfg.entries);
}

void
StridePrefetcher::train(const PrefetchAccess& access,
                        std::vector<PrefetchRequest>& out)
{
    Entry& e = table_[mix64(access.pc) % table_.size()];
    if (!e.valid || e.pc != access.pc) {
        e = Entry{};
        e.pc = access.pc;
        e.last_block = access.block;
        e.valid = true;
        return;
    }

    const auto stride = static_cast<std::int32_t>(
        static_cast<std::int64_t>(access.block) -
        static_cast<std::int64_t>(e.last_block));
    if (stride == 0)
        return;

    if (stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        e.stride = stride;
        e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
    }
    e.last_block = access.block;

    if (e.confidence >= 2) {
        for (std::uint32_t d = 1; d <= degree_; ++d)
            emitWithinPage(access.block,
                           e.stride * static_cast<std::int32_t>(d), out);
    }
}

} // namespace pythia::pf
