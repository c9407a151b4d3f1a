#include "prefetchers/composite.hpp"

#include <numeric>
#include <unordered_map>

#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

std::size_t
totalStorage(const std::vector<std::unique_ptr<PrefetcherApi>>& children)
{
    return std::accumulate(
        children.begin(), children.end(), std::size_t{0},
        [](std::size_t acc, const auto& c) {
            return acc + c->storageBytes();
        });
}

} // namespace

CompositePrefetcher::CompositePrefetcher(
    std::string name, std::vector<std::unique_ptr<PrefetcherApi>> children)
    : StatefulPrefetcher(std::move(name), totalStorage(children)),
      children_(std::move(children))
{
}

void
CompositePrefetcher::train(const PrefetchAccess& access,
                           std::vector<PrefetchRequest>& out)
{
    const std::size_t first = out.size();
    for (auto& c : children_)
        c->train(access, out);
    // Union: drop duplicate target blocks, keeping the strongest
    // (lowest) fill level. The dedup must be stable in first-emission
    // order — children are trained in priority order and the cache
    // truncates the candidate list at max_prefetches_per_access, so
    // reordering (e.g. sorting by block address) would make truncation
    // drop the wrong candidates.
    std::unordered_map<Addr, std::size_t> seen;
    std::size_t keep = first;
    for (std::size_t i = first; i < out.size(); ++i) {
        const auto [it, fresh] = seen.emplace(out[i].block, keep);
        if (fresh)
            out[keep++] = out[i];
        else if (out[i].fill_level < out[it->second].fill_level)
            out[it->second].fill_level = out[i].fill_level;
    }
    out.resize(keep);
}

void
CompositePrefetcher::onFill(Addr block, Cycle at)
{
    for (auto& c : children_)
        c->onFill(block, at);
}

void
CompositePrefetcher::onPrefetchUsed(Addr block, bool timely)
{
    for (auto& c : children_)
        c->onPrefetchUsed(block, timely);
}

void
CompositePrefetcher::onPrefetchEvicted(Addr block, bool used)
{
    for (auto& c : children_)
        c->onPrefetchEvicted(block, used);
}

void
CompositePrefetcher::setBandwidthInfo(const BandwidthInfo* bw)
{
    PrefetcherBase::setBandwidthInfo(bw);
    for (auto& c : children_)
        c->setBandwidthInfo(bw);
}

// ------------------------------------------------------------ registration

namespace {

/** Register a named alias for a fixed composition (the paper's
 *  cumulative "St+S+B+D+M" stacks of Figs. 9(b)/10(b)). */
sim::PrefetcherEntry
stackAlias(const std::string& name, std::vector<std::string> child_specs)
{
    return {name,
            {},
            [child_specs = std::move(child_specs),
             name](const SpecParams&) {
                auto& registry = sim::PrefetcherRegistry::instance();
                std::vector<std::unique_ptr<sim::PrefetcherApi>> kids;
                for (const auto& spec : child_specs)
                    kids.push_back(registry.make(spec));
                return std::make_unique<CompositePrefetcher>(
                    name, std::move(kids));
            }};
}

struct StackRegistrar
{
    StackRegistrar()
    {
        auto& registry = sim::PrefetcherRegistry::instance();
        registry.add(stackAlias("st", {"stride"}));
        registry.add(stackAlias("st_s", {"stride", "spp"}));
        registry.add(stackAlias("st_s_b", {"stride", "spp", "bingo"}));
        registry.add(
            stackAlias("st_s_b_d", {"stride", "spp", "bingo", "dspatch"}));
        registry.add(stackAlias(
            "st_s_b_d_m", {"stride", "spp", "bingo", "dspatch", "mlop"}));
        registry.add(stackAlias("spp_dspatch", {"spp", "dspatch"}));
    }
};

[[maybe_unused]] const StackRegistrar stacks;

} // namespace

} // namespace pythia::pf
