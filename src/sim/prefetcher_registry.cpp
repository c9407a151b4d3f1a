#include "sim/prefetcher_registry.hpp"

#include <stdexcept>

#include "common/spec.hpp"
#include "prefetchers/composite.hpp"

namespace pythia::sim {

PrefetcherRegistry&
PrefetcherRegistry::instance()
{
    static PrefetcherRegistry registry;
    return registry;
}

std::unique_ptr<PrefetcherApi>
PrefetcherRegistry::make(const std::string& spec) const
{
    if (spec.empty())
        return nullptr;

    const std::vector<ParsedSpec> parts = parseSpecList(spec);
    if (parts.size() == 1 && parts[0].name == "none") {
        if (!parts[0].params.empty())
            throw std::invalid_argument(
                "'none' takes no parameters: " + spec);
        return nullptr;
    }

    std::vector<std::unique_ptr<PrefetcherApi>> built;
    std::string composite_name;
    for (const ParsedSpec& part : parts) {
        if (part.name == "none")
            throw std::invalid_argument(
                "'none' cannot appear in a composition: " + spec);
        const Resolved r = resolve(part);
        built.push_back(r.entry->factory(r.params));
        if (!built.back())
            throw std::logic_error("factory for '" + r.entry->name +
                                   "' returned null");
        if (!composite_name.empty())
            composite_name += "+";
        composite_name += r.entry->name;
    }

    if (built.size() == 1)
        return std::move(built.front());
    return std::make_unique<pf::CompositePrefetcher>(composite_name,
                                                     std::move(built));
}

std::unique_ptr<PrefetcherApi>
makePrefetcher(const std::string& spec)
{
    return PrefetcherRegistry::instance().make(spec);
}

std::vector<std::string>
prefetcherNames()
{
    return PrefetcherRegistry::instance().names();
}

} // namespace pythia::sim
