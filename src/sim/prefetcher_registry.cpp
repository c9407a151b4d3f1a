#include "sim/prefetcher_registry.hpp"

#include <mutex>
#include <stdexcept>

#include "common/spec.hpp"

namespace pythia::sim {

// ------------------------------------------------------ PrefetcherRegistry

PrefetcherRegistry&
PrefetcherRegistry::instance()
{
    static PrefetcherRegistry registry;
    return registry;
}

void
PrefetcherRegistry::add(PrefetcherEntry entry)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (!entries_.emplace(entry.name, entry).second)
        throw std::logic_error("duplicate prefetcher registration: " +
                               entry.name);
}

void
PrefetcherRegistry::setComposer(Composer composer)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    composer_ = std::move(composer);
}

std::vector<std::string>
PrefetcherRegistry::namesLocked() const
{
    std::vector<std::string> out;
    for (const auto& [name, entry] : entries_)
        out.push_back(name);
    return out;
}

std::vector<std::string>
PrefetcherRegistry::names() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return namesLocked();
}

const PrefetcherEntry*
PrefetcherRegistry::findLocked(const std::string& name) const
{
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
}

const PrefetcherEntry*
PrefetcherRegistry::find(const std::string& name) const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return findLocked(name);
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
        const PrefetcherEntry* entry = find(part.name);
        if (!entry) {
            if (part.name == "none")
                throw std::invalid_argument(
                    "'none' cannot appear in a composition: " + spec);
            throw std::invalid_argument(
                "unknown prefetcher '" + part.name + "'" +
                didYouMean(part.name, names()) +
                " (known: " + joinKeys(names(), "(none)") + ")");
        }

        built.push_back(entry->factory(
            PrefetcherParams(entry->name, part.params, entry->param_keys)));
        if (!built.back())
            throw std::logic_error("factory for '" + entry->name +
                                   "' returned null");
        if (!composite_name.empty())
            composite_name += "+";
        composite_name += entry->name;
    }

    if (built.size() == 1)
        return std::move(built.front());
    // Copy the hook under the lock, invoke it outside: stack-alias
    // factories re-enter make(), so no lock may be held across any
    // factory or composer call (find()/names() above lock internally
    // and return pointers that stay valid — entries are never erased).
    Composer composer;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        composer = composer_;
    }
    if (!composer)
        throw std::logic_error(
            "no composition hook installed for spec: " + spec);
    return composer(composite_name, std::move(built));
}

// ---------------------------------------------------------- entry points

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
