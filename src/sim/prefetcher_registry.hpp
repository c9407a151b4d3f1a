/**
 * @file
 * Self-registering prefetcher construction API.
 *
 * Every prefetcher translation unit drops a static PrefetcherRegistrar
 * into the registry at load time, declaring its name, its config (whose
 * knobs list gives the tunable keys; common/knobs.hpp) and a factory
 * from the parsed config. Construction goes
 * through parameterized spec strings (common/spec.hpp):
 *
 *     sim::makePrefetcher("spp")
 *     sim::makePrefetcher("spp:max_lookahead=4")
 *     sim::makePrefetcher("pythia:alpha=0.006,gamma=0.55")
 *     sim::makePrefetcher("stride+spp+bingo")   // composite
 *
 * Lookup, key validation and the "did you mean" hints are the shared
 * pythia::Registry (common/registry.hpp); this layer adds only the
 * prefetcher grammar: "none" (no prefetcher) and '+' composition into
 * a pf::CompositePrefetcher.
 *
 * This is the customization surface the paper argues for (§6.6): any
 * prefetcher's knobs can be retuned per run, with no recompilation.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "sim/prefetcher_api.hpp"

namespace pythia::sim {

/** Factory from parsed parameters to a live prefetcher. */
using PrefetcherFactory =
    std::function<std::unique_ptr<PrefetcherApi>(const SpecParams&)>;

/** The process-wide prefetcher registry. */
class PrefetcherRegistry : public Registry<PrefetcherFactory>
{
  public:
    static PrefetcherRegistry& instance();

    /**
     * Resolve @p spec (see common/spec.hpp for the grammar) into a
     * prefetcher. Returns nullptr for "none" or an empty spec; a
     * composition "a+b" builds a pf::CompositePrefetcher.
     * @throws std::invalid_argument for unknown names, unknown or
     * ill-typed parameters and malformed specs, with actionable
     * messages ("did you mean").
     */
    std::unique_ptr<PrefetcherApi> make(const std::string& spec) const;

  private:
    PrefetcherRegistry() : Registry("prefetcher", "known") {}
};

using PrefetcherEntry = PrefetcherRegistry::Entry;
using PrefetcherRegistrar = Registrar<PrefetcherRegistry>;

/** The registrar of @p name: prefetcher Pf, built from a spec's
 *  parameters parsed over @p base. */
template <class Pf, class Config>
PrefetcherRegistrar
registerPrefetcher(std::string name, Config base)
{
    return {std::move(name), std::move(base),
            [](const Config& c) { return std::make_unique<Pf>(c); }};
}

/** The one construction entry point: resolve a spec string. */
std::unique_ptr<PrefetcherApi> makePrefetcher(const std::string& spec);

/** All registered prefetcher names, sorted (excluding "none"). */
std::vector<std::string> prefetcherNames();

} // namespace pythia::sim
