/**
 * @file
 * Self-registering workload construction API: every generator family's
 * translation unit drops a static WorkloadRegistrar into the registry
 * at load time, declaring its family name, its config (whose knobs
 * list gives the keys, defaults and range rules; common/knobs.hpp) and
 * a factory from (config, seed, name). Lookup and key validation
 * are the shared pythia::Registry (common/registry.hpp), the one the
 * prefetchers use. Construction goes through parameterized spec
 * strings (common/spec.hpp grammar, single part):
 *
 *     wl::WorkloadRegistry::instance().make("stream", seed)
 *     ... make("stream:streams=2,mem_ratio=0.4", seed)
 *     ... make("irregular:dep_ratio=0.9", seed)
 *     ... make("trace:file=foo.bin", seed)          // binary replay
 *     ... make("phase:stream@40+graph@60", seed)    // phase composite
 *
 * The phase-composite form rotates through its '+'-separated children,
 * each optionally suffixed with "@<records>" (records emitted per phase;
 * default 20000). Children are full single-part specs — parameters
 * compose ("phase:stream:streams=2@40+graph@60") — and child i derives
 * its seed as mix64(seed ^ (i+1)), exactly like the catalog's
 * Cloudsuite-style mixes, so catalog aliases resolve bit-identically.
 *
 * Catalog names ("482.sphinx3-417B") are resolved by wl::makeWorkload
 * (workloads/suites.hpp), which first consults the catalog's alias
 * table and then falls back to this registry, so paper-style names and
 * raw specs coexist everywhere a workload is named. Errors carry
 * "did you mean" hints for misspelled family or parameter names.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "workloads/trace.hpp"

namespace pythia::wl {

/**
 * Factory from parsed parameters to a live workload. @p seed is the
 * construction seed (never 0-means-default at this layer; resolution
 * happens in wl::makeWorkload) and @p name the display name the
 * instance must report — catalog aliases pass their paper-style name,
 * raw specs their canonical spelling.
 */
using WorkloadFactory = std::function<std::unique_ptr<Workload>(
    const SpecParams&, std::uint64_t seed, const std::string& name)>;

/**
 * The process-wide workload registry. Its entries are generator
 * families; the "phase" composite form is grammar, not a family, and is
 * resolved by make() itself, one registry lookup per child.
 */
class WorkloadRegistry : public Registry<WorkloadFactory>
{
  public:
    static WorkloadRegistry& instance();

    /**
     * Resolve @p spec into a workload seeded with @p seed. When
     * @p name_override is non-empty the instance reports it as its
     * name() (catalog aliases keep their paper-style spelling);
     * otherwise the canonical spec string is used.
     * @throws std::invalid_argument for unknown families, unknown or
     * ill-typed parameters and malformed specs, with actionable
     * messages ("did you mean").
     */
    std::unique_ptr<Workload> make(const std::string& spec,
                                   std::uint64_t seed,
                                   const std::string& name_override =
                                       "") const;

    /**
     * Canonical spelling of @p spec: lowercase family, parameters in
     * sorted key order, whitespace dropped; phase children canonicalize
     * recursively (child order and phase lengths are semantic and kept).
     * Validates the spec (unknown families / parameters throw), so two
     * strings canonicalizing equal construct identical workloads for
     * equal seeds. Used by Runner::baselineKey so spec spelling cannot
     * split the baseline cache.
     */
    std::string canonical(const std::string& spec) const;

  private:
    WorkloadRegistry() : Registry("workload family", "families", {"phase"})
    {
    }

    struct PhasePart; // parsed phase child (spec + phase length)

    /** Single-part resolution (no phase form), shared by make() and
     *  canonical() so the two can never diverge on what they accept. */
    Resolved resolveOne(const std::string& spec) const;
    std::unique_ptr<Workload> makeOne(const std::string& spec,
                                      std::uint64_t seed,
                                      const std::string& name) const;
    std::string canonicalOne(const std::string& spec) const;
    std::vector<PhasePart> parsePhase(const std::string& spec) const;
};

using WorkloadRegistrar = Registrar<WorkloadRegistry>;

/** All registered family names, sorted (includes "phase"). */
std::vector<std::string> workloadFamilyNames();

} // namespace pythia::wl
