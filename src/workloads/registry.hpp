/**
 * @file
 * Self-registering workload construction API, mirroring
 * sim::PrefetcherRegistry: every generator family's translation unit
 * drops a static WorkloadRegistrar into the registry at load time,
 * declaring its family name, its tunable parameter keys and a factory
 * from (params, seed, name). Construction goes through parameterized
 * spec strings (common/spec.hpp grammar, single part):
 *
 *     wl::WorkloadRegistry::instance().make("stream", seed)
 *     ... make("stream:footprint=256M,mem_ratio=0.4", seed)
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
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "workloads/trace.hpp"

namespace pythia::wl {

/** Typed view over a workload spec's key=value parameters — the shared
 *  pythia::SpecParams (common/params.hpp). */
using WorkloadParams = SpecParams;

/**
 * Factory from parsed parameters to a live workload. @p seed is the
 * construction seed (never 0-means-default at this layer; resolution
 * happens in wl::makeWorkload) and @p name the display name the
 * instance must report — catalog aliases pass their paper-style name,
 * raw specs their canonical spelling.
 */
using WorkloadFactory = std::function<std::unique_ptr<Workload>(
    const WorkloadParams&, std::uint64_t seed, const std::string& name)>;

/** One registry entry: a generator family. */
struct WorkloadFamily
{
    std::string name;        ///< family name (lowercase), e.g. "stream"
    std::string description; ///< one-line help text
    /** Parameter keys the factory accepts; anything else is rejected
     *  with a did-you-mean hint before the factory runs. */
    std::vector<std::string> param_keys;
    WorkloadFactory factory;
};

/**
 * Process-wide workload registry. Populated by static registrars; the
 * "phase" composite form is resolved by make() itself (it is grammar,
 * not a family), re-entering make() per child.
 *
 * Thread-safe with the same discipline as PrefetcherRegistry:
 * registration happens during static initialization, but make() /
 * names() / find() are called from sweep worker threads and take a
 * shared lock. No lock is held across factory calls. Pointers returned
 * by find() stay valid for the process lifetime — entries are never
 * removed.
 */
class WorkloadRegistry
{
  public:
    static WorkloadRegistry& instance();

    /** Register a family. @throws std::logic_error on duplicates. */
    void add(WorkloadFamily family);

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

    /** All registered family names, sorted, plus "phase". */
    std::vector<std::string> names() const;

    /** Entry for @p family, or nullptr when unknown. */
    const WorkloadFamily* find(const std::string& family) const;

  private:
    WorkloadRegistry() = default;

    struct PhasePart; // parsed phase child (spec + phase length)

    /** A parsed, validated single-part spec: its family entry and its
     *  params (sorted, last assignment wins). Shared by make()
     *  and canonical() so the two can never diverge on what they
     *  accept. */
    struct Resolved
    {
        const WorkloadFamily* family = nullptr;
        WorkloadParams params;
    };

    const WorkloadFamily* findLocked(const std::string& family) const;
    std::vector<std::string> namesLocked() const;

    /** Single-part resolution (no phase form). */
    Resolved resolveOne(const std::string& spec) const;
    std::unique_ptr<Workload> makeOne(const std::string& spec,
                                      std::uint64_t seed,
                                      const std::string& name) const;
    std::string canonicalOne(const std::string& spec) const;
    std::vector<PhasePart> parsePhase(const std::string& spec) const;

    mutable std::shared_mutex mutex_;
    std::map<std::string, WorkloadFamily> entries_;
};

/** Static registrar: file-scope instances self-register a family. */
struct WorkloadRegistrar
{
    WorkloadRegistrar(std::string name, std::string description,
                      std::vector<std::string> param_keys,
                      WorkloadFactory factory)
    {
        WorkloadRegistry::instance().add(
            {std::move(name), std::move(description),
             std::move(param_keys), std::move(factory)});
    }
};

/** All registered family names, sorted (includes "phase"). */
std::vector<std::string> workloadFamilyNames();

} // namespace pythia::wl
