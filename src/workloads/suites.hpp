/**
 * @file
 * Named workload catalog mirroring the paper's evaluation suites (§5.1,
 * Table 6): SPEC06, SPEC17, PARSEC, Ligra, Cloudsuite, plus the "unseen"
 * CVP-2-like suite of §6.4. Every entry is a thin alias: a paper-style
 * trace name mapped to a WorkloadRegistry spec string
 * (workloads/registry.hpp), so "482.sphinx3-417B" and raw specs like
 * "spatial:patterns=6,density=0.35" resolve through the same
 * construction path (see DESIGN.md §4 for the substitution rationale).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/registry.hpp"

namespace pythia::wl {

/** Catalog entry: a named, suite-tagged workload alias. */
struct WorkloadSpec
{
    std::string name;  ///< trace-style name, e.g. "482.sphinx3-417B"
    std::string suite; ///< SPEC06 | SPEC17 | PARSEC | Ligra | Cloudsuite
    /** Registry spec string the name resolves to (the full generator
     *  parameterization, with the catalog's intensity scaling baked
     *  in). Instantiate via makeWorkload(name), which adds the
     *  catalog's deterministic seed and paper-style display name. */
    std::string spec;
};

/** All workloads of the five main suites, in stable order. */
const std::vector<WorkloadSpec>& allWorkloads();

/** The held-out "unseen traces" suite (crypto / INT / FP / server). */
const std::vector<WorkloadSpec>& unseenWorkloads();

/** Names of the five main suites, in paper order. */
const std::vector<std::string>& suiteNames();

/** Workloads belonging to @p suite (subset of allWorkloads()). */
std::vector<const WorkloadSpec*> suiteWorkloads(const std::string& suite);

/** Catalog entry for @p name (main + unseen), or nullptr. */
const WorkloadSpec* findWorkload(const std::string& name);

/**
 * Instantiate a workload by catalog name or registry spec string
 * ("482.sphinx3-417B", "stream:streams=2,mem_ratio=0.4",
 * "trace:file=foo.bin", "phase:stream@40+graph@60"). @p seed_override
 * of 0 keeps the deterministic default seed (derived from the catalog
 * name, or from the canonical spec spelling for raw specs).
 * @throws std::invalid_argument for unknown names, with "did you mean"
 * hints over catalog names and registry families.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed_override = 0);

/**
 * Canonical spelling of a workload name: catalog names map to
 * themselves, valid registry specs to their canonical form (sorted
 * key=value order), anything else to the input unchanged (it will fail
 * at makeWorkload time anyway). Total — never throws. Used by
 * Runner::baselineKey so parameter spelling order cannot split the
 * baseline cache.
 */
std::string canonicalWorkloadSpec(const std::string& name);

} // namespace pythia::wl
