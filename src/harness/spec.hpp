/**
 * @file
 * ExperimentSpec — everything that defines one simulation run.
 *
 * Lives in its own header so the streaming session layer
 * (harness/session.hpp) and the batch runner (harness/runner.hpp) can
 * both depend on it without a cycle. Field-by-field documentation,
 * including the zero-means-default conventions, is in the README's
 * "ExperimentSpec reference" table.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pythia::harness {

/**
 * Everything that defines one simulation run. Prefetchers are named by
 * registry spec strings (sim/prefetcher_registry.hpp) — parameterized
 * ("spp:max_lookahead=4", "pythia:gamma=0.5") and composed
 * ("stride+spp+bingo") specs included. Workloads (and mix entries) are
 * workload specs too (workloads/suites.hpp): catalog names
 * ("482.sphinx3-417B") or registry spec strings
 * ("stream:streams=2,mem_ratio=0.4", "trace:file=foo.bin",
 * "phase:stream@40+graph@60").
 *
 * A plain aggregate: write it with designated initializers, naming
 * only the fields that differ from the defaults,
 *
 *     harness::ExperimentSpec spec{.workload = "Ligra-PageRank",
 *                                  .prefetcher = "pythia:gamma=0.5",
 *                                  .num_cores = 4};
 *
 * or assign fields one by one. Every member has a default member
 * initializer, so omitting one is never a -Wmissing-field-initializers
 * warning.
 */
struct ExperimentSpec
{
    std::string workload{};             ///< workload spec (ignored if mix set)
    std::vector<std::string> mix{};     ///< heterogeneous multi-core mix
    std::string prefetcher = "none";    ///< L2 prefetcher spec
    std::string l1_prefetcher = "none"; ///< L1 prefetcher spec (multi-level)
    std::uint32_t num_cores = 1;
    std::uint32_t mtps = 2400;
    std::uint64_t llc_bytes_per_core = 2ull << 20;
    std::uint64_t warmup_instrs = 100'000;
    std::uint64_t sim_instrs = 300'000;
    std::uint64_t workload_seed = 0; ///< 0 = catalog default

    /** The spec as shard Job and serve Hello frames carry it. */
    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.workload, self.mix, self.prefetcher, self.l1_prefetcher,
           self.num_cores, self.mtps, self.llc_bytes_per_core,
           self.warmup_instrs, self.sim_instrs, self.workload_seed);
    }
};

/** Multiply both simulation windows of @p spec by @p factor, truncating
 *  (bounds multi-core sweeps); the product truncates, so 1.0/3 of
 *  200000 is 66666. */
inline void
scaleWindows(ExperimentSpec& spec, double factor)
{
    spec.warmup_instrs = static_cast<std::uint64_t>(
        static_cast<double>(spec.warmup_instrs) * factor);
    spec.sim_instrs = static_cast<std::uint64_t>(
        static_cast<double>(spec.sim_instrs) * factor);
}

} // namespace pythia::harness
