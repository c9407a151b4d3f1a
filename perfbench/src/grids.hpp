/**
 * @file
 * The simulation grids of the sim_1c and sweep_4c_lowbw workloads, the
 * in-process cell runner both traced runs use, and the result digests
 * the output checks compare against the kept references.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/spec.hpp"
#include "sim/system.hpp"
#include "trace.hpp"

namespace perfbench {

/** sim_1c: one representative catalog workload per pattern class ×
 *  {none, pythia, spp, bingo}. The none cells are the baselines. */
std::vector<pythia::harness::ExperimentSpec>
sim1cGrid(std::uint64_t workload_seed);

/** sweep_4c_lowbw: the Fig. 10 four-core homogeneous picks plus one
 *  heterogeneous mix × {none, spp, bingo, pythia}, on a DRAM bus
 *  slowed below the 2400 MT/s default. */
std::vector<pythia::harness::ExperimentSpec>
sweep4cGrid(std::uint64_t workload_seed);

/** DRAM transfer rate of sweep_4c_lowbw (the default is 2400). */
inline constexpr std::uint32_t kLowBwMtps = 600;

/** FNV-1a of a RunResult's wire encoding: equal digests mean
 *  bit-identical results (IPC, miss and prefetch counters, DRAM
 *  buckets). */
std::uint64_t digest(const pythia::sim::RunResult& r);

/** Digest of a sweep job: the run and its no-prefetch baseline. */
std::uint64_t digest(const pythia::harness::Runner::Outcome& o);

/** Leaf timers a traced cell charges its per-access calls to. */
struct CellTimers
{
    LayerTimer* next = nullptr;     ///< Workload::next
    LayerTimer* train = nullptr;    ///< PrefetcherApi::train
    LayerTimer* feedback = nullptr; ///< onFill/onPrefetchUsed/Evicted
};

/** Simulated counters of one cell's measured phase, summed over
 *  cores, read from the Cache and Dram stats. */
struct CellCounters
{
    std::uint64_t instructions = 0; ///< retired in the measured run
    std::uint64_t l2_misses = 0;    ///< demand load + store misses
    std::uint64_t llc_misses = 0;   ///< demand load + store misses
    std::uint64_t llc_mshr_stalls = 0;
    std::uint64_t dram_row_hits = 0;
    std::uint64_t dram_row_misses = 0;
};

struct CellOutcome
{
    pythia::sim::RunResult result;
    CellCounters counters;
    double seconds = 0.0; ///< construct + warmup + run
};

/**
 * Run one cell in process: harness::workloadsFor + harness::
 * systemConfigFor + sim::System, the spec's prefetchers attached, then
 * warmup and one measured run — the path harness::simulate takes.
 * With @p tracer set, the workloads and the L2 prefetcher are wrapped
 * in timing decorators charging @p timers, and the cell records the
 * spans cell > sim.construct, sim.warmup, sim.run under id @p id.
 */
CellOutcome runCell(const pythia::harness::ExperimentSpec& spec,
                    std::uint64_t id, Tracer* tracer = nullptr,
                    const CellTimers& timers = {});

/** Simulated instructions of @p spec: warmup + measured, all cores. */
inline std::uint64_t
simulatedInstrs(const pythia::harness::ExperimentSpec& spec)
{
    return (spec.warmup_instrs + spec.sim_instrs) * spec.num_cores;
}

} // namespace perfbench
