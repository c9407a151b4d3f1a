#include "grids.hpp"

#include "decorators.hpp"
#include "harness/session.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace perfbench {

using pythia::harness::ExperimentSpec;

namespace {

// Budgets are the benchmark's input size: small enough that a run of
// a few seconds covers the grid several times, large enough that every
// prefetcher has trained past warmup.
constexpr std::uint64_t k1cWarmup = 20'000;
constexpr std::uint64_t k1cSim = 60'000;
constexpr std::uint64_t k4cWarmup = 5'000;
constexpr std::uint64_t k4cSim = 15'000;

} // namespace

std::vector<ExperimentSpec>
sim1cGrid(std::uint64_t workload_seed)
{
    // bench::representativeWorkloads(): one per pattern class.
    static const char* const kWorkloads[] = {
        "462.libquantum-1343B", "459.GemsFDTD-765B", "482.sphinx3-417B",
        "429.mcf-184B",         "PARSEC-Canneal",    "Ligra-PageRank",
        "Ligra-CC",             "Cloudsuite-Cassandra",
    };
    std::vector<ExperimentSpec> grid;
    for (const char* w : kWorkloads)
        for (const char* pf : {"none", "pythia", "spp", "bingo"}) {
            ExperimentSpec s;
            s.workload = w;
            s.prefetcher = pf;
            s.warmup_instrs = k1cWarmup;
            s.sim_instrs = k1cSim;
            s.workload_seed = workload_seed;
            grid.push_back(s);
        }
    return grid;
}

std::vector<ExperimentSpec>
sweep4cGrid(std::uint64_t workload_seed)
{
    // bench_fig10_fourcore's picks and heterogeneous mix.
    static const char* const kPicks[] = {
        "459.GemsFDTD-765B", "482.sphinx3-417B", "605.mcf_s-665B",
        "PARSEC-Canneal",    "Ligra-PageRank",   "Cloudsuite-Cassandra",
    };
    std::vector<ExperimentSpec> rows;
    for (const char* w : kPicks) {
        ExperimentSpec s;
        s.workload = w;
        rows.push_back(s);
    }
    ExperimentSpec mix;
    mix.mix = {"462.libquantum-1343B", "429.mcf-184B", "PARSEC-Canneal",
               "Ligra-CC"};
    rows.push_back(mix);

    std::vector<ExperimentSpec> grid;
    for (const ExperimentSpec& row : rows)
        for (const char* pf : {"none", "spp", "bingo", "pythia"}) {
            ExperimentSpec s = row;
            s.prefetcher = pf;
            s.num_cores = 4;
            s.mtps = kLowBwMtps;
            s.warmup_instrs = k4cWarmup;
            s.sim_instrs = k4cSim;
            s.workload_seed = workload_seed;
            grid.push_back(s);
        }
    return grid;
}

std::uint64_t
digest(const pythia::sim::RunResult& r)
{
    pythia::snap::Writer w;
    pythia::harness::writeRunResult(w, r);
    return pythia::snap::fnv1a(w.buffer().data(), w.buffer().size());
}

std::uint64_t
digest(const pythia::harness::Runner::Outcome& o)
{
    pythia::snap::Writer w;
    pythia::harness::writeRunResult(w, o.run);
    pythia::harness::writeRunResult(w, o.baseline);
    return pythia::snap::fnv1a(w.buffer().data(), w.buffer().size());
}

CellOutcome
runCell(const ExperimentSpec& spec, std::uint64_t id, Tracer* tracer,
        const CellTimers& timers)
{
    using namespace pythia;
    CellOutcome out;
    const std::int64_t t0 = nowNs();
    ScopedSpan cell(tracer, "cell", id);

    std::unique_ptr<sim::System> sys;
    {
        ScopedSpan construct(tracer, "sim.construct", id);
        auto workloads = harness::workloadsFor(spec);
        if (tracer)
            for (auto& w : workloads)
                w = std::make_unique<TimedWorkload>(std::move(w),
                                                    timers.next);
        sys = std::make_unique<sim::System>(harness::systemConfigFor(spec),
                                            std::move(workloads));
        for (std::uint32_t c = 0; c < spec.num_cores; ++c) {
            if (auto l2 = sim::makePrefetcher(spec.prefetcher)) {
                if (tracer)
                    l2 = std::make_unique<TimedPrefetcher>(
                        std::move(l2), timers.train, timers.feedback);
                sys->attachL2Prefetcher(c, std::move(l2));
            }
            if (auto l1 = sim::makePrefetcher(spec.l1_prefetcher))
                sys->attachL1Prefetcher(c, std::move(l1));
        }
    }
    {
        ScopedSpan warmup(tracer, "sim.warmup", id);
        sys->warmup(spec.warmup_instrs);
    }
    std::uint64_t retired_before = 0;
    for (std::uint32_t c = 0; c < spec.num_cores; ++c)
        retired_before += sys->core(c).instrsRetired();
    {
        ScopedSpan run(tracer, "sim.run", id);
        out.result = sys->run(spec.sim_instrs);
    }

    CellCounters& k = out.counters;
    // Cores that reach their budget keep running until the slowest one
    // does, and the cache statistics count that work too.
    for (std::uint32_t c = 0; c < spec.num_cores; ++c)
        k.instructions += sys->core(c).instrsRetired();
    k.instructions -= retired_before;
    for (std::uint32_t c = 0; c < spec.num_cores; ++c)
        k.l2_misses += sys->l2(c).stats().counter("demand_load_miss") +
                       sys->l2(c).stats().counter("demand_store_miss");
    k.llc_misses = sys->llc().stats().counter("demand_load_miss") +
                   sys->llc().stats().counter("demand_store_miss");
    k.llc_mshr_stalls = sys->llc().stats().counter("mshr_stalls");
    k.dram_row_hits = sys->dram().stats().counter("row_hits");
    k.dram_row_misses = sys->dram().stats().counter("row_misses");
    out.seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    return out;
}

} // namespace perfbench
