/**
 * @file
 * Parallel sweep quickstart: declare a multi-axis experiment grid
 * (workloads x prefetchers x DRAM bandwidth points) as a harness::Sweep
 * and execute it on a ParallelRunner worker pool.
 *
 * Each job's callback fires on the main thread, in declaration order,
 * after the pool drains — so building the result table needs no locks
 * and the output is identical for any jobs=<n>. The Runner's baseline
 * cache is shared by all workers: the no-prefetching run of each
 * (workload, mtps) machine point is simulated exactly once, however
 * many prefetchers are measured against it concurrently.
 *
 * Usage: parallel_sweep [jobs=<n>]     (0 = hardware concurrency)
 */
#include <iostream>

#include "common/params.hpp"
#include "common/table.hpp"
#include "harness/sweep.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    unsigned jobs = 0;
    try {
        jobs = SpecParams::fromArgs(argc, argv, {"jobs"})
                   .getU32("jobs", 0, kMaxParallelism);
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    const std::vector<std::string> workloads = {"462.libquantum-1343B",
                                                "429.mcf-184B",
                                                "Ligra-PageRank"};
    const std::vector<std::string> prefetchers = {"spp", "bingo",
                                                  "pythia"};
    const std::vector<std::uint32_t> mtps_points = {300, 2400};

    Table table("Speedup across workload x prefetcher x DRAM MTPS");
    table.setHeader({"workload", "mtps", "prefetcher", "speedup",
                     "coverage"});

    // Declare the full cartesian product up front; nothing runs yet.
    harness::Sweep sweep;
    for (const auto& w : workloads)
        for (std::uint32_t mtps : mtps_points)
            for (const auto& pf : prefetchers)
                sweep.add({.workload = w,
                           .prefetcher = pf,
                           .mtps = mtps,
                           .warmup_instrs = 30'000,
                           .sim_instrs = 80'000},
                          [&table, w, mtps,
                           pf](const harness::Runner::Outcome& o) {
                              table.addRow(
                                  {w, std::to_string(mtps), pf,
                                   Table::fmt(o.metrics.speedup),
                                   Table::pct(o.metrics.coverage)});
                          });

    harness::Runner runner;
    harness::ParallelRunner pool(jobs);
    pool.run(runner, sweep);

    table.print();
    const auto& r = pool.lastReport();
    std::cout << "\n" << r.experiments << " experiments on " << r.jobs
              << " worker(s); " << runner.baselinesComputed()
              << " distinct baselines simulated (one per workload x "
                 "machine point, never per prefetcher).\n";
    return 0;
}
