/**
 * @file
 * Reproduces Fig. 8(a): geomean speedup of SPP, Bingo, MLOP, SPP+PPF and
 * Pythia as the core count scales from 1 to 12, with the paper's DRAM
 * channel scaling (1-2C: one channel, 4-6C: two, 8-12C: four).
 *
 * Paper shape: Pythia's margin over the overpredicting baselines grows
 * with core count (shared-bandwidth contention).
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const std::vector<std::uint32_t> core_counts = {1, 2, 4, 8, 12};
    const std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                                  "spp_ppf", "pythia"};
    // Multi-core sweeps are expensive; use the representative set.
    const auto& workloads = bench::representativeWorkloads();

    harness::Runner runner;
    Table table("Fig.8(a) — geomean speedup vs core count");
    std::vector<std::string> header = {"cores"};
    for (const auto& pf : prefetchers)
        header.push_back(pf);
    table.setHeader(header);

    harness::Sweep sweep;
    for (std::uint32_t cores : core_counts) {
        auto row = std::make_shared<std::vector<std::string>>(
            std::vector<std::string>{std::to_string(cores)});
        for (const auto& pf : prefetchers)
            bench::addGeomeanSpeedup(
                sweep, workloads, pf,
                [cores](harness::ExperimentSpec& s) {
                    s.num_cores = cores;
                    // Keep total simulated work bounded.
                    if (cores > 2)
                        harness::scaleWindows(s, 1.0 / 3);
                },
                opt.sim_scale,
                [row](double g) { row->push_back(Table::fmt(g)); });
        sweep.then([&table, row] { table.addRow(*row); });
    }
    bench::runSweep(sweep, runner, opt);
    bench::finish(table, "fig08a_cores");
    return 0;
}
