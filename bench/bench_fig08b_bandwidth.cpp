/**
 * @file
 * Reproduces Fig. 8(b): geomean speedup under DRAM bandwidth scaling
 * from 150 to 9600 MTPS in the single-core system.
 *
 * Paper shape: MLOP/Bingo gains shrink sharply as bandwidth drops (their
 * overpredictions waste a scarce resource) while Pythia stays ahead in
 * the most constrained configurations.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const std::vector<std::uint32_t> mtps_points = {150, 300,  600, 1200,
                                                    2400, 4800, 9600};
    const std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                                  "spp_ppf", "pythia"};
    const auto& workloads = bench::representativeWorkloads();

    harness::Runner runner;
    Table table("Fig.8(b) — geomean speedup vs DRAM MTPS (1C)");
    std::vector<std::string> header = {"mtps"};
    for (const auto& pf : prefetchers)
        header.push_back(pf);
    table.setHeader(header);

    harness::Sweep sweep;
    for (std::uint32_t mtps : mtps_points) {
        auto row = std::make_shared<std::vector<std::string>>(
            std::vector<std::string>{std::to_string(mtps)});
        for (const auto& pf : prefetchers)
            bench::addGeomeanSpeedup(
                sweep, workloads, pf,
                [mtps](harness::ExperimentSpec& s) { s.mtps = mtps; },
                opt.sim_scale,
                [row](double g) { row->push_back(Table::fmt(g)); });
        sweep.then([&table, row] { table.addRow(*row); });
    }
    bench::runSweep(sweep, runner, opt);
    bench::finish(table, "fig08b_bandwidth");
    return 0;
}
