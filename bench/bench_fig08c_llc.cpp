/**
 * @file
 * Reproduces Fig. 8(c): geomean speedup while the LLC scales from 1/8x
 * to 2x of the baseline 2MB (single core).
 *
 * Paper shape: Pythia outperforms the baselines at every LLC size.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const std::vector<std::uint64_t> llc_sizes = {
        256ull << 10, 512ull << 10, 1ull << 20, 2ull << 20, 4ull << 20};
    const std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                                  "spp_ppf", "pythia"};
    const auto& workloads = bench::representativeWorkloads();

    harness::Runner runner;
    Table table("Fig.8(c) — geomean speedup vs LLC size (1C)");
    std::vector<std::string> header = {"llc_kb"};
    for (const auto& pf : prefetchers)
        header.push_back(pf);
    table.setHeader(header);

    harness::Sweep sweep;
    for (std::uint64_t llc : llc_sizes) {
        auto row = std::make_shared<std::vector<std::string>>(
            std::vector<std::string>{std::to_string(llc >> 10)});
        for (const auto& pf : prefetchers)
            bench::addGeomeanSpeedup(
                sweep, workloads, pf,
                [llc](harness::ExperimentSpec& s) {
                    s.llc_bytes_per_core = llc;
                },
                opt.sim_scale,
                [row](double g) { row->push_back(Table::fmt(g)); });
        sweep.then([&table, row] { table.addRow(*row); });
    }
    bench::runSweep(sweep, runner, opt);
    bench::finish(table, "fig08c_llc");
    return 0;
}
