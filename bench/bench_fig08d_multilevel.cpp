/**
 * @file
 * Reproduces Fig. 8(d): multi-level prefetching schemes under DRAM
 * bandwidth scaling — stride(L1)+streamer(L2) as in commercial parts,
 * IPCP, and stride(L1)+Pythia(L2).
 *
 * Paper shape: Stride+Pythia leads at every bandwidth point, with the
 * largest margin in the most constrained configuration.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const std::vector<std::uint32_t> mtps_points = {150, 300,  600, 1200,
                                                    2400, 4800, 9600};
    struct Scheme
    {
        const char* label;
        const char* l1;
        const char* l2;
    };
    const std::vector<Scheme> schemes = {
        {"stride+streamer", "stride", "streamer"},
        {"ipcp", "none", "ipcp"},
        {"stride+pythia", "stride", "pythia"},
    };
    const auto& workloads = bench::representativeWorkloads();

    harness::Runner runner;
    Table table("Fig.8(d) — multi-level schemes vs DRAM MTPS (1C)");
    std::vector<std::string> header = {"mtps"};
    for (const auto& s : schemes)
        header.push_back(s.label);
    table.setHeader(header);

    harness::Sweep sweep;
    for (std::uint32_t mtps : mtps_points) {
        auto row = std::make_shared<std::vector<std::string>>(
            std::vector<std::string>{std::to_string(mtps)});
        for (const auto& scheme : schemes) {
            const std::string l1 = scheme.l1;
            bench::addGeomeanSpeedup(
                sweep, workloads, scheme.l2,
                [mtps, l1](harness::ExperimentSpec& s) {
                    s.mtps = mtps;
                    s.l1_prefetcher = l1;
                },
                opt.sim_scale,
                [row](double g) { row->push_back(Table::fmt(g)); });
        }
        sweep.then([&table, row] { table.addRow(*row); });
    }
    bench::runSweep(sweep, runner, opt);
    bench::finish(table, "fig08d_multilevel");
    return 0;
}
