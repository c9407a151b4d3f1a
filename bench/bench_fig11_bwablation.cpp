/**
 * @file
 * Reproduces Fig. 11: performance of the memory-bandwidth-oblivious
 * Pythia (both R_IN and both R_NP levels collapsed) normalized to basic
 * Pythia across the DRAM bandwidth sweep.
 *
 * Paper shape: the oblivious variant loses several percent at low MTPS
 * and converges to parity as bandwidth becomes plentiful.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const std::vector<std::uint32_t> mtps_points = {150, 300,  600, 1200,
                                                    2400, 4800, 9600};
    const auto& workloads = bench::representativeWorkloads();

    harness::Runner runner;
    Table table("Fig.11 — BW-oblivious Pythia normalized to basic");
    table.setHeader({"mtps", "basic", "bw_oblivious", "delta"});
    harness::Sweep sweep;
    for (std::uint32_t mtps : mtps_points) {
        auto set_mtps = [mtps](harness::ExperimentSpec& s) {
            s.mtps = mtps;
        };
        auto basic = std::make_shared<double>(0.0);
        auto oblivious = std::make_shared<double>(0.0);
        bench::addGeomeanSpeedup(sweep, workloads, "pythia", set_mtps,
                                 opt.sim_scale,
                                 [basic](double g) { *basic = g; });
        bench::addGeomeanSpeedup(sweep, workloads, "pythia_bwobl",
                                 set_mtps, opt.sim_scale,
                                 [oblivious](double g) {
                                     *oblivious = g;
                                 });
        sweep.then([&table, mtps, basic, oblivious] {
            table.addRow({std::to_string(mtps), Table::fmt(*basic),
                          Table::fmt(*oblivious),
                          Table::pct(*oblivious / *basic - 1.0)});
        });
    }
    bench::runSweep(sweep, runner, opt);
    bench::finish(table, "fig11_bwablation");
    return 0;
}
