/**
 * @file
 * Reproduces Fig. 21 (Appendix B.4): Pythia versus the hardware-context
 * contextual-bandit prefetcher CP-HW, per suite, single- and four-core.
 *
 * Paper shape: far-sighted SARSA-based Pythia beats the myopic bandit
 * in both configurations.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    harness::Runner runner;

    for (std::uint32_t cores : {1u, 4u}) {
        Table table("Fig.21 — CP-HW vs Pythia (" +
                    std::to_string(cores) + "C)");
        table.setHeader({"suite", "cp_hw", "pythia"});
        auto g_cp = std::make_shared<std::vector<double>>();
        auto g_py = std::make_shared<std::vector<double>>();
        harness::Sweep sweep;
        for (const auto& suite : wl::suiteNames()) {
            std::vector<std::string> names;
            for (const auto* w : wl::suiteWorkloads(suite))
                names.push_back(w->name);
            auto tweak = [cores](harness::ExperimentSpec& s) {
                s.num_cores = cores;
                if (cores > 1)
                    harness::scaleWindows(s, 0.5);
            };
            // 4C: use the first two workloads per suite to bound cost.
            if (cores > 1 && names.size() > 2)
                names.resize(2);
            auto cp = std::make_shared<double>(0.0);
            auto py = std::make_shared<double>(0.0);
            bench::addGeomeanSpeedup(sweep, names, "cp_hw", tweak,
                                     opt.sim_scale,
                                     [cp](double g) { *cp = g; });
            bench::addGeomeanSpeedup(sweep, names, "pythia", tweak,
                                     opt.sim_scale,
                                     [py](double g) { *py = g; });
            sweep.then([&table, g_cp, g_py, cp, py, suite] {
                g_cp->push_back(*cp);
                g_py->push_back(*py);
                table.addRow({suite, Table::fmt(*cp), Table::fmt(*py)});
            });
        }
        bench::runSweep(sweep, runner, opt);
        table.addRow({"GEOMEAN", Table::fmt(geomean(*g_cp)),
                      Table::fmt(geomean(*g_py))});
        bench::finish(table,
                      "fig21_cphw_" + std::to_string(cores) + "c");
    }
    return 0;
}
