/**
 * @file
 * Reproduces Fig. 22 (Appendix B.5): Pythia versus the IBM POWER7-style
 * adaptive stream prefetcher, per suite, single- and four-core.
 *
 * Paper shape: Pythia wins because it captures pattern classes beyond
 * streams/strides, and its margin grows with core count (it adapts
 * faster than the epoch-based control loop).
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    harness::Runner runner;

    for (std::uint32_t cores : {1u, 4u}) {
        Table table("Fig.22 — POWER7-style vs Pythia (" +
                    std::to_string(cores) + "C)");
        table.setHeader({"suite", "power7", "pythia"});
        auto g_p7 = std::make_shared<std::vector<double>>();
        auto g_py = std::make_shared<std::vector<double>>();
        harness::Sweep sweep;
        for (const auto& suite : wl::suiteNames()) {
            std::vector<std::string> names;
            for (const auto* w : wl::suiteWorkloads(suite))
                names.push_back(w->name);
            if (cores > 1 && names.size() > 2)
                names.resize(2);
            auto tweak = [cores](harness::ExperimentSpec& s) {
                s.num_cores = cores;
                if (cores > 1)
                    harness::scaleWindows(s, 0.5);
            };
            auto p7 = std::make_shared<double>(0.0);
            auto py = std::make_shared<double>(0.0);
            bench::addGeomeanSpeedup(sweep, names, "power7", tweak,
                                     opt.sim_scale,
                                     [p7](double g) { *p7 = g; });
            bench::addGeomeanSpeedup(sweep, names, "pythia", tweak,
                                     opt.sim_scale,
                                     [py](double g) { *py = g; });
            sweep.then([&table, g_p7, g_py, p7, py, suite] {
                g_p7->push_back(*p7);
                g_py->push_back(*py);
                table.addRow({suite, Table::fmt(*p7), Table::fmt(*py)});
            });
        }
        bench::runSweep(sweep, runner, opt);
        table.addRow({"GEOMEAN", Table::fmt(geomean(*g_p7)),
                      Table::fmt(geomean(*g_py))});
        bench::finish(table,
                      "fig22_power7_" + std::to_string(cores) + "c");
    }
    return 0;
}
