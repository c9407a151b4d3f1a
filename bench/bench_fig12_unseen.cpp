/**
 * @file
 * Reproduces Fig. 12: performance on *unseen* traces (held-out seeds and
 * parameter draws, the analogue of the CVP-2 traces of §6.4) in the
 * single-core and four-core systems, by category (Crypto/INT/FP/Server).
 *
 * Paper shape: Pythia, tuned on the main catalog only, keeps its edge on
 * traces it never saw during tuning.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt =
        bench::parseBenchArgs(argc, argv, bench::workloadFlagKeys());
    const std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                                  "pythia"};

    harness::Runner runner;
    for (std::uint32_t cores : {1u, 4u}) {
        Table table("Fig.12 — unseen traces, " + std::to_string(cores) +
                    "-core");
        std::vector<std::string> header = {"category"};
        for (const auto& pf : prefetchers)
            header.push_back(pf);
        table.setHeader(header);

        // Group the unseen catalog by its suite tag; a workload=
        // override collapses to one "custom" category.
        std::map<std::string, std::vector<std::string>> groups;
        if (!opt.cli.getString("workload", "").empty()) {
            groups["custom"] = bench::workloadsOrDefault(opt, {});
        } else {
            for (const auto& w : wl::unseenWorkloads())
                groups[w.suite].push_back(w.name);
        }

        std::map<std::string, std::vector<double>> overall;
        harness::Sweep sweep;
        for (const auto& [category, names] : groups) {
            auto row = std::make_shared<std::vector<std::string>>(
                std::vector<std::string>{category});
            for (const auto& pf : prefetchers)
                bench::addGeomeanSpeedup(
                    sweep, names, pf,
                    [cores](harness::ExperimentSpec& s) {
                        s.num_cores = cores;
                        if (cores > 1)
                            harness::scaleWindows(s, 0.5);
                    },
                    opt.sim_scale, [&overall, row, pf](double g) {
                        row->push_back(Table::fmt(g));
                        overall[pf].push_back(g);
                    });
            sweep.then([&table, row] { table.addRow(*row); });
        }
        bench::runSweep(sweep, runner, opt);
        std::vector<std::string> row = {"GEOMEAN"};
        for (const auto& pf : prefetchers)
            row.push_back(Table::fmt(geomean(overall[pf])));
        table.addRow(row);
        bench::finish(table, "fig12_unseen_" + std::to_string(cores) +
                                 "c");
    }
    return 0;
}
