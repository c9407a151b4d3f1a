/**
 * @file
 * Bandwidth study: demonstrates Pythia's system-awareness on a
 * bandwidth-hungry graph workload. Sweeps the DRAM transfer rate from a
 * server-like share (150 MTPS per core) to an overprovisioned 9600 MTPS
 * and compares basic Pythia, the bandwidth-oblivious ablation and an
 * aggressive spatial baseline (Bingo).
 *
 * The 18-point grid is declared as a harness::Sweep and executed on a
 * ParallelRunner worker pool; the callbacks replay in declaration
 * order, so the table is identical for any jobs=<n>.
 *
 * Usage: bandwidth_study [workload=<name>] [jobs=<n>]
 */
#include <iostream>
#include <memory>

#include "common/params.hpp"
#include "common/table.hpp"
#include "harness/sweep.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    std::string workload;
    unsigned jobs = 0;
    try {
        const SpecParams cli =
            SpecParams::fromArgs(argc, argv, {"workload", "jobs"});
        jobs = cli.getU32("jobs", 0, kMaxParallelism);
        workload = cli.getString("workload", "Ligra-PageRank");
        harness::checkSpec({.workload = workload});
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    harness::Runner runner;
    Table table("Bandwidth study: " + workload);
    table.setHeader({"mtps", "bingo", "pythia", "pythia_bwobl",
                     "pythia_dram_util"});
    harness::Sweep sweep;
    for (std::uint32_t mtps : {150u, 300u, 600u, 1200u, 2400u, 9600u}) {
        auto row = std::make_shared<std::vector<std::string>>(
            std::vector<std::string>{std::to_string(mtps)});
        auto util = std::make_shared<double>(0.0);
        for (const char* pf : {"bingo", "pythia", "pythia_bwobl"}) {
            const bool is_pythia = std::string(pf) == "pythia";
            sweep.add({.workload = workload, .prefetcher = pf, .mtps = mtps},
                      [row, util,
                       is_pythia](const harness::Runner::Outcome& o) {
                          row->push_back(
                              Table::fmt(o.metrics.speedup));
                          if (is_pythia)
                              *util = o.run.dram_utilization;
                      });
        }
        sweep.then([&table, row, util] {
            row->push_back(Table::pct(*util));
            table.addRow(*row);
        });
    }
    harness::ParallelRunner(jobs).run(runner, sweep);
    table.print();
    std::cout << "\nBasic Pythia throttles itself when the bus is scarce"
                 " (R_IN^H / R_NP^H rewards); the oblivious variant and"
                 " aggressive spatial prefetching pay for overprediction"
                 " at low MTPS.\n";
    return 0;
}
