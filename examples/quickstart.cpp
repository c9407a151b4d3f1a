/**
 * @file
 * Quickstart: simulate one workload with no prefetcher, a classic
 * baseline (SPP) and Pythia, and print the paper's headline metrics
 * (speedup, coverage, overprediction, accuracy).
 *
 * Usage: quickstart [workload=<name>] [prefetcher=<spec>] [mtps=<n>]
 *
 * prefetcher= accepts any registry spec string, including parameterized
 * ("spp:max_lookahead=4") and composed ("stride+spp") forms.
 */
#include <cstdio>
#include <iostream>

#include "common/params.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"
#include "workloads/suites.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;

    std::string workload;
    std::uint32_t mtps = 0;
    std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                            "pythia"};
    try {
        const SpecParams cli = SpecParams::fromArgs(
            argc, argv, {"workload", "prefetcher", "mtps"});
        workload = cli.getString("workload", "459.GemsFDTD-765B");
        mtps = cli.getU32("mtps", 2400);
        if (cli.has("prefetcher"))
            prefetchers = {cli.getString("prefetcher")};
        for (const auto& pf : prefetchers)
            harness::checkSpec({.workload = workload, .prefetcher = pf});
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    std::cout << "Pythia quickstart: workload=" << workload
              << " mtps=" << mtps << "\n";

    harness::Runner runner;
    Table table("Quickstart: " + workload);
    table.setHeader({"prefetcher", "IPC", "speedup", "coverage",
                     "overpred", "accuracy"});

    for (const auto& pf : prefetchers) {
        const auto outcome = runner.evaluate(
            {.workload = workload, .prefetcher = pf, .mtps = mtps});
        table.addRow({pf, Table::fmt(outcome.run.ipc_geomean),
                      Table::fmt(outcome.metrics.speedup),
                      Table::pct(outcome.metrics.coverage),
                      Table::pct(outcome.metrics.overprediction),
                      Table::pct(outcome.metrics.accuracy)});
    }
    table.print();

    // The same run as a stream, in five lines: open a session, step it
    // window by window, read each window's delta as it lands.
    std::cout << "\nStreaming the pythia run, 30k-instruction windows:\n";
    harness::SimSession session(harness::ExperimentSpec{
        .workload = workload, .prefetcher = "pythia", .mtps = mtps});
    while (!session.done()) {
        session.advance(30'000);
        const harness::WindowSample& w = session.lastWindow();
        std::printf("  window %zu: ipc=%.3f accuracy=%.2f\n", w.index,
                    w.delta.ipc_geomean, w.delta.accuracy());
    }
    return 0;
}
