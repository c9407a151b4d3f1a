/**
 * @file
 * Sharded sweep quickstart: the same declarative grid as
 * parallel_sweep.cpp, but executed by harness::ShardCoordinator across
 * worker *processes* with a durable journal (DESIGN.md §11).
 *
 * The determinism rule makes the topology invisible in the output: this
 * table is byte-identical to the one ParallelRunner prints for any
 * jobs=<n>. What the coordinator adds is crash tolerance — kill this
 * program (or its workers) mid-sweep and re-run it with the same
 * journal= path, and only the jobs missing from the journal execute;
 * completed ones replay bit-exactly from disk:
 *
 *     sharded_sweep workers=4 journal=/tmp/demo.journal
 *     # ... SIGKILL it halfway ...
 *     sharded_sweep workers=4 journal=/tmp/demo.journal   # resumes
 *
 * Usage: sharded_sweep [workers=<n>] [journal=<path>]
 */
#include <iostream>

#include "common/params.hpp"
#include "common/table.hpp"
#include "harness/shard.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    harness::ShardOptions opt;
    try {
        const SpecParams cli =
            SpecParams::fromArgs(argc, argv, {"workers", "journal"});
        opt.workers = cli.getU32("workers", 2, kMaxParallelism);
        opt.journal_path = cli.getString("journal", "");
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (opt.workers == 0) {
        std::cerr << "sharded_sweep: workers must be >= 1\n";
        return 2;
    }
    opt.report_os = &std::cerr;

    const std::vector<std::string> workloads = {"462.libquantum-1343B",
                                                "429.mcf-184B",
                                                "Ligra-PageRank"};
    const std::vector<std::string> prefetchers = {"spp", "bingo",
                                                  "pythia"};

    Table table("Speedup across workload x prefetcher (sharded)");
    table.setHeader({"workload", "prefetcher", "speedup", "coverage"});

    harness::Sweep sweep;
    sweep.grid(workloads, prefetchers,
               [](const std::string& w, const std::string& pf) {
                   return harness::ExperimentSpec{.workload = w,
                                                  .prefetcher = pf,
                                                  .warmup_instrs = 30'000,
                                                  .sim_instrs = 80'000};
               },
               [&table](const std::string& w, const std::string& pf,
                        const harness::Runner::Outcome& o) {
                   table.addRow({w, pf, Table::fmt(o.metrics.speedup),
                                 Table::pct(o.metrics.coverage)});
               });

    harness::Runner runner;
    harness::ShardCoordinator coordinator(opt);
    coordinator.run(runner, sweep);

    table.print();
    const auto& r = coordinator.lastReport();
    std::cout << "\n" << r.sweep.experiments << " experiments on "
              << r.sweep.jobs << " worker process(es); " << r.resumed_jobs
              << " resumed from the journal, " << r.worker_restarts
              << " worker restarts.\n";
    return 0;
}
