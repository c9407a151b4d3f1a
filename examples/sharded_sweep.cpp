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

#include "common/config.hpp"
#include "common/table.hpp"
#include "harness/shard.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    Config cli;
    harness::ShardOptions opt;
    try {
        cli.parseArgsStrict(argc, argv, {"workers", "journal"});
        const std::int64_t n = cli.getInt("workers", 2);
        if (n < 1)
            throw std::invalid_argument("workers must be >= 1");
        opt.workers = static_cast<unsigned>(n);
        opt.journal_path = cli.getString("journal", "");
    } catch (const std::exception& e) {
        std::cerr << "sharded_sweep: " << e.what() << "\n";
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
                   return harness::Experiment(w).l2(pf).warmup(30'000)
                       .measure(80'000);
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
              << " resumed from the journal, " << r.stolen_jobs
              << " stolen, " << r.worker_restarts
              << " worker restarts.\n";
    return 0;
}
