/**
 * @file
 * Microbenchmark of the snapshot subsystem (DESIGN.md §9).
 *
 * Times snapshotTo() and resumeFrom() on a warmed single-core Pythia
 * session. Both land in the pythia-perf-v1 artifact
 * (--perf-out=<path>) as one sweep row each ("experiments" counts
 * operations, so sims_per_sec reads as saves/sec and loads/sec), and in
 * micro_snapshot.csv. The snapshot itself stays behind as
 * micro_snapshot.snap in the working directory, ready for
 * tools/snapshot_inspect.
 *
 *  - save: encode, checksum and atomically write the file.
 *  - load: machine construction + restore + workload fast-forward
 *    replay.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "harness/session.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Fold a hand-timed operation loop into the perf artifact as one
 *  sweep row: "experiments" = operations, sims_per_sec = ops/sec. */
void
addOpsRow(pythia::bench::BenchOptions& opt, std::size_t ops,
          double seconds, const std::vector<double>& per_op)
{
    pythia::harness::SweepReport report;
    report.experiments = ops;
    report.jobs = 1;
    report.seconds = seconds;
    report.job_seconds = per_op;
    opt.perf.addSweep(report);
    if (!opt.perf_out.empty() && !opt.perf.writeTo(opt.perf_out))
        std::fprintf(stderr, "[perf] cannot write %s\n",
                     opt.perf_out.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const std::string snap_path = "micro_snapshot.snap";

    const harness::ExperimentSpec spec =
        bench::exp1c("462.libquantum-1343B", "pythia", opt.sim_scale);
    harness::SimSession warmed(spec);
    warmed.runWarmup();

    const std::size_t ops =
        static_cast<std::size_t>(20 * std::max(1.0, opt.sim_scale));
    std::vector<double> save_s, load_s;
    const auto t_save = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        const auto t0 = Clock::now();
        warmed.snapshotTo(snap_path);
        save_s.push_back(secondsSince(t0));
    }
    const double save_total = secondsSince(t_save);

    const auto t_load = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        const auto t0 = Clock::now();
        harness::SimSession resumed =
            harness::SimSession::resumeFrom(spec, snap_path);
        load_s.push_back(secondsSince(t0));
        (void)resumed;
    }
    const double load_total = secondsSince(t_load);
    addOpsRow(opt, ops, save_total, save_s);
    addOpsRow(opt, ops, load_total, load_s);

    const auto snap_bytes = std::filesystem::file_size(snap_path);
    Table table("snapshot save/load (" + std::to_string(ops) + " ops, " +
                std::to_string(snap_bytes) + "-byte file)");
    table.setHeader({"op", "ms/op", "what"});
    table.addRow({"save",
                  Table::fmt(save_total / static_cast<double>(ops) * 1e3),
                  "encode + checksum + atomic write"});
    table.addRow({"load",
                  Table::fmt(load_total / static_cast<double>(ops) * 1e3),
                  "construct + restore + replay"});
    bench::finish(table, "micro_snapshot");
    return 0;
}
