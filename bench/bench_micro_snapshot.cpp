/**
 * @file
 * Microbenchmark of the snapshot subsystem (DESIGN.md §9).
 *
 * Three parts, all landing in the pythia-perf-v1 artifact
 * (--perf-out=<path>) as one sweep row each:
 *
 *  1. save — snapshotTo() wall time of a warmed single-core Pythia
 *     session ("experiments" counts save operations, so sims_per_sec
 *     reads as saves/sec).
 *  2. load — resumeFrom() wall time of the same snapshot (machine
 *     construction + restore + workload fast-forward replay).
 *  3. cold and warm — the same small sweep executed twice against one
 *     warm-state cache directory: the first run populates it, the
 *     second restores from it. The warm-vs-cold wall-time ratio is
 *     the headline number this bench tracks ("warm_vs_cold" below);
 *     the two sweep rows preserve both sides in the artifact.
 *
 * Warm runs are golden-gated elsewhere (test_snapshot_golden.cpp) to
 * be bit-identical to cold runs; this bench only measures how much
 * wall time the cache saves.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "harness/session.hpp"
#include "snapshot/snapshot.hpp"

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
    namespace fs = std::filesystem;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    if (!opt.cli.has("jobs"))
        opt.jobs = 1; // wall-time ratios want one worker by default

    const std::string dir = opt.snapshot_dir.empty()
                                ? std::string("snapshot_bench_cache")
                                : opt.snapshot_dir;
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string snap_path =
        (fs::path(dir) / "bench_session.snap").string();

    // ---- part 1: save/load wall time -----------------------------------
    const harness::ExperimentSpec spec =
        bench::exp1c("462.libquantum-1343B", "pythia", opt.sim_scale)
            .spec();
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

    const auto snap_bytes = fs::file_size(snap_path);
    std::printf("snapshot save/load (%zu ops, %llu-byte file):\n", ops,
                static_cast<unsigned long long>(snap_bytes));
    std::printf("  save   %8.3f ms/op\n",
                save_total / static_cast<double>(ops) * 1e3);
    std::printf("  load   %8.3f ms/op  (construct + restore + replay)\n",
                load_total / static_cast<double>(ops) * 1e3);
    addOpsRow(opt, ops, save_total, save_s);
    addOpsRow(opt, ops, load_total, load_s);

    // ---- part 2: warm-vs-cold sweep ------------------------------------
    // The representative single-core cross-section, cold then warm
    // against the same cache directory. Two Runners so the second pays
    // session opening again (baseline futures don't carry over) but
    // skips every warmup via the on-disk cache.
    const std::vector<std::pair<std::string, std::string>> cells = {
        {"462.libquantum-1343B", "pythia"},
        {"459.GemsFDTD-765B", "spp"},
        {"482.sphinx3-417B", "bingo"},
        {"429.mcf-184B", "stride"},
        {"Ligra-PageRank", "pythia"},
        {"Ligra-CC", "stride"},
    };
    opt.snapshot_dir = dir; // route runSweep's runners at the cache

    Table table("snapshot warm-state cache (bench-standard windows)");
    table.setHeader({"phase", "seconds", "sims/sec", "warm hits"});
    double cold_s = 0.0, warm_s = 0.0;
    for (const bool warm : {false, true}) {
        harness::Runner runner;
        harness::Sweep sweep;
        for (const auto& [w, pf] : cells)
            sweep.add(bench::exp1c(w, pf, opt.sim_scale),
                      [](const harness::Runner::Outcome&) {});
        bench::runSweep(sweep, runner, opt);
        const auto& row = opt.perf.sweeps().back();
        (warm ? warm_s : cold_s) = row.seconds;
        table.addRow({warm ? "warm" : "cold", Table::fmt(row.seconds),
                      Table::fmt(row.sims_per_sec),
                      std::to_string(runner.warmHits())});
    }
    std::printf("warm_vs_cold: %.2fx (cold %.3fs, warm %.3fs)\n",
                warm_s > 0.0 ? cold_s / warm_s : 0.0, cold_s, warm_s);
    bench::finish(table, "micro_snapshot");

    fs::remove_all(dir);
    return 0;
}
