/**
 * @file
 * Live introspection of a running simulation through the streaming
 * SimSession API: step a machine window by window, watch the paper's
 * metrics evolve against a baseline session advanced in lockstep, and
 * peek into live component state (DRAM utilization EWMA, LLC counters)
 * that the batch simulate() call could only report post-mortem.
 *
 * Usage: live_introspection [workload=<name>] [prefetcher=<spec>]
 *                           [windows=<n>] [series_out=<path>]
 *
 * Demonstrates both observer styles: a custom SessionObserver printing
 * a live ticker, and a TimeSeries recording every window for CSV
 * emission.
 */
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/params.hpp"
#include "harness/experiment.hpp"
#include "harness/metrics.hpp"
#include "harness/timeseries.hpp"

namespace {

using namespace pythia;

/** Prints one ticker line per window, reading the live machine. */
class Ticker final : public harness::SessionObserver
{
  public:
    void onWarmupEnd(harness::SimSession& session) override
    {
        std::printf("[warmup done: %llu instrs/core]\n",
                    static_cast<unsigned long long>(
                        session.spec().warmup_instrs));
    }

    void onWindowEnd(harness::SimSession& session,
                     const harness::WindowSample& w) override
    {
        // Live component state, mid-run: the DRAM bandwidth monitor and
        // the LLC's raw counters — the introspection surface the
        // ROADMAP's serving/checkpointing goals build on.
        sim::System& machine = session.system();
        std::printf("[window %2llu] %6llu..%-6llu ipc=%.3f acc=%.2f "
                    "llc_miss=%llu dram_util=%.2f\n",
                    static_cast<unsigned long long>(w.index),
                    static_cast<unsigned long long>(w.instrs_begin),
                    static_cast<unsigned long long>(w.instrs_end),
                    w.delta.ipc_geomean, w.delta.accuracy(),
                    static_cast<unsigned long long>(
                        w.delta.llc_demand_load_misses),
                    machine.dram().utilization());
    }

    void onRunEnd(harness::SimSession&,
                  const sim::RunResult& final_result) override
    {
        std::printf("[run end] cumulative ipc=%.3f accuracy=%.2f\n",
                    final_result.ipc_geomean, final_result.accuracy());
    }
};

} // namespace

int
main(int argc, char** argv)
{
    using namespace pythia;

    SpecParams cli;
    std::uint64_t windows = 0;
    std::string workload, prefetcher;
    try {
        cli = SpecParams::fromArgs(
            argc, argv,
            {"workload", "prefetcher", "windows", "series_out"});
        windows = std::max<std::uint64_t>(1, cli.getU64("windows", 8));
        workload = cli.getString("workload", "429.mcf-184B");
        prefetcher = cli.getString("prefetcher", "pythia");
        harness::checkSpec(
            harness::Experiment(workload).l2(prefetcher).build());
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    const std::string series_out = cli.getString("series_out", "");

    std::cout << "Live introspection: workload=" << workload
              << " prefetcher=" << prefetcher << " windows=" << windows
              << "\n";

    auto series = std::make_shared<harness::TimeSeries>();
    harness::ExperimentBuilder experiment =
        harness::Experiment(workload)
            .l2(prefetcher)
            .warmup(20'000)
            .measure(120'000)
            .observe(std::make_shared<Ticker>())
            .observe(series);

    // A baseline session advanced in lockstep turns every window into a
    // live speedup/coverage reading (the windowed computeMetrics
    // overload) — no post-hoc baseline run needed.
    harness::TimeSeries baseline_series;
    harness::ExperimentSpec baseline_spec = experiment.spec();
    baseline_spec.prefetcher = "none";
    harness::SimSession baseline(baseline_spec);
    baseline.addObserver(&baseline_series);

    harness::SimSession session = experiment.openSession();
    const std::uint64_t step = std::max<std::uint64_t>(
        1, session.spec().sim_instrs / windows);
    while (!session.done()) {
        session.advance(step);
        baseline.advance(session.lastWindow().instrs_end -
                         baseline.instrsAdvanced());
        const harness::Metrics m = harness::computeMetrics(
            session.lastWindow(), baseline_series.samples().back());
        std::printf("            vs baseline: speedup=%.3f "
                    "coverage=%.1f%%\n",
                    m.speedup, 100.0 * m.coverage);
    }

    const auto trajectory =
        harness::computeWindowedMetrics(*series, baseline_series);
    std::printf("windows observed: %zu; final speedup %.3f\n",
                trajectory.size(),
                harness::computeMetrics(series->finalResult(),
                                        baseline_series.finalResult())
                    .speedup);

    if (!series_out.empty()) {
        if (series->writeCsv(series_out))
            std::cout << "[series written: " << series_out << "]\n";
        else
            std::cerr << "[series] cannot write " << series_out << "\n";
    }
    return 0;
}
