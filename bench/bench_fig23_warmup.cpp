/**
 * @file
 * Reproduces Fig. 23 (Appendix B.6): sensitivity of every prefetcher to
 * the number of warmup instructions, from zero warmup upward.
 *
 * Paper shape: Pythia learns online quickly enough that its ranking is
 * stable across warmup lengths, including no warmup at all.
 *
 * Streamed-session implementation: the batch-era bench re-ran every
 * (workload, prefetcher) cell once per warmup point — 6 full
 * simulations per cell. Now ONE SimSession per cell runs from
 * instruction 0 to max_warmup + measure with window boundaries at
 * every warmup point w and every measure end w + measure; the row for
 * warmup w is composed from the per-window deltas spanning
 * [w, w + measure) (harness/session.hpp window algebra). Per-cell sim
 * work no longer scales with the number of warmup points. Equivalence
 * to the batch-era table: the streamed measure window starts at the
 * exact machine state where a batch warmup of w ended, but the batch
 * path let the warmup's superscalar overshoot (at most retire-width-1
 * instrs) extend the measure end, so values match to within that <=3
 * instruction boundary shift — byte-identical at the default
 * sim_scale, and within one 3rd-decimal rounding step elsewhere.
 *
 * Extra flags: windows= / window_instrs= add uniform observation
 * boundaries on top of the required ones (finer series_out
 * granularity; table values are unaffected — window algebra composes
 * across any partition), series_out=<path> dumps every cell's
 * per-window time series as one labeled CSV.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt =
        bench::parseBenchArgs(argc, argv, bench::sessionFlagKeys());
    const bench::SessionOptions sopt = bench::parseSessionFlags(opt);
    const std::vector<std::uint64_t> warmups = {0, 5'000, 15'000, 30'000,
                                                60'000, 120'000};
    const std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                                  "pythia"};
    const auto& workloads = bench::representativeWorkloads();

    const std::uint64_t measure =
        static_cast<std::uint64_t>(bench::kSim * opt.sim_scale);
    const std::uint64_t total = warmups.back() + measure;
    std::vector<std::uint64_t> required;
    for (std::uint64_t w : warmups) {
        if (w > 0)
            required.push_back(w);
        required.push_back(w + measure);
    }
    const std::vector<std::uint64_t> ends =
        bench::windowEnds(total, sopt, required);

    harness::Runner runner;
    Table table("Fig.23 — sensitivity to warmup length (1C)");
    std::vector<std::string> header = {"warmup_instrs"};
    for (const auto& pf : prefetchers)
        header.push_back(pf);
    table.setHeader(header);

    // speedups[pf][warmup point] -> per-workload speedups, filled in
    // the ordered replay (declaration order = workload order).
    std::vector<std::vector<std::vector<double>>> speedups(
        prefetchers.size(),
        std::vector<std::vector<double>>(warmups.size()));
    std::vector<bench::SessionCell> cells;

    harness::Sweep sweep;
    for (std::size_t p = 0; p < prefetchers.size(); ++p) {
        for (const auto& workload : workloads) {
            const harness::ExperimentSpec spec{.workload = workload,
                                               .prefetcher = prefetchers[p],
                                               .warmup_instrs = 0,
                                               .sim_instrs = total};
            auto cell =
                std::make_shared<harness::Runner::WindowedOutcome>();
            sweep.addTask(
                [spec, ends, cell](harness::Runner& r) {
                    *cell = r.evaluateWindowed(spec, ends);
                    return cell->final;
                },
                [&speedups, &warmups, measure, p,
                 cell](const harness::Runner::Outcome&) {
                    for (std::size_t wi = 0; wi < warmups.size(); ++wi) {
                        const sim::RunResult run = cell->run.composeRange(
                            warmups[wi], warmups[wi] + measure);
                        const sim::RunResult base =
                            cell->baseline.composeRange(
                                warmups[wi], warmups[wi] + measure);
                        const harness::Metrics m =
                            harness::computeMetrics(run, base);
                        speedups[p][wi].push_back(
                            std::max(1e-6, m.speedup));
                    }
                });
            cells.emplace_back(workload + "," + prefetchers[p], cell);
        }
    }
    bench::runSweep(sweep, runner, opt);

    for (std::size_t wi = 0; wi < warmups.size(); ++wi) {
        std::vector<std::string> row = {std::to_string(warmups[wi])};
        for (std::size_t p = 0; p < prefetchers.size(); ++p)
            row.push_back(Table::fmt(geomean(speedups[p][wi])));
        table.addRow(row);
    }
    bench::finish(table, "fig23_warmup");

    bench::emitRunSeries(sopt.series_out, "workload,prefetcher", cells);
    return 0;
}
