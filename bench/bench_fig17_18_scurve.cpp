/**
 * @file
 * Reproduces Fig. 17/18: the per-trace performance line graphs (s-curve)
 * of SPP, Bingo, MLOP and Pythia — single-core over the full catalog and
 * four-core over the representative set — sorted by Pythia's speedup.
 *
 * Paper shape: Pythia improves on the baseline almost everywhere, with
 * the largest wins on irregular traces and the known loss cases on
 * heavy streamers (where Bingo's full-region prefetch is unbeatable).
 *
 * Every cell runs as ONE streamed SimSession (Runner::evaluateWindowed;
 * the no-prefetching baseline streams once per workload and is cached).
 * By default the session is observed at a single boundary, which is
 * bit-identical to the batch path, so the tables match the pre-session
 * bench exactly. windows= / window_instrs= split the observation into
 * finer windows and series_out=<path> dumps the per-window metric
 * evolution of every cell — the s-curve over instruction windows — as
 * one labeled CSV. Note: multi-core cells interleave cores per window,
 * so window splits are a (deterministic) scheduling variant of the
 * figure, not a reproduction of the windows=1 numbers.
 */
#include <algorithm>

#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(
        argc, argv,
        bench::joinFlagKeys(bench::sessionFlagKeys(),
                            bench::workloadFlagKeys()));
    const bench::SessionOptions sopt = bench::parseSessionFlags(opt);
    const std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                                  "pythia"};

    harness::Runner runner;
    std::vector<bench::SessionCell> cells;

    struct Row
    {
        std::string workload;
        std::map<std::string, double> speedup;
    };

    auto build = [&](const std::vector<std::string>& workloads,
                     std::uint32_t cores, const std::string& tag) {
        std::vector<Row> rows(workloads.size());
        harness::Sweep sweep;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            rows[i].workload = workloads[i];
            for (const auto& pf : prefetchers) {
                harness::ExperimentSpec spec =
                    bench::exp1c(workloads[i], pf, opt.sim_scale);
                spec.num_cores = cores;
                if (cores > 1)
                    harness::scaleWindows(spec, 0.5);
                const std::vector<std::uint64_t> ends =
                    bench::windowEnds(spec.sim_instrs, sopt);
                auto cell =
                    std::make_shared<harness::Runner::WindowedOutcome>();
                sweep.addTask(
                    [spec, ends, cell](harness::Runner& r) {
                        *cell = r.evaluateWindowed(spec, ends);
                        return cell->final;
                    },
                    [&rows, i, pf](const harness::Runner::Outcome& o) {
                        rows[i].speedup[pf] = o.metrics.speedup;
                    });
                cells.emplace_back(workloads[i] + "," + pf + "," +
                                       std::to_string(cores),
                                   cell);
            }
        }
        bench::runSweep(sweep, runner, opt);
        std::sort(rows.begin(), rows.end(),
                  [](const Row& a, const Row& b) {
                      return a.speedup.at("pythia") <
                             b.speedup.at("pythia");
                  });
        Table table("Fig." + tag + " — per-trace speedups (" +
                    std::to_string(cores) + "C, sorted by Pythia)");
        std::vector<std::string> header = {"workload"};
        for (const auto& pf : prefetchers)
            header.push_back(pf);
        table.setHeader(header);
        for (const auto& r : rows) {
            std::vector<std::string> cells_row = {r.workload};
            for (const auto& pf : prefetchers)
                cells_row.push_back(Table::fmt(r.speedup.at(pf)));
            table.addRow(cells_row);
        }
        bench::finish(table, "fig" + tag + "_scurve_" +
                                 std::to_string(cores) + "c");
    };

    // Parse and validate the workload= override once; it replaces both
    // figures' default lists (validation instantiates every entry, so
    // a trace: spec should not be loaded twice just to re-check it).
    const bool overridden = !opt.cli.getString("workload", "").empty();
    std::vector<std::string> override_names;
    if (overridden)
        override_names = bench::workloadsOrDefault(opt, {});

    std::vector<std::string> all_names;
    for (const auto& w : wl::allWorkloads())
        all_names.push_back(w.name);
    build(overridden ? override_names : all_names, 1, "17");
    build(overridden ? override_names : bench::representativeWorkloads(),
          4, "18");

    bench::emitRunSeries(sopt.series_out, "workload,prefetcher,cores",
                         cells);
    return 0;
}
