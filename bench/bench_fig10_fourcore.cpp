/**
 * @file
 * Reproduces Fig. 10: (a) per-suite geomean speedup in the four-core
 * system (homogeneous mixes plus a heterogeneous Mix row) and (b) the
 * prefetcher-combination comparison at four cores.
 *
 * Paper shape: Pythia's margin grows versus single-core; stacking more
 * prefetchers *hurts* at four cores (additive overpredictions under a
 * shared bandwidth budget) while Pythia stays on top.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const double scale = opt.sim_scale;
    const std::vector<std::string> prefetchers = {"spp", "bingo", "mlop",
                                                  "pythia"};
    // One representative workload per suite (4-core runs are 4x the work).
    const std::vector<std::pair<std::string, std::string>> picks = {
        {"SPEC06", "459.GemsFDTD-765B"},
        {"SPEC06", "482.sphinx3-417B"},
        {"SPEC17", "605.mcf_s-665B"},
        {"PARSEC", "PARSEC-Canneal"},
        {"Ligra", "Ligra-PageRank"},
        {"Cloudsuite", "Cloudsuite-Cassandra"},
    };

    auto four_core = [&](harness::ExperimentSpec& s) {
        s.num_cores = 4;
        harness::scaleWindows(s, 0.5);
    };

    harness::Runner runner;
    Table a("Fig.10(a) — per-suite geomean speedup (4C)");
    std::vector<std::string> header = {"suite/mix"};
    for (const auto& pf : prefetchers)
        header.push_back(pf);
    a.setHeader(header);

    std::map<std::string, std::vector<double>> overall;
    harness::Sweep sweep_a;
    for (const auto& [suite, workload] : picks) {
        auto row = std::make_shared<std::vector<std::string>>(
            std::vector<std::string>{suite + "/" + workload});
        for (const auto& pf : prefetchers) {
            harness::ExperimentSpec spec =
                bench::exp1c(workload, pf, scale);
            four_core(spec);
            sweep_a.add(spec,
                        [&, row, pf](const harness::Runner::Outcome& o) {
                            row->push_back(
                                Table::fmt(o.metrics.speedup));
                            overall[pf].push_back(
                                std::max(1e-6, o.metrics.speedup));
                        });
        }
        sweep_a.then([&a, row] { a.addRow(*row); });
    }
    // Heterogeneous mix row.
    {
        auto row = std::make_shared<std::vector<std::string>>(
            std::vector<std::string>{"Mix(hetero)"});
        for (const auto& pf : prefetchers) {
            sweep_a.add(
                {.mix = {"462.libquantum-1343B", "429.mcf-184B",
                         "PARSEC-Canneal", "Ligra-CC"},
                 .prefetcher = pf,
                 .num_cores = 4,
                 .warmup_instrs = static_cast<std::uint64_t>(
                     bench::kWarmup * scale / 2),
                 .sim_instrs = static_cast<std::uint64_t>(bench::kSim *
                                                          scale / 2)},
                [&, row, pf](const harness::Runner::Outcome& o) {
                    row->push_back(Table::fmt(o.metrics.speedup));
                    overall[pf].push_back(
                        std::max(1e-6, o.metrics.speedup));
                });
        }
        sweep_a.then([&a, row] { a.addRow(*row); });
    }
    bench::runSweep(sweep_a, runner, opt);
    std::vector<std::string> grow = {"GEOMEAN"};
    for (const auto& pf : prefetchers)
        grow.push_back(Table::fmt(geomean(overall[pf])));
    a.addRow(grow);
    bench::finish(a, "fig10a_fourcore");

    Table b("Fig.10(b) — Pythia vs prefetcher stacks (4C)");
    b.setHeader({"prefetcher", "geomean_speedup"});
    std::vector<std::string> workloads;
    for (const auto& [suite, w] : picks)
        workloads.push_back(w);
    harness::Sweep sweep_b;
    for (const char* pf : {"st", "st_s", "st_s_b", "st_s_b_d",
                           "st_s_b_d_m", "pythia"}) {
        bench::addGeomeanSpeedup(sweep_b, workloads, pf, four_core,
                                 scale, [&b, pf](double g) {
                                     b.addRow({pf, Table::fmt(g)});
                                 });
    }
    bench::runSweep(sweep_b, runner, opt);
    bench::finish(b, "fig10b_combinations");
    return 0;
}
