/**
 * @file
 * Reproduces Fig. 16: feature-optimized Pythia on the SPEC06-like suite.
 * For every workload, a small set of candidate feature pairs is tried
 * and the best is compared against the basic configuration.
 *
 * Paper shape: per-workload feature selection adds up to a few percent
 * on top of basic Pythia, without any hardware change.
 */
#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    using rl::ControlKind;
    using rl::DataKind;
    using rl::FeatureSpec;
    bench::BenchOptions opt =
        bench::parseBenchArgs(argc, argv, bench::workloadFlagKeys());

    // Candidate state vectors (a cross-section of the 32-feature space).
    const std::vector<std::vector<FeatureSpec>> candidates = {
        rl::basicFeatureSpecs(),
        {{ControlKind::Pc, DataKind::Delta}},
        {{ControlKind::None, DataKind::Last4Deltas}},
        {{ControlKind::Pc, DataKind::PageOffset},
         {ControlKind::None, DataKind::Last4Offsets}},
        {{ControlKind::Pc, DataKind::Delta},
         {ControlKind::PcPath3, DataKind::PageOffset}},
        {{ControlKind::None, DataKind::OffsetXorDelta},
         {ControlKind::None, DataKind::Last4Deltas}},
    };

    std::vector<std::string> workloads;
    for (const auto* w : wl::suiteWorkloads("SPEC06"))
        workloads.push_back(w->name);
    workloads = bench::workloadsOrDefault(opt, std::move(workloads));

    harness::Runner runner;
    Table table("Fig.16 — basic vs feature-optimized Pythia (SPEC06)");
    table.setHeader({"workload", "basic", "optimized", "best_features",
                     "delta"});
    auto basics = std::make_shared<std::vector<double>>();
    auto opts = std::make_shared<std::vector<double>>();
    harness::Sweep sweep;
    for (const auto& w : workloads) {
        struct Best
        {
            double basic = 0.0;
            double best = 0.0;
            std::string best_name = "basic";
        };
        auto acc = std::make_shared<Best>();
        sweep.add(bench::exp1c(w, "pythia", opt.sim_scale),
                  [acc](const harness::Runner::Outcome& o) {
                      acc->basic = o.metrics.speedup;
                      acc->best = o.metrics.speedup;
                  });
        // The candidate jobs replay after the basic job, so comparing
        // against acc->best is well-defined whatever finished first.
        for (const auto& features : candidates) {
            const auto variant = bench::pythiaWithFeatures(features);
            sweep.add(bench::exp1c(w, variant.spec, opt.sim_scale),
                      [acc, variant](const harness::Runner::Outcome& o) {
                          if (o.metrics.speedup > acc->best) {
                              acc->best = o.metrics.speedup;
                              acc->best_name = variant.label;
                          }
                      });
        }
        sweep.then([&table, basics, opts, acc, w] {
            basics->push_back(std::max(1e-6, acc->basic));
            opts->push_back(std::max(1e-6, acc->best));
            table.addRow({w, Table::fmt(acc->basic),
                          Table::fmt(acc->best), acc->best_name,
                          Table::pct(acc->best / acc->basic - 1.0)});
        });
    }
    bench::runSweep(sweep, runner, opt);
    table.addRow({"GEOMEAN", Table::fmt(geomean(*basics)),
                  Table::fmt(geomean(*opts)), "-",
                  Table::pct(geomean(*opts) / geomean(*basics) - 1.0)});
    bench::finish(table, "fig16_features");
    return 0;
}
