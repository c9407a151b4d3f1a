/**
 * @file
 * Reproduces Fig. 19 (Appendix B.2): Pythia's performance, coverage and
 * overprediction across one- and two-feature state vectors drawn from
 * the 32-feature exploration space, sorted by speedup — the automated
 * feature-selection experiment of §4.3.1.
 *
 * Paper shape: feature choice moves performance by a couple of percent
 * and coverage correlates positively with speedup.
 */
#include <algorithm>

#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    using rl::FeatureSpec;
    bench::BenchOptions opt =
        bench::parseBenchArgs(argc, argv, bench::workloadFlagKeys());

    // One-feature vectors for every spec, plus two-feature combinations
    // of a representative subset (the full 32x32 sweep is the paper's
    // 44-hour grid job; scale with sim_scale if desired).
    std::vector<std::vector<FeatureSpec>> vectors;
    const auto all = rl::allFeatureSpecs();
    for (const auto& f : all)
        vectors.push_back({f});
    const std::vector<FeatureSpec> pair_pool = {
        {rl::ControlKind::Pc, rl::DataKind::Delta},
        {rl::ControlKind::None, rl::DataKind::Last4Deltas},
        {rl::ControlKind::Pc, rl::DataKind::PageOffset},
        {rl::ControlKind::None, rl::DataKind::Last4Offsets},
        {rl::ControlKind::PcPath3, rl::DataKind::Delta},
        {rl::ControlKind::None, rl::DataKind::OffsetXorDelta},
    };
    for (std::size_t i = 0; i < pair_pool.size(); ++i)
        for (std::size_t j = i + 1; j < pair_pool.size(); ++j)
            vectors.push_back({pair_pool[i], pair_pool[j]});

    const std::vector<std::string> workloads =
        bench::workloadsOrDefault(opt, bench::representativeWorkloads());
    harness::Runner runner;

    struct Row
    {
        std::string name;
        double speedup, coverage, overpred;
    };
    std::vector<Row> rows;
    harness::Sweep sweep;
    for (const auto& features : vectors) {
        struct Acc
        {
            double cov = 0, over = 0;
            std::vector<double> speedups;
        };
        auto acc = std::make_shared<Acc>();
        const auto variant = bench::pythiaWithFeatures(features);
        for (const auto& w : workloads)
            sweep.add(bench::exp1c(w, variant.spec, opt.sim_scale),
                      [acc](const harness::Runner::Outcome& o) {
                          acc->speedups.push_back(
                              std::max(1e-6, o.metrics.speedup));
                          acc->cov += o.metrics.coverage;
                          acc->over += o.metrics.overprediction;
                      });
        sweep.then([&rows, &workloads, acc, label = variant.label] {
            rows.push_back(Row{label, geomean(acc->speedups),
                               acc->cov / workloads.size(),
                               acc->over / workloads.size()});
        });
    }
    bench::runSweep(sweep, runner, opt);
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a.speedup < b.speedup;
    });

    Table table("Fig.19 — feature-combination sweep (sorted)");
    table.setHeader({"state_vector", "speedup", "coverage", "overpred"});
    for (const auto& r : rows)
        table.addRow({r.name, Table::fmt(r.speedup),
                      Table::pct(r.coverage), Table::pct(r.overpred)});
    bench::finish(table, "fig19_featuresweep");
    return 0;
}
