/**
 * @file
 * Reproduces Fig. 13: the GemsFDTD case study. Runs Pythia on the
 * 459.GemsFDTD-1320B trace (first page access at PC 0x436a81 followed by
 * exactly one access +23 lines ahead; PC 0x4377c5 followed by +11) and
 * samples the Q-value of representative actions for the two PC+Delta
 * feature values as training progresses.
 *
 * Paper shape: Q(+23) rises above all other actions for 0x436a81+0, and
 * Q(+11) for 0x4377c5+0.
 */
#include "bench_common.hpp"

#include "core/configs.hpp"
#include "sim/system.hpp"
#include "workloads/generators.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    // Not sweep-shaped: one System sampled as training progresses, so
    // only the strict CLI plumbing applies (jobs= is accepted but moot).
    const double scale = bench::parseBenchArgs(argc, argv).sim_scale;

    const harness::ExperimentSpec spec =
        bench::exp1c("459.GemsFDTD-1320B", "pythia", scale);

    auto cfg = rl::scaledForSimLength(rl::basicPythiaConfig());
    auto agent = std::make_unique<rl::PythiaPrefetcher>(cfg);
    auto* ap = agent.get();
    sim::System system(harness::systemConfigFor(spec),
                       harness::workloadsFor(spec));
    system.attachL2Prefetcher(0, std::move(agent));

    // The PC+Delta feature value of "PC X triggers the first access to a
    // page" is extracted by replaying that situation through a scratch
    // extractor (delta is 0 on a page-first access).
    auto feature_of = [&](Addr pc) {
        rl::FeatureExtractor fx;
        fx.observe(pc, blockAddr(1ull << 30)); // fresh page, delta 0
        return fx.extract(cfg.features[0]);    // PC+Delta vault
    };
    const std::uint64_t feat23 = feature_of(wl::CaseStudyGen::kPc23);
    const std::uint64_t feat11 = feature_of(wl::CaseStudyGen::kPc11);

    const std::vector<std::int32_t> shown = {1, 3, 11, 22, 23};
    Table table("Fig.13 — Q-value trajectories (case study)");
    std::vector<std::string> header = {"updates", "feature"};
    for (auto off : shown)
        header.push_back("Q(+" + std::to_string(off) + ")");
    table.setHeader(header);

    const int kSamples = 10;
    for (int s = 1; s <= kSamples; ++s) {
        system.warmup(static_cast<std::uint64_t>(
            (bench::kWarmup + bench::kSim) * scale / kSamples));
        for (auto [label, feat] :
             {std::pair<const char*, std::uint64_t>{"0x436a81+0", feat23},
              std::pair<const char*, std::uint64_t>{"0x4377c5+0",
                                                    feat11}}) {
            std::vector<std::string> row = {
                std::to_string(ap->qvstore().updates()), label};
            for (auto off : shown) {
                const std::size_t a = ap->actionIndexOf(off);
                row.push_back(Table::fmt(ap->qvstore().vaultQ(
                    0, feat, static_cast<std::uint32_t>(a))));
            }
            table.addRow(row);
        }
    }
    bench::finish(table, "fig13_casestudy");

    // Verdict rows: the argmax action for each feature.
    const auto& acts = cfg.actions;
    for (auto [label, feat] :
         {std::pair<const char*, std::uint64_t>{"0x436a81+0", feat23},
          std::pair<const char*, std::uint64_t>{"0x4377c5+0", feat11}}) {
        std::size_t best = 0;
        for (std::size_t a = 1; a < acts.size(); ++a)
            if (ap->qvstore().vaultQ(0, feat,
                                     static_cast<std::uint32_t>(a)) >
                ap->qvstore().vaultQ(0, feat,
                                     static_cast<std::uint32_t>(best)))
                best = a;
        std::cout << label << " argmax action: +" << acts[best] << "\n";
    }
    return 0;
}
