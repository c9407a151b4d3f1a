/**
 * @file
 * Integration tests across modules: the harness runner, the paper's
 * metric formulas, baseline caching, multi-level prefetching and
 * end-to-end behavioural properties of whole simulations (who should win
 * on which pattern class, monotonicity in machine parameters).
 */
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/metrics.hpp"
#include "harness/perf.hpp"
#include "harness/sweep.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::harness {
namespace {

ExperimentSpec
quickSpec(const std::string& workload, const std::string& pf)
{
    return Experiment(workload).l2(pf).warmup(30'000).measure(80'000)
        .build();
}

// ------------------------------------------------------------------- metrics

TEST(Metrics, FormulasMatchArtifactAppendix)
{
    sim::RunResult base, with;
    base.ipc_geomean = 1.0;
    base.llc_demand_load_misses = 1000;
    base.llc_read_misses = 1000;
    with.ipc_geomean = 1.2;
    with.llc_demand_load_misses = 300;
    with.llc_read_misses = 1400;
    with.prefetch_issued = 800;
    with.prefetch_useful = 600;

    const Metrics m = computeMetrics(with, base);
    EXPECT_NEAR(m.speedup, 1.2, 1e-12);
    EXPECT_NEAR(m.coverage, 0.7, 1e-12);       // (1000-300)/1000
    EXPECT_NEAR(m.overprediction, 0.4, 1e-12); // (1400-1000)/1000
    EXPECT_NEAR(m.accuracy, 0.75, 1e-12);
}

TEST(Metrics, NegativeOverpredictionClampsToZero)
{
    sim::RunResult base, with;
    base.ipc_geomean = 1.0;
    base.llc_read_misses = 1000;
    with.ipc_geomean = 1.0;
    with.llc_read_misses = 900;
    EXPECT_DOUBLE_EQ(computeMetrics(with, base).overprediction, 0.0);
}

TEST(Metrics, AccuracyDefaultsToOneWithoutPrefetches)
{
    sim::RunResult r;
    EXPECT_DOUBLE_EQ(r.accuracy(), 1.0);
}

// ---------------------------------------------------------------------- perf

TEST(Perf, PercentileSortedNearestRank)
{
    // Nearest-rank definition: smallest element whose rank covers
    // p percent of the sample count. serve_client's p50/p95/p99
    // latency block sorts once and calls this on the shared vector.
    const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 10), 1.0);  // ceil(1.0)=1
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 50), 5.0);  // ceil(5.0)=5
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 51), 6.0);  // ceil(5.1)=6
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 95), 10.0); // ceil(9.5)=10
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 99), 10.0);
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 100), 10.0);

    EXPECT_DOUBLE_EQ(percentileSorted({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentileSorted({42.0}, 0), 42.0);
    EXPECT_DOUBLE_EQ(percentileSorted({42.0}, 100), 42.0);
    // Out-of-range p clamps instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(percentileSorted(ten, -5), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted(ten, 250), 10.0);

    // percentile() (the sorting wrapper) agrees on unsorted input.
    EXPECT_DOUBLE_EQ(percentile({9, 1, 5, 3, 7}, 50), 5.0);
}

// -------------------------------------------------------------------- runner

TEST(Runner, RegistryKnowsAllHarnessNames)
{
    for (const auto& name : sim::prefetcherNames()) {
        auto pf = sim::makePrefetcher(name);
        ASSERT_NE(pf, nullptr) << name;
    }
    EXPECT_EQ(sim::makePrefetcher("none"), nullptr);
}

TEST(Runner, BaselineCachedAcrossEvaluations)
{
    Runner runner;
    (void)runner.evaluate(quickSpec("470.lbm-164B", "stride"));
    EXPECT_EQ(runner.baselinesComputed(), 1u);
    (void)runner.evaluate(quickSpec("470.lbm-164B", "streamer"));
    EXPECT_EQ(runner.baselinesComputed(), 1u); // same machine+workload
    (void)runner.evaluate(quickSpec("462.libquantum-1343B", "stride"));
    EXPECT_EQ(runner.baselinesComputed(), 2u);
}

TEST(Runner, BaselineKeyCoversEveryBaselineAffectingField)
{
    const ExperimentSpec base = quickSpec("470.lbm-164B", "stride");
    auto changesKey = [&base](auto mutate) {
        ExperimentSpec s = base;
        mutate(s);
        return Runner::baselineKey(s) != Runner::baselineKey(base);
    };
    // Each of these changes the no-prefetching run, so it must split
    // the cache (a shared entry would silently skew every metric).
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) {
        s.workload = "429.mcf-184B";
    }));
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) {
        s.workload_seed = 7;
    }));
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) { s.mtps = 1200; }));
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) { s.num_cores = 2; }));
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) {
        s.llc_bytes_per_core *= 2;
    }));
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) {
        s.warmup_instrs += 1;
    }));
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) {
        s.sim_instrs += 1;
    }));
    EXPECT_TRUE(changesKey([](ExperimentSpec& s) {
        s.mix = {"470.lbm-164B"};
    }));
    // The prefetcher fields do not affect the baseline (it resets
    // them), so they must NOT split the cache.
    EXPECT_FALSE(changesKey([](ExperimentSpec& s) {
        s.prefetcher = "spp";
        s.l1_prefetcher = "stride";
    }));
}

TEST(Runner, BaselineKeyCanonicalizesWorkloadIgnoredByMix)
{
    // With a mix set, workloadsFor() ignores the workload name; the key
    // must too, or equal machines would compute duplicate baselines.
    ExperimentSpec a = quickSpec("470.lbm-164B", "stride");
    ExperimentSpec b = quickSpec("429.mcf-184B", "stride");
    a.num_cores = b.num_cores = 2;
    a.mix = b.mix = {"470.lbm-164B", "429.mcf-184B"};
    EXPECT_EQ(Runner::baselineKey(a), Runner::baselineKey(b));
}

TEST(Runner, BaselineKeyMixEncodingIsUnambiguous)
{
    // A single-entry mix must not collide with the same string as a
    // plain workload, and joined mix entries must not collide with a
    // differently-split mix of the same concatenation.
    ExperimentSpec workload = quickSpec("470.lbm-164B", "none");
    ExperimentSpec mix1 = quickSpec("x", "none");
    mix1.mix = {"470.lbm-164B"};
    EXPECT_NE(Runner::baselineKey(workload), Runner::baselineKey(mix1));

    ExperimentSpec two = quickSpec("x", "none");
    two.num_cores = 2;
    two.mix = {"a", "b,c"};
    ExperimentSpec other = quickSpec("x", "none");
    other.num_cores = 2;
    other.mix = {"a,b", "c"};
    EXPECT_NE(Runner::baselineKey(two), Runner::baselineKey(other));
}

TEST(Runner, BaselineKeyCanonicalizesWorkloadSpecSpelling)
{
    // Registry workload specs canonicalize (sorted key order), so two
    // spellings of one parameterized workload share a cached baseline;
    // names that are not valid specs pass through verbatim and still
    // cannot collide (the key stays length-prefixed and separated).
    ExperimentSpec a = quickSpec("stream:streams=2,mem_ratio=0.4", "spp");
    ExperimentSpec b = quickSpec("stream:mem_ratio=0.4,streams=2", "spp");
    EXPECT_EQ(Runner::baselineKey(a), Runner::baselineKey(b));

    ExperimentSpec c = quickSpec("stream:streams=4,mem_ratio=0.4", "spp");
    EXPECT_NE(Runner::baselineKey(a), Runner::baselineKey(c));
}

TEST(Runner, SeedDifferingSpecsDoNotShareCachedBaseline)
{
    // Regression: two specs differing only in workload_seed used to be
    // distinguishable in the key, but this pins the end-to-end
    // behaviour (distinct baselines actually simulated and cached).
    Runner runner;
    ExperimentSpec a = quickSpec("470.lbm-164B", "stride");
    ExperimentSpec b = a;
    b.workload_seed = 1234;
    const auto oa = runner.evaluate(a);
    const auto ob = runner.evaluate(b);
    EXPECT_EQ(runner.baselinesComputed(), 2u);
    // Different seeds generate different address streams, so the two
    // baselines must not be the same run.
    EXPECT_NE(oa.baseline.llc_read_misses, ob.baseline.llc_read_misses);
}

TEST(Runner, MixSizeMustMatchCores)
{
    ExperimentSpec spec = quickSpec("x", "none");
    spec.num_cores = 2;
    spec.mix = {"470.lbm-164B"};
    EXPECT_THROW(workloadsFor(spec), std::invalid_argument);
}

TEST(Runner, HomogeneousMixClonesWithDistinctSeeds)
{
    ExperimentSpec spec = quickSpec("470.lbm-164B", "none");
    spec.num_cores = 2;
    auto ws = workloadsFor(spec);
    ASSERT_EQ(ws.size(), 2u);
    // Same name, decorrelated address streams.
    EXPECT_EQ(ws[0]->name(), ws[1]->name());
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (ws[0]->next().addr == ws[1]->next().addr);
    EXPECT_LT(same, 100);
}

// --------------------------------------------------- behavioural integration

TEST(EndToEnd, StridePrefetcherWinsOnStrideWorkload)
{
    Runner runner;
    const auto o = runner.evaluate(quickSpec("470.lbm-164B", "stride"));
    EXPECT_GT(o.metrics.speedup, 1.2);
    EXPECT_GT(o.metrics.coverage, 0.5);
}

TEST(EndToEnd, SppWinsOnDeltaChains)
{
    Runner runner;
    const auto spp =
        runner.evaluate(quickSpec("459.GemsFDTD-765B", "spp"));
    EXPECT_GT(spp.metrics.speedup, 1.5);
    EXPECT_GT(spp.metrics.coverage, 0.7);
    EXPECT_LT(spp.metrics.overprediction, 0.1);
}

TEST(EndToEnd, BingoWinsOnSpatialFootprints)
{
    Runner runner;
    const auto bingo =
        runner.evaluate(quickSpec("482.sphinx3-417B", "bingo"));
    const auto spp =
        runner.evaluate(quickSpec("482.sphinx3-417B", "spp"));
    EXPECT_GT(bingo.metrics.speedup, spp.metrics.speedup);
}

TEST(EndToEnd, IrregularWorkloadPunishesOverprediction)
{
    Runner runner;
    const auto mlop =
        runner.evaluate(quickSpec("429.mcf-184B", "mlop"));
    const auto pythia =
        runner.evaluate(quickSpec("429.mcf-184B", "pythia"));
    // MLOP overpredicts heavily on pointer chasing; Pythia must not.
    EXPECT_GT(mlop.metrics.overprediction,
              5.0 * (pythia.metrics.overprediction + 0.01));
    EXPECT_GT(pythia.metrics.speedup, mlop.metrics.speedup);
}

TEST(EndToEnd, PythiaKeepsHighAccuracy)
{
    Runner runner;
    // On unprefetchable workloads the agent converges to no-prefetch; the
    // residual issue volume comes mostly from epsilon exploration, so the
    // key property is a *low overprediction rate*, with accuracy well
    // above what a pattern prefetcher achieves here (MLOP sits near 5%).
    for (const char* w : {"429.mcf-184B", "Ligra-CC"}) {
        const auto o = runner.evaluate(quickSpec(w, "pythia"));
        EXPECT_GT(o.metrics.accuracy, 0.15) << w;
        EXPECT_LT(o.metrics.overprediction, 0.3) << w;
    }
}

TEST(EndToEnd, MoreBandwidthNeverHurtsBaseline)
{
    // Sweep-shaped: the three machine points run through the pool.
    Runner runner;
    Sweep sweep;
    std::vector<double> ipc;
    for (std::uint32_t mtps : {150u, 1200u, 9600u}) {
        ExperimentSpec spec = quickSpec("462.libquantum-1343B", "none");
        spec.mtps = mtps;
        sweep.add(spec, [&ipc](const Runner::Outcome& o) {
            ipc.push_back(o.run.ipc_geomean);
        });
    }
    ParallelRunner(3).reportTo(nullptr).run(runner, sweep);
    ASSERT_EQ(ipc.size(), 3u);
    EXPECT_LT(ipc[0], ipc[1]);
    EXPECT_LE(ipc[1], ipc[2] * 1.02);
}

TEST(EndToEnd, LargerLlcNeverHurtsSpatialWorkload)
{
    Runner runner;
    Sweep sweep;
    std::vector<double> ipc;
    for (std::uint64_t bytes : {256ull * 1024, 4ull << 20}) {
        ExperimentSpec spec = quickSpec("482.sphinx3-417B", "none");
        spec.llc_bytes_per_core = bytes;
        sweep.add(spec, [&ipc](const Runner::Outcome& o) {
            ipc.push_back(o.run.ipc_geomean);
        });
    }
    ParallelRunner(2).reportTo(nullptr).run(runner, sweep);
    ASSERT_EQ(ipc.size(), 2u);
    EXPECT_LE(ipc[0], ipc[1] * 1.05);
}

TEST(EndToEnd, MultiLevelStridePlusPythiaRuns)
{
    ExperimentSpec spec = quickSpec("470.lbm-164B", "pythia");
    spec.l1_prefetcher = "stride";
    const auto res = simulate(spec);
    EXPECT_GT(res.ipc_geomean, 0.0);
    EXPECT_GT(res.prefetch_issued, 0u);
}

TEST(EndToEnd, FourCoreRunCompletes)
{
    ExperimentSpec spec = quickSpec("Ligra-BFS", "pythia");
    spec.num_cores = 4;
    spec.warmup_instrs = 10'000;
    spec.sim_instrs = 30'000;
    const auto res = simulate(spec);
    ASSERT_EQ(res.ipc.size(), 4u);
    for (double ipc : res.ipc)
        EXPECT_GT(ipc, 0.0);
}

TEST(EndToEnd, HeterogeneousMixRuns)
{
    ExperimentSpec spec;
    spec.prefetcher = "pythia";
    spec.num_cores = 2;
    spec.mix = {"470.lbm-164B", "429.mcf-184B"};
    spec.warmup_instrs = 10'000;
    spec.sim_instrs = 30'000;
    const auto res = simulate(spec);
    ASSERT_EQ(res.ipc.size(), 2u);
    // The regular workload should run faster than the pointer chaser.
    EXPECT_GT(res.ipc[0], res.ipc[1]);
}

TEST(EndToEnd, StrictPythiaMoreAccurateOnGraphs)
{
    Runner runner;
    ExperimentSpec basic = quickSpec("Ligra-PageRank", "pythia");
    ExperimentSpec strict = quickSpec("Ligra-PageRank", "pythia_strict");
    const auto ob = runner.evaluate(basic);
    const auto os = runner.evaluate(strict);
    EXPECT_GE(os.metrics.accuracy, ob.metrics.accuracy - 0.05);
    EXPECT_LE(os.metrics.overprediction,
              ob.metrics.overprediction + 0.02);
}

/** Determinism across the whole stack, parameterized by prefetcher. */
class EndToEndDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EndToEndDeterminism, SameSpecSameNumbers)
{
    ExperimentSpec spec = quickSpec("482.sphinx3-417B", GetParam());
    spec.warmup_instrs = 10'000;
    spec.sim_instrs = 30'000;
    const auto a = simulate(spec);
    const auto b = simulate(spec);
    EXPECT_DOUBLE_EQ(a.ipc_geomean, b.ipc_geomean);
    EXPECT_EQ(a.llc_read_misses, b.llc_read_misses);
    EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
}

INSTANTIATE_TEST_SUITE_P(
    Prefetchers, EndToEndDeterminism,
    ::testing::Values("none", "spp", "bingo", "mlop", "pythia",
                      "spp_ppf", "dspatch", "cp_hw", "power7"),
    [](const auto& info) { return info.param; });

} // namespace
} // namespace pythia::harness
