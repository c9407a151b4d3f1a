/**
 * @file
 * Whole-system property tests swept over the (workload x prefetcher)
 * grid: metric sanity bounds, conservation identities in the cache
 * statistics, prefetcher non-interference with correctness-style
 * invariants, and machine-parameter monotonicity.
 */
#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "sim/prefetcher_registry.hpp"
#include "sim/system.hpp"
#include "workloads/suites.hpp"

namespace pythia::harness {
namespace {

struct GridParam
{
    std::string workload;
    std::string prefetcher;
};

std::string
paramName(const ::testing::TestParamInfo<GridParam>& info)
{
    std::string n = info.param.workload + "__" + info.param.prefetcher;
    for (auto& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

class SystemGrid : public ::testing::TestWithParam<GridParam>
{
  protected:
    ExperimentSpec spec() const
    {
        return {.workload = GetParam().workload,
                .prefetcher = GetParam().prefetcher,
                .warmup_instrs = 15'000,
                .sim_instrs = 40'000};
    }
};

TEST_P(SystemGrid, MetricsWithinSaneBounds)
{
    Runner runner;
    const auto o = runner.evaluate(spec());
    EXPECT_GT(o.run.ipc_geomean, 0.0);
    EXPECT_LE(o.run.ipc_geomean, 4.0); // bounded by core width
    EXPECT_LE(o.metrics.coverage, 1.0);
    EXPECT_GE(o.metrics.accuracy, 0.0);
    EXPECT_LE(o.metrics.accuracy, 1.0);
    EXPECT_GE(o.metrics.overprediction, 0.0);
}

TEST_P(SystemGrid, CoverageRequiresPrefetches)
{
    Runner runner;
    const auto o = runner.evaluate(spec());
    if (o.metrics.coverage > 0.05) {
        EXPECT_GT(o.run.prefetch_issued, 0u);
    }
}

TEST_P(SystemGrid, PrefetchAccountingConserved)
{
    // With no warmup, no prefetched block can predate the measurement
    // window, so useful + useless <= issued (the rest is still
    // resident), and late <= useful.
    ExperimentSpec s = spec();
    s.warmup_instrs = 0;
    const auto res = simulate(s);
    EXPECT_LE(res.prefetch_useful + res.prefetch_useless,
              res.prefetch_issued);
    EXPECT_LE(res.prefetch_late, res.prefetch_useful);
}

TEST_P(SystemGrid, DemandHitsPlusMissesEqualAccesses)
{
    ExperimentSpec s = spec();
    sim::System system(systemConfigFor(s), workloadsFor(s));
    if (auto built = sim::makePrefetcher(s.prefetcher))
        system.attachL2Prefetcher(0, std::move(built));
    system.warmup(s.warmup_instrs);
    const auto res = system.run(s.sim_instrs);
    (void)res;
    const auto& l1 = system.l1(0).stats();
    EXPECT_GE(l1.counter("demand_load_access"),
              l1.counter("demand_load_miss"));
    const auto& llc = system.llc().stats();
    EXPECT_GE(llc.counter("read_miss_total"),
              llc.counter("demand_load_miss"));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SystemGrid,
    ::testing::Values(
        GridParam{"462.libquantum-1343B", "pythia"},
        GridParam{"462.libquantum-1343B", "bingo"},
        GridParam{"459.GemsFDTD-765B", "spp"},
        GridParam{"459.GemsFDTD-765B", "pythia"},
        GridParam{"482.sphinx3-417B", "bingo"},
        GridParam{"482.sphinx3-417B", "mlop"},
        GridParam{"429.mcf-184B", "pythia"},
        GridParam{"429.mcf-184B", "spp_ppf"},
        GridParam{"Ligra-CC", "pythia_strict"},
        GridParam{"Ligra-PageRank", "dspatch"},
        GridParam{"Cloudsuite-Cassandra", "pythia"},
        GridParam{"PARSEC-Facesim", "st_s_b_d_m"},
        GridParam{"470.lbm-164B", "ipcp"},
        GridParam{"605.mcf_s-665B", "power7"},
        GridParam{"crypto-aes-17", "cp_hw"}),
    paramName);

// --------------------------------------------------- machine monotonicity

TEST(MachineSweep, PrefetchedIpcNonDecreasingInBandwidthForStreams)
{
    std::vector<double> ipcs;
    for (std::uint32_t mtps : {300u, 1200u, 4800u}) {
        ExperimentSpec s;
        s.workload = "410.bwaves-945B";
        s.prefetcher = "streamer";
        s.mtps = mtps;
        s.warmup_instrs = 15'000;
        s.sim_instrs = 40'000;
        ipcs.push_back(simulate(s).ipc_geomean);
    }
    EXPECT_LE(ipcs[0], ipcs[1] * 1.02);
    EXPECT_LE(ipcs[1], ipcs[2] * 1.02);
}

TEST(MachineSweep, DramUtilizationDropsWithMoreBandwidth)
{
    auto util_at = [](std::uint32_t mtps) {
        ExperimentSpec s;
        s.workload = "Ligra-PageRank";
        s.prefetcher = "none";
        s.mtps = mtps;
        s.warmup_instrs = 15'000;
        s.sim_instrs = 40'000;
        return simulate(s).dram_utilization;
    };
    EXPECT_GT(util_at(150), util_at(9600));
}

TEST(MachineSweep, BandwidthAwarenessEngagesOnlyUnderPressure)
{
    // At 9600 MTPS the bw-oblivious ablation must track basic Pythia
    // closely (the paper's Fig. 11 right end).
    Runner runner;
    ExperimentSpec basic;
    basic.workload = "Ligra-CC";
    basic.prefetcher = "pythia";
    basic.mtps = 9600;
    basic.warmup_instrs = 30'000;
    basic.sim_instrs = 60'000;
    ExperimentSpec obl = basic;
    obl.prefetcher = "pythia_bwobl";
    const double b = runner.evaluate(basic).metrics.speedup;
    const double o = runner.evaluate(obl).metrics.speedup;
    EXPECT_NEAR(o / b, 1.0, 0.10);
}

TEST(MachineSweep, TwelveCoreSystemConstructsAndRuns)
{
    ExperimentSpec s;
    s.workload = "470.lbm-164B";
    s.prefetcher = "pythia";
    s.num_cores = 12;
    s.warmup_instrs = 2'000;
    s.sim_instrs = 6'000;
    const auto res = simulate(s);
    ASSERT_EQ(res.ipc.size(), 12u);
    for (double ipc : res.ipc)
        EXPECT_GT(ipc, 0.0);
}

} // namespace
} // namespace pythia::harness
