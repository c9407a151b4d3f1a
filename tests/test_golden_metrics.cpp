/**
 * @file
 * Golden-metrics regression suite (ctest label: golden).
 *
 * Runs a fixed grid of eight ExperimentSpecs — pythia / spp / bingo /
 * stride (plus one composite), one and four cores — and compares the
 * full RunResult + Metrics against golden values checked into
 * golden_metrics.inc, bit-exact (doubles are compared with ==, the
 * golden table stores them as hexfloat literals so no decimal rounding
 * sneaks in).
 *
 * This is the contract that lets hot-path optimizations land safely:
 * any change to cache lookup, EQ search, QVStore indexing, feature
 * hashing or metrics accumulation must leave every number in this grid
 * untouched. A legitimate *modelling* change (one that is supposed to
 * alter simulation results) regenerates the table:
 *
 *     PYTHIA_GOLDEN_REGEN=1 ./test_golden_metrics
 *
 * prints the new golden_metrics.inc content between the REGEN markers
 * and writes it to golden_metrics_generated.inc in the working
 * directory; copy it over tests/golden_metrics.inc and say in the PR
 * why the numbers moved.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace {

using namespace pythia;

/** One golden grid cell: the spec axes and every pinned number. */
struct GoldenRow
{
    const char* workload;
    const char* prefetcher;
    std::uint32_t cores;
    // RunResult of the prefetched run
    double ipc_geomean;
    std::uint64_t llc_demand_load_misses;
    std::uint64_t llc_read_misses;
    std::uint64_t prefetch_issued;
    std::uint64_t prefetch_useful;
    // RunResult of the no-prefetching baseline
    double baseline_ipc_geomean;
    // Derived paper metrics
    double speedup;
    double coverage;
    double overprediction;
    double accuracy;
};

const GoldenRow kGolden[] = {
#include "golden_metrics.inc"
};

/** The grid definition; must stay in sync with the table above (regen
 *  iterates exactly this list). Windows are deliberately short — the
 *  suite pins behaviour, it does not reproduce paper numbers. */
std::vector<GoldenRow>
goldenGrid()
{
    // Only the axes; golden fields zeroed (filled by run or table).
    return {
        {"462.libquantum-1343B", "pythia", 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {"459.GemsFDTD-765B", "spp", 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {"482.sphinx3-417B", "bingo", 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {"429.mcf-184B", "stride", 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {"Ligra-CC", "stride+spp", 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {"Ligra-PageRank", "pythia", 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {"PARSEC-Canneal", "spp", 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {"Cloudsuite-Cassandra", "bingo", 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
    };
}

harness::Runner::Outcome
runCell(const GoldenRow& cell)
{
    static harness::Runner runner; // shares baselines across cells
    return runner.evaluate({.workload = cell.workload,
                            .prefetcher = cell.prefetcher,
                            .num_cores = cell.cores,
                            .warmup_instrs = 20'000,
                            .sim_instrs = 50'000});
}

/** Bit-exact double comparison with a diff that names the cell, the
 *  field, and both decimal and hexfloat forms of each side. */
void
expectSameDouble(const GoldenRow& cell, const char* field, double got,
                 double want)
{
    EXPECT_EQ(got, want) << cell.workload << " x " << cell.prefetcher
                         << " x " << cell.cores << "c: " << field
                         << " drifted\n  golden: "
                         << ::testing::PrintToString(want) << "\n  got:    "
                         << ::testing::PrintToString(got);
}

void
expectSameU64(const GoldenRow& cell, const char* field, std::uint64_t got,
              std::uint64_t want)
{
    EXPECT_EQ(got, want) << cell.workload << " x " << cell.prefetcher
                         << " x " << cell.cores << "c: " << field
                         << " drifted";
}

void
printRow(std::FILE* f, const GoldenRow& cell,
         const harness::Runner::Outcome& o)
{
    std::fprintf(
        f,
        "{\"%s\", \"%s\", %u,\n"
        " %a, %" PRIu64 "ull, %" PRIu64 "ull, %" PRIu64 "ull, %" PRIu64
        "ull,\n"
        " %a, %a, %a, %a, %a},\n",
        cell.workload, cell.prefetcher, cell.cores, o.run.ipc_geomean,
        o.run.llc_demand_load_misses, o.run.llc_read_misses,
        o.run.prefetch_issued, o.run.prefetch_useful,
        o.baseline.ipc_geomean, o.metrics.speedup, o.metrics.coverage,
        o.metrics.overprediction, o.metrics.accuracy);
}

bool
regenMode()
{
    const char* env = std::getenv("PYTHIA_GOLDEN_REGEN");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

TEST(GoldenMetrics, GridMatchesGoldenTable)
{
    const std::vector<GoldenRow> grid = goldenGrid();

    if (regenMode()) {
        std::FILE* inc =
            std::fopen("golden_metrics_generated.inc", "w");
        std::printf("// ---- REGEN BEGIN: tests/golden_metrics.inc ----\n");
        for (const GoldenRow& cell : grid) {
            const auto o = runCell(cell);
            printRow(stdout, cell, o);
            if (inc)
                printRow(inc, cell, o);
        }
        std::printf("// ---- REGEN END ----\n");
        if (inc)
            std::fclose(inc);
        GTEST_SKIP() << "regen mode: golden table printed, not compared";
    }

    ASSERT_EQ(std::size(kGolden), grid.size())
        << "golden_metrics.inc rows out of sync with the grid; "
           "regenerate with PYTHIA_GOLDEN_REGEN=1";

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const GoldenRow& want = kGolden[i];
        ASSERT_STREQ(want.workload, grid[i].workload)
            << "row " << i << " axes out of sync — regenerate";
        ASSERT_STREQ(want.prefetcher, grid[i].prefetcher)
            << "row " << i << " axes out of sync — regenerate";
        ASSERT_EQ(want.cores, grid[i].cores)
            << "row " << i << " axes out of sync — regenerate";

        const auto o = runCell(want);
        expectSameDouble(want, "ipc_geomean", o.run.ipc_geomean,
                         want.ipc_geomean);
        expectSameU64(want, "llc_demand_load_misses",
                      o.run.llc_demand_load_misses,
                      want.llc_demand_load_misses);
        expectSameU64(want, "llc_read_misses", o.run.llc_read_misses,
                      want.llc_read_misses);
        expectSameU64(want, "prefetch_issued", o.run.prefetch_issued,
                      want.prefetch_issued);
        expectSameU64(want, "prefetch_useful", o.run.prefetch_useful,
                      want.prefetch_useful);
        expectSameDouble(want, "baseline_ipc_geomean",
                         o.baseline.ipc_geomean,
                         want.baseline_ipc_geomean);
        expectSameDouble(want, "speedup", o.metrics.speedup,
                         want.speedup);
        expectSameDouble(want, "coverage", o.metrics.coverage,
                         want.coverage);
        expectSameDouble(want, "overprediction",
                         o.metrics.overprediction, want.overprediction);
        expectSameDouble(want, "accuracy", o.metrics.accuracy,
                         want.accuracy);
    }
}

/** The golden run must also be reproducible within one process: the
 *  same cell evaluated twice yields bit-identical results (catches
 *  accidental cross-run state in caches or registries). */
TEST(GoldenMetrics, CellRerunIsBitIdentical)
{
    const GoldenRow cell = goldenGrid().front();
    const auto a = runCell(cell);
    const auto b = runCell(cell);
    EXPECT_EQ(a.run.ipc_geomean, b.run.ipc_geomean);
    EXPECT_EQ(a.run.llc_demand_load_misses, b.run.llc_demand_load_misses);
    EXPECT_EQ(a.run.llc_read_misses, b.run.llc_read_misses);
    EXPECT_EQ(a.run.prefetch_issued, b.run.prefetch_issued);
    EXPECT_EQ(a.metrics.speedup, b.metrics.speedup);
}

} // namespace
