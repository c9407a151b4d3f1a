/**
 * @file
 * Snapshot restore→advance golden gate (ctest label: golden).
 *
 * Over the same eight-cell grid the golden-metrics suite pins, this
 * suite checks the snapshot subsystem's core contract: a session
 * restored from a post-warmup snapshot and advanced to completion is
 * bit-identical — every RunResult field, doubles compared with == —
 * to the session that ran straight through.
 *
 * OneCell is a cheap standalone version of the grid test
 * (--gtest_filter='*OneCell*') for the sanitizer CI job, where the
 * full grid would be too slow.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/session.hpp"
#include "snapshot/snapshot.hpp"

namespace pythia {
namespace {

namespace fs = std::filesystem;

struct GridCell
{
    const char* workload;
    const char* prefetcher;
    std::uint32_t cores;
};

/** The golden-metrics grid (tests/test_golden_metrics.cpp), verbatim:
 *  restore→advance must hold for every cell the goldens pin. */
const GridCell kGrid[] = {
    {"462.libquantum-1343B", "pythia", 1},
    {"459.GemsFDTD-765B", "spp", 1},
    {"482.sphinx3-417B", "bingo", 1},
    {"429.mcf-184B", "stride", 1},
    {"Ligra-CC", "stride+spp", 1},
    {"Ligra-PageRank", "pythia", 4},
    {"PARSEC-Canneal", "spp", 4},
    {"Cloudsuite-Cassandra", "bingo", 4},
};

harness::ExperimentSpec
specFor(const GridCell& cell)
{
    return {.workload = cell.workload,
            .prefetcher = cell.prefetcher,
            .num_cores = cell.cores,
            .warmup_instrs = 20'000,
            .sim_instrs = 50'000};
}

std::string
cellName(const GridCell& cell)
{
    return std::string(cell.workload) + " x " + cell.prefetcher + " x " +
           std::to_string(cell.cores) + "c";
}

void
expectSameResult(const sim::RunResult& a, const sim::RunResult& b,
                 const std::string& what)
{
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.ipc_geomean, b.ipc_geomean) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.llc_demand_load_misses, b.llc_demand_load_misses) << what;
    EXPECT_EQ(a.llc_read_misses, b.llc_read_misses) << what;
    EXPECT_EQ(a.prefetch_issued, b.prefetch_issued) << what;
    EXPECT_EQ(a.prefetch_useful, b.prefetch_useful) << what;
    EXPECT_EQ(a.prefetch_useless, b.prefetch_useless) << what;
    EXPECT_EQ(a.prefetch_late, b.prefetch_late) << what;
    EXPECT_EQ(a.dram_buckets, b.dram_buckets) << what;
    EXPECT_EQ(a.dram_utilization, b.dram_utilization) << what;
    EXPECT_EQ(a.core_cycles, b.core_cycles) << what;
    EXPECT_EQ(a.dram_bucket_epochs, b.dram_bucket_epochs) << what;
}

/** Snapshot after warmup, run straight through, then resume from the
 *  snapshot and run again: both results must match bit-exactly. */
void
checkRestoreAdvance(const GridCell& cell)
{
    const harness::ExperimentSpec spec = specFor(cell);
    const std::string path =
        (fs::path(::testing::TempDir()) /
         ("golden-" + std::to_string(snap::fnv1a(cellName(cell))) +
          ".snap"))
            .string();

    harness::SimSession cold(spec);
    cold.runWarmup();
    cold.snapshotTo(path);
    const sim::RunResult straight = cold.runToCompletion();

    harness::SimSession resumed =
        harness::SimSession::resumeFrom(spec, path);
    const sim::RunResult replayed = resumed.runToCompletion();
    expectSameResult(straight, replayed, cellName(cell));
    fs::remove(path);
}

TEST(SnapshotGolden, OneCellRestoreAdvanceIsBitExact)
{
    checkRestoreAdvance(kGrid[0]);
}

TEST(SnapshotGolden, FullGridRestoreAdvanceIsBitExact)
{
    // Cell 0 is OneCell's; still run it here so a full-suite pass
    // covers the grid without depending on test ordering or filters.
    for (const GridCell& cell : kGrid)
        checkRestoreAdvance(cell);
}

} // namespace
} // namespace pythia
