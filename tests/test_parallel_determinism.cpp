/**
 * @file
 * Determinism and safety of the parallel sweep engine: a representative
 * multi-axis sweep must produce bit-identical RunResult/Metrics streams
 * for jobs=1 and jobs=8 (catching stray shared RNG or stats state), the
 * ordered replay must follow declaration order regardless of worker
 * scheduling, the shared baseline cache must compute each key exactly
 * once under contention, and job exceptions must propagate
 * deterministically.
 *
 * The determinism rule extends across the process boundary (DESIGN.md
 * §11): workers=N subprocesses via harness::ShardCoordinator must
 * reproduce the same bits as the thread pool, and a job exception must
 * surface as the same type with the same message whatever the topology.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "harness/shard.hpp"
#include "harness/sweep.hpp"

namespace pythia::harness {
namespace {

/** Every RunResult field, compared exactly (no tolerance: doubles from
 *  the same deterministic simulation must match to the bit). */
void
expectBitIdentical(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.ipc_geomean, b.ipc_geomean);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llc_demand_load_misses, b.llc_demand_load_misses);
    EXPECT_EQ(a.llc_read_misses, b.llc_read_misses);
    EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
    EXPECT_EQ(a.prefetch_useful, b.prefetch_useful);
    EXPECT_EQ(a.prefetch_useless, b.prefetch_useless);
    EXPECT_EQ(a.prefetch_late, b.prefetch_late);
    EXPECT_EQ(a.dram_buckets, b.dram_buckets);
    EXPECT_EQ(a.dram_utilization, b.dram_utilization);
}

void
expectBitIdentical(const Metrics& a, const Metrics& b)
{
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.overprediction, b.overprediction);
    EXPECT_EQ(a.accuracy, b.accuracy);
}

/** A tiny single-core job on @p workload, no prefetcher. */
ExperimentSpec
tinySpec(const char* workload)
{
    return {.workload = workload, .warmup_instrs = 1'000, .sim_instrs = 2'000};
}

/** A cross-section of the grids the benches run: workloads x
 *  prefetchers, plus a multi-core and a bandwidth-constrained point. */
Sweep
representativeSweep()
{
    Sweep sweep;
    for (const char* w :
         {"462.libquantum-1343B", "459.GemsFDTD-765B", "429.mcf-184B"})
        for (const char* pf : {"none", "stride", "spp", "pythia"})
            sweep.add({.workload = w,
                       .prefetcher = pf,
                       .warmup_instrs = 5'000,
                       .sim_instrs = 15'000});
    sweep.add({.workload = "Ligra-BFS",
               .prefetcher = "pythia",
               .num_cores = 2,
               .warmup_instrs = 4'000,
               .sim_instrs = 8'000});
    sweep.add({.workload = "Ligra-CC",
               .prefetcher = "bingo",
               .mtps = 300,
               .warmup_instrs = 5'000,
               .sim_instrs = 15'000});
    return sweep;
}

TEST(ParallelDeterminism, JobsOneAndJobsEightBitIdentical)
{
    Sweep reference_sweep = representativeSweep();
    Sweep parallel_sweep = representativeSweep();

    Runner reference_runner;
    const auto reference = ParallelRunner(1).reportTo(nullptr).run(
        reference_runner, reference_sweep);

    Runner parallel_runner;
    const auto parallel = ParallelRunner(8).reportTo(nullptr).run(
        parallel_runner, parallel_sweep);

    ASSERT_EQ(reference.size(), parallel.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectBitIdentical(reference[i].run, parallel[i].run);
        expectBitIdentical(reference[i].baseline, parallel[i].baseline);
        expectBitIdentical(reference[i].metrics, parallel[i].metrics);
    }
    EXPECT_EQ(reference_runner.baselinesComputed(),
              parallel_runner.baselinesComputed());
}

TEST(ParallelDeterminism, ReplayFollowsDeclarationOrder)
{
    Runner runner;
    Sweep sweep;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        sweep.add({.workload = "470.lbm-164B",
                   .prefetcher = i % 2 ? "stride" : "none",
                   .warmup_instrs = 1'000,
                   .sim_instrs = static_cast<std::uint64_t>(2'000 + 100 * i)},
                  [&order, i](const Runner::Outcome&) {
                      order.push_back(2 * i);
                  });
        sweep.then([&order, i] { order.push_back(2 * i + 1); });
    }
    ParallelRunner(4).reportTo(nullptr).run(runner, sweep);
    ASSERT_EQ(order.size(), 12u);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelDeterminism, BaselineComputedOncePerKeyUnderContention)
{
    // Eight workers, eight prefetchers, one machine+workload point: the
    // per-key once-semantics must simulate the shared baseline exactly
    // once, not eight times (and never race the map).
    Runner runner;
    Sweep sweep;
    for (const char* pf : {"none", "stride", "streamer", "nextline",
                           "spp", "bingo", "mlop", "pythia"})
        sweep.add({.workload = "470.lbm-164B",
                   .prefetcher = pf,
                   .warmup_instrs = 2'000,
                   .sim_instrs = 6'000});
    const auto outcomes =
        ParallelRunner(8).reportTo(nullptr).run(runner, sweep);
    EXPECT_EQ(runner.baselinesComputed(), 1u);
    // Every job saw the same baseline object's numbers.
    for (const auto& o : outcomes)
        expectBitIdentical(o.baseline, outcomes.front().baseline);
}

TEST(ParallelDeterminism, FirstExceptionByJobOrderPropagates)
{
    Runner runner;
    Sweep sweep;
    std::atomic<int> callbacks{0};
    sweep.add(tinySpec("470.lbm-164B"),
              [&callbacks](const Runner::Outcome&) { ++callbacks; });
    sweep.add(tinySpec("no-such-workload"));
    sweep.add(tinySpec("also-missing"));
    ParallelRunner pool(4);
    pool.reportTo(nullptr);
    EXPECT_THROW(pool.run(runner, sweep), std::invalid_argument);
    // No callbacks replay after a failed sweep.
    EXPECT_EQ(callbacks.load(), 0);
}

TEST(ParallelDeterminism, ReportCountsExperimentsAndWorkers)
{
    Runner runner;
    Sweep sweep;
    for (int i = 0; i < 3; ++i)
        sweep.add(tinySpec("470.lbm-164B"));
    std::ostringstream report;
    ParallelRunner pool(16);
    pool.reportTo(&report);
    pool.run(runner, sweep);
    EXPECT_EQ(pool.lastReport().experiments, 3u);
    // Workers are clamped to the job count.
    EXPECT_EQ(pool.lastReport().jobs, 3u);
    EXPECT_GE(pool.lastReport().seconds, 0.0);
    EXPECT_NE(report.str().find("3 experiments"), std::string::npos);
    EXPECT_NE(report.str().find("jobs=3"), std::string::npos);
}

TEST(ParallelDeterminism, EmptySweepIsANoOp)
{
    Runner runner;
    Sweep sweep;
    std::ostringstream report;
    ParallelRunner pool(8);
    pool.reportTo(&report);
    EXPECT_TRUE(pool.run(runner, sweep).empty());
    EXPECT_TRUE(report.str().empty());
    EXPECT_EQ(runner.baselinesComputed(), 0u);
}

TEST(ParallelDeterminism, ZeroJobsResolvesToHardwareConcurrency)
{
    EXPECT_GE(ParallelRunner(0).jobs(), 1u);
    EXPECT_EQ(ParallelRunner(0).jobs(), ParallelRunner::defaultJobs());
    EXPECT_EQ(ParallelRunner(5).jobs(), 5u);
}

TEST(ParallelDeterminism, ThreadsAndProcessesBitIdentical)
{
    // The full topology matrix on one grid: jobs=8 threads vs
    // workers=4 subprocesses vs workers=1 subprocess. Any divergence
    // means per-process state (RNG seeding, registry order, baseline
    // computation) leaked into the results.
    Sweep threads_sweep = representativeSweep();
    Runner threads_runner;
    const auto threads = ParallelRunner(8).reportTo(nullptr).run(
        threads_runner, threads_sweep);

    const auto sharded = [](unsigned workers) {
        Sweep sweep = representativeSweep();
        Runner runner;
        ShardOptions opt;
        opt.workers = workers;
        ShardCoordinator coordinator(opt);
        return coordinator.run(runner, sweep);
    };
    const auto processes4 = sharded(4);
    const auto processes1 = sharded(1);

    ASSERT_EQ(threads.size(), processes4.size());
    ASSERT_EQ(threads.size(), processes1.size());
    for (std::size_t i = 0; i < threads.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectBitIdentical(threads[i].run, processes4[i].run);
        expectBitIdentical(threads[i].baseline, processes4[i].baseline);
        expectBitIdentical(threads[i].metrics, processes4[i].metrics);
        expectBitIdentical(threads[i].run, processes1[i].run);
        expectBitIdentical(threads[i].baseline, processes1[i].baseline);
        expectBitIdentical(threads[i].metrics, processes1[i].metrics);
    }
}

TEST(ParallelDeterminism, ErrorPropagationMatchesAcrossProcessBoundary)
{
    // A throwing job must fail the sweep identically whatever the
    // topology: same exception type, same message, no callbacks — and
    // always the FIRST failing job by declaration order, even when a
    // later failing job finishes earlier on another worker.
    const auto build = [](std::atomic<int>& callbacks) {
        Sweep sweep;
        sweep.add(tinySpec("470.lbm-164B"),
                  [&callbacks](const Runner::Outcome&) { ++callbacks; });
        sweep.add(tinySpec("no-such-workload"));
        sweep.add(tinySpec("also-missing"));
        return sweep;
    };

    std::string inline_what;
    {
        std::atomic<int> callbacks{0};
        Sweep sweep = build(callbacks);
        Runner runner;
        ParallelRunner pool(8);
        pool.reportTo(nullptr);
        try {
            pool.run(runner, sweep);
            FAIL() << "in-process sweep did not throw";
        } catch (const std::invalid_argument& e) {
            inline_what = e.what();
        }
        EXPECT_EQ(callbacks.load(), 0);
    }
    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::atomic<int> callbacks{0};
        Sweep sweep = build(callbacks);
        Runner runner;
        ShardOptions opt;
        opt.workers = workers;
        ShardCoordinator coordinator(opt);
        try {
            coordinator.run(runner, sweep);
            FAIL() << "sharded sweep did not throw";
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()), inline_what);
        }
        EXPECT_EQ(callbacks.load(), 0);
    }
}

} // namespace
} // namespace pythia::harness
