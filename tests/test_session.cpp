/**
 * @file
 * Streaming-session suite (ctest label: property).
 *
 * Pins the contracts of the SimSession API (harness/session.hpp):
 *
 *  - Window algebra: composing the per-window deltas of ANY window
 *    partition reproduces the session's cumulative RunResult
 *    bit-exactly, for 1-core and 4-core machines, pythia and spp.
 *  - Batch equivalence: a session that spends its budget in one
 *    advance() — and, on a single core, in any window partition — is
 *    bit-identical to harness::simulate().
 *  - Observer lifecycle: onWarmupEnd once before the first window,
 *    onWindowEnd per advance(), onRunEnd exactly once at budget
 *    exhaustion.
 *  - Runner::evaluateWindowed: single-boundary streaming degenerates
 *    to evaluate() bit-exactly, and the windowed baseline series is
 *    cached once per (key, boundaries).
 *  - Zero-denominator conventions of RunResult::accuracy() and
 *    computeMetrics() (harness/metrics.hpp).
 *  - Strict-CLI did-you-mean coverage for the session/window bench
 *    flags (windows=, window_instrs=, series_out=).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "harness/timeseries.hpp"

namespace {

using namespace pythia;

harness::ExperimentSpec
specFor(const std::string& workload, const std::string& pf,
        std::uint32_t cores)
{
    return {.workload = workload,
            .prefetcher = pf,
            .num_cores = cores,
            .warmup_instrs = 10'000,
            .sim_instrs = 40'000};
}

void
expectSameRunResult(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t c = 0; c < a.ipc.size(); ++c)
        EXPECT_EQ(a.ipc[c], b.ipc[c]) << "core " << c;
    EXPECT_EQ(a.ipc_geomean, b.ipc_geomean);
    EXPECT_EQ(a.llc_demand_load_misses, b.llc_demand_load_misses);
    EXPECT_EQ(a.llc_read_misses, b.llc_read_misses);
    EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
    EXPECT_EQ(a.prefetch_useful, b.prefetch_useful);
    EXPECT_EQ(a.prefetch_useless, b.prefetch_useless);
    EXPECT_EQ(a.prefetch_late, b.prefetch_late);
    EXPECT_EQ(a.core_cycles, b.core_cycles);
    EXPECT_EQ(a.dram_bucket_epochs, b.dram_bucket_epochs);
    ASSERT_EQ(a.dram_buckets.size(), b.dram_buckets.size());
    for (std::size_t i = 0; i < a.dram_buckets.size(); ++i)
        EXPECT_EQ(a.dram_buckets[i], b.dram_buckets[i]) << "bucket " << i;
    EXPECT_EQ(a.dram_utilization, b.dram_utilization);
    EXPECT_EQ(a.accuracy(), b.accuracy());
}

/** Stream @p spec over uneven windows; return (deltas, cumulative). */
std::pair<std::vector<sim::RunResult>, sim::RunResult>
streamUneven(const harness::ExperimentSpec& spec)
{
    harness::SimSession session(spec);
    std::vector<sim::RunResult> deltas;
    // Deliberately uneven partition of the 40k budget, with a final
    // over-sized request that the session clamps.
    for (std::uint64_t step : {7'000ull, 13'000ull, 1'000ull, 50'000ull}) {
        if (session.advance(step) > 0)
            deltas.push_back(session.lastWindow().delta);
    }
    EXPECT_TRUE(session.done());
    return {deltas, session.cumulative()};
}

// ------------------------------------------------------- window algebra

class WindowAlgebra
    : public ::testing::TestWithParam<std::tuple<const char*, int>>
{
};

TEST_P(WindowAlgebra, ComposedDeltasEqualCumulativeBitExactly)
{
    const auto [pf, cores] = GetParam();
    const auto spec = specFor(
        cores == 1 ? "429.mcf-184B" : "Ligra-PageRank", pf,
        static_cast<std::uint32_t>(cores));
    const auto [deltas, cumulative] = streamUneven(spec);
    ASSERT_EQ(deltas.size(), 4u);
    expectSameRunResult(harness::composeDeltas(deltas), cumulative);

    // The counter fields also telescope window by window.
    std::uint64_t issued = 0;
    for (const auto& d : deltas)
        issued += d.prefetch_issued;
    EXPECT_EQ(issued, cumulative.prefetch_issued);
}

INSTANTIATE_TEST_SUITE_P(
    PrefetcherByCores, WindowAlgebra,
    ::testing::Combine(::testing::Values("pythia", "spp"),
                       ::testing::Values(1, 4)));

// ----------------------------------------------------- batch equivalence

TEST(SimSession, SingleAdvanceMatchesSimulateBitExactly)
{
    for (std::uint32_t cores : {1u, 4u}) {
        const auto spec = specFor("482.sphinx3-417B", "spp", cores);
        harness::SimSession session(spec);
        const sim::RunResult streamed = session.runToCompletion();
        expectSameRunResult(streamed, harness::simulate(spec));
    }
}

TEST(SimSession, SingleCoreAnyPartitionMatchesSimulateBitExactly)
{
    // Absolute window targets make single-core execution
    // window-invariant: the machine passes through the same states
    // whatever the observation boundaries (DESIGN.md §8).
    const auto spec = specFor("459.GemsFDTD-765B", "pythia", 1);
    const auto [deltas, cumulative] = streamUneven(spec);
    (void)deltas;
    expectSameRunResult(cumulative, harness::simulate(spec));
}

// ---------------------------------------------------- observer lifecycle

struct RecordingObserver final : harness::SessionObserver
{
    std::vector<std::string> events;
    std::vector<harness::WindowSample> samples;

    void onWarmupEnd(harness::SimSession&) override
    {
        events.push_back("warmup");
    }
    void onWindowEnd(harness::SimSession& session,
                     const harness::WindowSample& w) override
    {
        events.push_back("window");
        samples.push_back(w);
        EXPECT_EQ(session.windowsCompleted(), w.index + 1);
    }
    void onRunEnd(harness::SimSession&,
                  const sim::RunResult& final_result) override
    {
        events.push_back("end");
        EXPECT_EQ(final_result.instructions, 30'000u);
    }
};

TEST(SimSession, ObserverLifecycle)
{
    auto observer = std::make_shared<RecordingObserver>();
    harness::SimSession session(
        harness::ExperimentSpec{.workload = "462.libquantum-1343B",
                                .prefetcher = "stride",
                                .warmup_instrs = 5'000,
                                .sim_instrs = 30'000});
    session.addObserver(observer);

    EXPECT_FALSE(session.warmupDone());
    EXPECT_EQ(session.advance(10'000), 10'000u);
    EXPECT_TRUE(session.warmupDone());
    EXPECT_EQ(session.advance(50'000), 20'000u); // clamped to budget
    EXPECT_TRUE(session.done());
    EXPECT_EQ(session.advance(1'000), 0u);  // done: no-op, no hooks
    session.runToCompletion();              // idempotent, no double end

    ASSERT_EQ(observer->events,
              (std::vector<std::string>{"warmup", "window", "window",
                                        "end"}));
    ASSERT_EQ(observer->samples.size(), 2u);
    EXPECT_EQ(observer->samples[0].instrs_begin, 0u);
    EXPECT_EQ(observer->samples[0].instrs_end, 10'000u);
    EXPECT_EQ(observer->samples[1].instrs_begin, 10'000u);
    EXPECT_EQ(observer->samples[1].instrs_end, 30'000u);
    EXPECT_EQ(session.windowsCompleted(), 2u);
    expectSameRunResult(observer->samples.back().cumulative,
                        session.cumulative());
    expectSameRunResult(observer->samples.back().delta,
                        session.lastWindow().delta);
}

TEST(SimSession, LastWindowThrowsBeforeFirstAdvance)
{
    harness::SimSession session(specFor("429.mcf-184B", "none", 1));
    EXPECT_THROW(session.lastWindow(), std::logic_error);
}

// --------------------------------------------------- windowed evaluation

TEST(EvaluateWindowed, SingleBoundaryDegeneratesToEvaluate)
{
    const auto spec = specFor("Ligra-CC", "spp", 1);
    harness::Runner runner;
    const auto batch = runner.evaluate(spec);
    const auto windowed =
        runner.evaluateWindowed(spec, {spec.sim_instrs});
    ASSERT_EQ(windowed.run.size(), 1u);
    expectSameRunResult(windowed.final.run, batch.run);
    expectSameRunResult(windowed.final.baseline, batch.baseline);
    EXPECT_EQ(windowed.final.metrics.speedup, batch.metrics.speedup);
    EXPECT_EQ(windowed.final.metrics.coverage, batch.metrics.coverage);
    EXPECT_EQ(windowed.final.metrics.overprediction,
              batch.metrics.overprediction);
    EXPECT_EQ(windowed.final.metrics.accuracy, batch.metrics.accuracy);
}

TEST(EvaluateWindowed, BaselineSeriesCachedOncePerBoundaries)
{
    const auto spec = specFor("Ligra-CC", "spp", 1);
    harness::Runner runner;
    const std::vector<std::uint64_t> ends = {20'000, spec.sim_instrs};
    runner.evaluateWindowed(spec, ends);
    EXPECT_EQ(runner.windowedBaselinesComputed(), 1u);
    auto spec2 = spec;
    spec2.prefetcher = "stride";
    runner.evaluateWindowed(spec2, ends);
    EXPECT_EQ(runner.windowedBaselinesComputed(), 1u); // same key+ends
    runner.evaluateWindowed(spec, {spec.sim_instrs});
    EXPECT_EQ(runner.windowedBaselinesComputed(), 2u); // new boundaries
}

TEST(EvaluateWindowed, RejectsBadBoundaries)
{
    const auto spec = specFor("Ligra-CC", "spp", 1);
    harness::Runner runner;
    EXPECT_THROW(runner.evaluateWindowed(spec, {}),
                 std::invalid_argument);
    EXPECT_THROW(runner.evaluateWindowed(spec, {10'000, 10'000,
                                                spec.sim_instrs}),
                 std::invalid_argument);
    EXPECT_THROW(runner.evaluateWindowed(spec, {spec.sim_instrs / 2}),
                 std::invalid_argument);
}

TEST(EvaluateWindowed, PerWindowMetricTrajectory)
{
    const auto spec = specFor("462.libquantum-1343B", "spp", 1);
    harness::Runner runner;
    const auto out =
        runner.evaluateWindowed(spec, {10'000, 25'000, spec.sim_instrs});
    const auto trajectory =
        harness::computeWindowedMetrics(out.run, out.baseline);
    ASSERT_EQ(trajectory.size(), 3u);
    // The last-window metric is a genuine delta-vs-delta reading, not
    // the cumulative one.
    const harness::Metrics last =
        harness::computeMetrics(out.run[2], out.baseline[2]);
    EXPECT_EQ(trajectory[2].speedup, last.speedup);
}

TEST(TimeSeries, ComposeRangeAlignsOrThrows)
{
    const auto spec = specFor("429.mcf-184B", "stride", 1);
    harness::Runner runner;
    const auto out =
        runner.evaluateWindowed(spec, {10'000, 25'000, spec.sim_instrs});
    expectSameRunResult(out.run.composeRange(0, spec.sim_instrs),
                        out.run.finalResult());
    const auto tail = out.run.composeRange(10'000, spec.sim_instrs);
    EXPECT_EQ(tail.instructions, spec.sim_instrs - 10'000);
    EXPECT_THROW(out.run.composeRange(5'000, spec.sim_instrs),
                 std::invalid_argument);
    EXPECT_THROW(out.run.composeRange(10'000, 26'000),
                 std::invalid_argument);
    EXPECT_THROW(out.run.composeRange(10'000, 10'000),
                 std::invalid_argument);
    EXPECT_THROW(out.run.composeRange(0, spec.sim_instrs + 1),
                 std::invalid_argument);
}

TEST(TimeSeries, CsvEmission)
{
    const auto spec = specFor("429.mcf-184B", "spp", 1);
    harness::Runner runner;
    const auto out =
        runner.evaluateWindowed(spec, {20'000, spec.sim_instrs});
    std::ostringstream csv;
    out.run.writeCsv(csv);
    const std::string text = csv.str();
    // Header + one row per window.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
    EXPECT_NE(text.find("ipc_geomean"), std::string::npos);
}

// ------------------------------------------- zero-denominator contracts

TEST(ZeroDenominators, AccuracyIsOneWhenNothingIssued)
{
    sim::RunResult r;
    EXPECT_EQ(r.accuracy(), 1.0);
    r.prefetch_issued = 10;
    r.prefetch_useful = 15; // warmup-issued turned useful in-window
    EXPECT_EQ(r.accuracy(), 1.0); // clamped from above
    r.prefetch_useful = 5;
    EXPECT_EQ(r.accuracy(), 0.5);
}

TEST(ZeroDenominators, MetricsDegenerateBaselines)
{
    const sim::RunResult empty;
    const harness::Metrics m = harness::computeMetrics(empty, empty);
    EXPECT_EQ(m.speedup, 1.0);        // 0-IPC baseline: neutral
    EXPECT_EQ(m.coverage, 0.0);       // nothing to cover
    EXPECT_EQ(m.overprediction, 0.0); // no baseline reads
    EXPECT_EQ(m.accuracy, 1.0);       // nothing issued

    // Prefetching that REDUCES total reads reports overprediction 0,
    // not a negative value (the win shows up as coverage).
    sim::RunResult base;
    base.llc_demand_load_misses = 100;
    base.llc_read_misses = 100;
    base.ipc_geomean = 1.0;
    sim::RunResult better = base;
    better.llc_demand_load_misses = 40;
    better.llc_read_misses = 60;
    better.ipc_geomean = 1.5;
    const harness::Metrics w = harness::computeMetrics(better, base);
    EXPECT_EQ(w.overprediction, 0.0);
    EXPECT_DOUBLE_EQ(w.coverage, 0.6);
    EXPECT_DOUBLE_EQ(w.speedup, 1.5);
}

// ------------------------------------------------ session CLI coverage

TEST(SessionFlags, StrictParserSuggestsSessionKeys)
{
    const std::vector<std::string> allowed = {
        "sim_scale", "jobs", "quiet", "perf_out",
        "windows",   "window_instrs", "series_out"};
    const auto expectSuggestion = [&](const char* typo,
                                      const std::string& want) {
        const char* argv[] = {"bench", typo};
        try {
            (void)SpecParams::fromArgs(2, argv, allowed);
            FAIL() << typo << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("did you mean '" +
                                                 want + "'"),
                      std::string::npos)
                << "message: " << e.what();
        }
    };
    expectSuggestion("windws=4", "windows");
    expectSuggestion("window_instr=1000", "window_instrs");
    expectSuggestion("serie_out=x.csv", "series_out");
}

} // namespace
