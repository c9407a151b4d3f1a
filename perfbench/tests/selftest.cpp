// Self-tests of the benchmark's own code: percentiles and the tail
// rule, the metric-name charset, span self-time arithmetic, and the
// transparency of the timing decorators.
#include <gtest/gtest.h>

#include "grids.hpp"
#include "harness/runner.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i); // unsorted on purpose
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 95), 95);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile({7.0}, 95), 7.0);
    EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2); // rank ceil(0.5*4) = 2
    EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, TenSamplesBeyondTheTail)
{
    EXPECT_EQ(samplesBeyond(200, 95), 10u);
    EXPECT_EQ(samplesBeyond(199, 95), 9u);
    EXPECT_TRUE(tailSupported(200, 95));
    EXPECT_FALSE(tailSupported(199, 95));
    EXPECT_EQ(minSamplesFor(95), 200u);
    EXPECT_EQ(minSamplesFor(99), 1000u);
    EXPECT_EQ(minSamplesFor(50), 20u);
    EXPECT_EQ(samplesBeyond(0, 95), 0u);
}

TEST(Names, Charset)
{
    for (const char* ok : {"sim_kips", "setup_s", "core.train_ns.sim_1c",
                           "sim.l2_mpki.sweep_4c_lowbw", "9lives", "a-b"})
        EXPECT_TRUE(validName(ok)) << ok;
    for (const std::string& bad :
         {std::string(), std::string("_lead"), std::string(".lead"),
          std::string("has space"), std::string("slash/no"),
          std::string("x\xc3\xa9"), std::string(65, 'a')})
        EXPECT_FALSE(validName(bad)) << bad;
    EXPECT_TRUE(validName(std::string(64, 'a')));

    for (const char* ok : {"s", "ms", "kinstr/s", "%", "1/kinstr", "MB"})
        EXPECT_TRUE(validUnit(ok)) << ok;
    for (const std::string& bad :
         {std::string(), std::string("m s"), std::string(17, 's')})
        EXPECT_FALSE(validUnit(bad)) << bad;
}

TEST(Names, ResultLineRejectsBadMetrics)
{
    EXPECT_EQ(resultLine(true, 3, 0, {{"a_b", Metric{1.5, "ms"}}}),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"a_b\": {\"value\": 1.5, \"unit\": "
              "\"ms\"}}}");
    EXPECT_THROW(resultLine(true, 1, 0, {{"bad name", Metric{1, "s"}}}),
                 std::invalid_argument);
    EXPECT_THROW(resultLine(true, 1, 0, {{"x", Metric{1, "bad unit"}}}),
                 std::invalid_argument);
}

namespace {

Span
span(std::int64_t a, std::int64_t b, int parent, std::int64_t leaf = 0)
{
    Span s;
    s.start_ns = a;
    s.end_ns = b;
    s.parent = parent;
    s.leaf_ns = leaf;
    return s;
}

} // namespace

TEST(Spans, SelfTimeSubtractsMergedChildren)
{
    std::vector<Span> s = {span(0, 100, -1),
                           span(10, 30, 0), // overlaps the next child
                           span(20, 50, 0),
                           span(90, 120, 0), // clipped to the parent
                           span(25, 28, 1)}; // grandchild: not direct
    auto self = selfTimesNs(s);
    EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));
    EXPECT_EQ(self[1], 20 - 3);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 3);

    s[0].leaf_ns = 30;
    EXPECT_EQ(selfTimesNs(s)[0], 50 - 30);
    s[0].leaf_ns = 1000; // never negative
    EXPECT_EQ(selfTimesNs(s)[0], 0);
}

TEST(Spans, LeafTimeIsChargedToTheInnermostSpan)
{
    Tracer t;
    LayerTimer leaf;
    t.watch(&leaf);
    const int outer = t.begin("outer", 7);
    leaf.add(5); // inside outer only
    const int inner = t.begin("inner", 7);
    leaf.add(11); // inside inner (and so inside outer)
    t.end(inner);
    t.end(outer);
    const auto& s = t.spans();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[1].leaf_ns, 11);
    EXPECT_EQ(s[0].leaf_ns, 5);
    EXPECT_EQ(s[0].leaf_total_ns, 16);
    EXPECT_EQ(s[0].id, 7u);
    EXPECT_THROW(t.end(outer), std::logic_error);

    Tracer other;
    const int a = other.begin("a", 1);
    const int b = other.begin("b", 1);
    other.end(b);
    other.end(a);
    t.absorb(other);
    EXPECT_EQ(t.spans()[2].parent, -1);
    EXPECT_EQ(t.spans()[3].parent, 2);
    EXPECT_EQ(t.count("a"), 1u);
}

namespace {

pythia::harness::ExperimentSpec
smallSpec(const char* workload, const char* pf, std::uint32_t cores)
{
    pythia::harness::ExperimentSpec s;
    s.workload = workload;
    s.prefetcher = pf;
    s.num_cores = cores;
    s.warmup_instrs = 4'000;
    s.sim_instrs = 8'000;
    s.workload_seed = 3;
    return s;
}

} // namespace

TEST(Decorators, DecoratedSystemMatchesSimulate)
{
    for (const auto& spec :
         {smallSpec("482.sphinx3-417B", "pythia", 1),
          smallSpec("429.mcf-184B", "spp", 1),
          smallSpec("Ligra-CC", "bingo", 1),
          smallSpec("PARSEC-Canneal", "pythia", 4)}) {
        const std::uint64_t want =
            digest(pythia::harness::simulate(spec));
        EXPECT_EQ(digest(runCell(spec, 0).result), want);

        Tracer t;
        LayerTimer next, train, feedback;
        t.watch(&next);
        t.watch(&train);
        t.watch(&feedback);
        const CellOutcome traced =
            runCell(spec, 1, &t, CellTimers{&next, &train, &feedback});
        EXPECT_EQ(digest(traced.result), want) << spec.workload;
        EXPECT_GT(next.calls, 0u);
        EXPECT_GT(train.calls, 0u);
        EXPECT_EQ(t.count("sim.run"), 1u);
        EXPECT_GE(traced.counters.instructions,
                  spec.sim_instrs * spec.num_cores);
    }
}
