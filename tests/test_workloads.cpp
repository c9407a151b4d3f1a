/**
 * @file
 * Tests for the synthetic workload substrate: generator determinism,
 * pattern properties each generator promises (these are the properties
 * the paper's evaluation relies on), trace file round-trips and the
 * suite catalog.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "common/types.hpp"
#include "workloads/generators.hpp"
#include "workloads/suites.hpp"
#include "workloads/trace.hpp"

namespace pythia::wl {
namespace {

GenParams
testParams()
{
    GenParams p;
    p.mem_ratio = 0.5;
    p.write_ratio = 0.0;
    return p;
}

// ------------------------------------------------------------ determinism

/** Every generator must replay identically after reset() and for clones
 *  with the same seed. */
class GeneratorDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorDeterminism, ResetReplaysIdentically)
{
    auto w = makeWorkload(GetParam());
    std::vector<TraceRecord> first;
    for (int i = 0; i < 500; ++i)
        first.push_back(w->next());
    w->reset();
    for (int i = 0; i < 500; ++i) {
        const TraceRecord r = w->next();
        EXPECT_EQ(r.pc, first[i].pc) << "at record " << i;
        EXPECT_EQ(r.addr, first[i].addr) << "at record " << i;
        EXPECT_EQ(r.gap, first[i].gap) << "at record " << i;
        EXPECT_EQ(r.is_write, first[i].is_write) << "at record " << i;
    }
}

TEST_P(GeneratorDeterminism, CloneWithSameSeedMatches)
{
    auto w = makeWorkload(GetParam());
    auto c = w->clone(0);
    for (int i = 0; i < 300; ++i) {
        const TraceRecord a = w->next();
        const TraceRecord b = c->next();
        EXPECT_EQ(a.addr, b.addr) << "at record " << i;
    }
}

TEST_P(GeneratorDeterminism, CloneWithNewSeedDiffers)
{
    auto w = makeWorkload(GetParam());
    auto c = w->clone(0xFEEDull);
    int same = 0;
    for (int i = 0; i < 300; ++i)
        same += (w->next().addr == c->next().addr);
    EXPECT_LT(same, 300);
}

INSTANTIATE_TEST_SUITE_P(
    AllCatalogWorkloads, GeneratorDeterminism,
    ::testing::Values("462.libquantum-1343B", "470.lbm-164B",
                      "482.sphinx3-417B", "459.GemsFDTD-765B",
                      "459.GemsFDTD-1320B", "429.mcf-184B",
                      "Ligra-PageRank", "Cloudsuite-Cassandra"),
    [](const auto& info) {
        std::string n = info.param;
        for (auto& c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ------------------------------------------------------ pattern properties

TEST(StreamGen, SingleStreamIsStrictlySequential)
{
    StreamGen g("s", 1, {.gen = testParams(), .streams = 1});
    Addr prev = g.next().addr;
    for (int i = 0; i < 200; ++i) {
        const Addr cur = g.next().addr;
        EXPECT_EQ(blockAddr(cur), blockAddr(prev) + 1);
        prev = cur;
    }
}

TEST(StreamGen, EachStreamHasDistinctPc)
{
    StreamGen g("s", 2, {.gen = testParams(), .streams = 4});
    std::set<Addr> pcs;
    for (int i = 0; i < 500; ++i)
        pcs.insert(g.next().pc);
    EXPECT_EQ(pcs.size(), 4u);
}

TEST(StrideGen, PerPcStrideIsConstant)
{
    StrideGen g("s", 3, {.gen = testParams(), .strides = {5}});
    Addr prev = g.next().addr;
    for (int i = 0; i < 200; ++i) {
        const Addr cur = g.next().addr;
        EXPECT_EQ(blockAddr(cur), blockAddr(prev) + 5);
        prev = cur;
    }
}

TEST(SpatialRegionGen, FootprintRecursForSamePc)
{
    // Collect per-PC footprints over many regions: a PC must always touch
    // the same page-relative offsets (this is what Bingo/SMS learn).
    SpatialRegionGen g("s", 4,
                       {.gen = testParams(),
                        .patterns = 4,
                        .density = 0.3,
                        .concurrency = 1});
    std::map<Addr, std::set<std::uint32_t>> per_page_offsets;
    std::map<Addr, Addr> page_pc;
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord r = g.next();
        per_page_offsets[pageId(r.addr)].insert(pageOffset(r.addr));
        page_pc[pageId(r.addr)] = r.pc;
    }
    // Group footprints by PC; all completed pages of a PC must agree.
    std::map<Addr, std::set<std::set<std::uint32_t>>> by_pc;
    for (const auto& [page, offsets] : per_page_offsets)
        by_pc[page_pc[page]].insert(offsets);
    int checked = 0;
    for (const auto& [pc, footprints] : by_pc) {
        // Ignore the trailing incomplete region (subset of the full one).
        std::size_t max_size = 0;
        for (const auto& fp : footprints)
            max_size = std::max(max_size, fp.size());
        int full = 0;
        for (const auto& fp : footprints)
            full += (fp.size() == max_size);
        EXPECT_GE(full, 1);
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(DeltaChainGen, DeltasFollowThePattern)
{
    DeltaChainGen g("d", 5, {.gen = testParams(), .deltas = {1, 2, 1, 3}});
    TraceRecord prev = g.next();
    int pattern_hits = 0, in_page = 0;
    for (int i = 0; i < 1000; ++i) {
        const TraceRecord cur = g.next();
        if (pageId(cur.addr) == pageId(prev.addr)) {
            const auto d = static_cast<std::int32_t>(
                blockAddr(cur.addr) - blockAddr(prev.addr));
            ++in_page;
            pattern_hits += (d == 1 || d == 2 || d == 3);
        }
        prev = cur;
    }
    EXPECT_GT(in_page, 500);
    EXPECT_EQ(pattern_hits, in_page); // every in-page delta from the set
}

TEST(IrregularGen, ChaseLoadsAreDependentAndSpread)
{
    GenParams p = testParams();
    p.footprint_bytes = 8ull << 20;
    IrregularGen g("i", 6, {.gen = p, .stride_fraction = 0.0});
    std::set<Addr> pages;
    for (int i = 0; i < 2000; ++i) {
        const TraceRecord r = g.next();
        EXPECT_TRUE(r.depends_on_prev);
        pages.insert(pageId(r.addr));
    }
    EXPECT_GT(pages.size(), 500u); // no page locality to exploit
}

TEST(GraphGen, MixesSequentialAndDependentAccesses)
{
    GraphGen g("g", 7, {.gen = testParams(), .degree = 8, .irregularity = 0.8});
    int dependent = 0, total = 2000;
    std::set<Addr> pcs;
    for (int i = 0; i < total; ++i) {
        const TraceRecord r = g.next();
        dependent += r.depends_on_prev;
        pcs.insert(r.pc);
    }
    EXPECT_EQ(pcs.size(), 3u); // offsets scan, edges scan, data loads
    EXPECT_GT(dependent, total / 3); // data loads dominate with degree 8
}

TEST(CaseStudyGen, CompanionOffsetsAre23And11)
{
    CaseStudyGen g("c", 8, {.gen = testParams()});
    for (int i = 0; i < 100; ++i) {
        const TraceRecord trig = g.next();
        const TraceRecord comp = g.next();
        ASSERT_EQ(pageId(trig.addr), pageId(comp.addr));
        const auto delta = static_cast<std::int32_t>(
            blockAddr(comp.addr) - blockAddr(trig.addr));
        if (trig.pc == CaseStudyGen::kPc23)
            EXPECT_EQ(delta, 23);
        else if (trig.pc == CaseStudyGen::kPc11)
            EXPECT_EQ(delta, 11);
        else
            FAIL() << "unexpected trigger pc";
    }
}

TEST(CaseStudyGen, TriggerIsAlwaysPageFirstAccess)
{
    CaseStudyGen g("c", 9, {.gen = testParams()});
    for (int i = 0; i < 50; ++i) {
        const TraceRecord trig = g.next();
        EXPECT_EQ(pageOffset(trig.addr), 0u);
        (void)g.next();
    }
}

TEST(MixedPhaseGen, RotatesThroughChildren)
{
    std::vector<std::unique_ptr<Workload>> kids;
    kids.push_back(std::make_unique<StreamGen>(
        "a", 1, StreamGen::Config{.gen = testParams(), .streams = 1}));
    kids.push_back(std::make_unique<StrideGen>(
        "b", 2, StrideGen::Config{.gen = testParams(), .strides = {7}}));
    MixedPhaseGen g("m", 3, std::move(kids), std::vector<std::size_t>{10, 10});
    std::set<Addr> pcs;
    for (int i = 0; i < 40; ++i)
        pcs.insert(g.next().pc);
    EXPECT_GE(pcs.size(), 2u); // both children contributed
}

TEST(GenBase, GapRespectsMemRatio)
{
    GenParams p;
    p.mem_ratio = 0.25; // expect ~3 non-memory instrs per access
    StreamGen g("s", 10, {.gen = p, .streams = 1});
    double total_gap = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        total_gap += g.next().gap;
    EXPECT_NEAR(total_gap / n, 3.0, 0.3);
}

TEST(GenBase, WriteRatioRespected)
{
    GenParams p;
    p.write_ratio = 0.2;
    StreamGen g("s", 11, {.gen = p, .streams = 1});
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += g.next().is_write;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.2, 0.03);
}

// ----------------------------------------------------------------- catalog

TEST(Suites, FiveSuitesNonEmpty)
{
    for (const auto& s : suiteNames()) {
        EXPECT_FALSE(suiteWorkloads(s).empty()) << s;
    }
}

TEST(Suites, AllWorkloadsInstantiable)
{
    for (const auto& spec : allWorkloads()) {
        auto w = makeWorkload(spec.name);
        ASSERT_NE(w, nullptr) << spec.name;
        EXPECT_EQ(w->name(), spec.name);
        (void)w->next();
    }
}

TEST(Suites, UnseenWorkloadsInstantiable)
{
    EXPECT_FALSE(unseenWorkloads().empty());
    for (const auto& spec : unseenWorkloads()) {
        auto w = makeWorkload(spec.name);
        ASSERT_NE(w, nullptr) << spec.name;
        (void)w->next();
    }
}

TEST(Suites, UnknownNameThrows)
{
    EXPECT_THROW(makeWorkload("no-such-trace"), std::invalid_argument);
}

TEST(Suites, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto& s : allWorkloads())
        EXPECT_TRUE(names.insert(s.name).second) << s.name;
    for (const auto& s : unseenWorkloads())
        EXPECT_TRUE(names.insert(s.name).second) << s.name;
}

// ------------------------------------------------------------ trace file IO

TEST(TraceFile, RoundTrips)
{
    const std::string path = "/tmp/pythia_test_trace.bin";
    auto w = makeWorkload("470.lbm-164B");
    ASSERT_TRUE(writeTraceFile(path, *w, 200));

    w->reset();
    FileWorkload replay(path);
    EXPECT_EQ(replay.size(), 200u);
    for (int i = 0; i < 200; ++i) {
        const TraceRecord a = w->next();
        const TraceRecord b = replay.next();
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.gap, b.gap);
        EXPECT_EQ(a.is_write, b.is_write);
        EXPECT_EQ(a.depends_on_prev, b.depends_on_prev);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, LoopsAtEnd)
{
    std::vector<TraceRecord> recs(3);
    recs[0].addr = 64;
    recs[1].addr = 128;
    recs[2].addr = 192;
    FileWorkload w("mem", recs);
    for (int loop = 0; loop < 3; ++loop) {
        EXPECT_EQ(w.next().addr, 64u);
        EXPECT_EQ(w.next().addr, 128u);
        EXPECT_EQ(w.next().addr, 192u);
    }
}

TEST(TraceFile, MissingFileThrows)
{
    EXPECT_THROW(FileWorkload("/nonexistent/trace.bin"),
                 std::runtime_error);
}

TEST(TraceFile, EmptyTraceRejected)
{
    EXPECT_THROW(FileWorkload("mem", std::vector<TraceRecord>{}),
                 std::runtime_error);
}

} // namespace
} // namespace pythia::wl
