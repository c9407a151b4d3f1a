/**
 * @file
 * Tests for the baseline prefetchers: each algorithm is driven with the
 * access pattern it is designed to capture and with an adversarial one,
 * checking both that it fires correctly and that it abstains.
 */
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "prefetchers/bingo.hpp"
#include "prefetchers/composite.hpp"
#include "prefetchers/cp_hw.hpp"
#include "prefetchers/dspatch.hpp"
#include "prefetchers/ipcp.hpp"
#include "prefetchers/mlop.hpp"
#include "prefetchers/nextline.hpp"
#include "prefetchers/power7.hpp"
#include "prefetchers/ppf.hpp"
#include "prefetchers/spp.hpp"
#include "prefetchers/streamer.hpp"
#include "prefetchers/stride.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {
namespace {

PrefetchAccess
access(Addr block, Addr pc = 0x400, Cycle cycle = 0)
{
    PrefetchAccess a;
    a.pc = pc;
    a.block = block;
    a.address = block << kBlockShift;
    a.cycle = cycle;
    return a;
}

/** Drive @p pf with a block sequence; returns all emitted targets. */
std::vector<Addr>
drive(PrefetcherApi& pf, const std::vector<Addr>& blocks, Addr pc = 0x400)
{
    std::vector<Addr> targets;
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    for (Addr b : blocks) {
        out.clear();
        pf.train(access(b, pc, t), out);
        for (const auto& pr : out)
            targets.push_back(pr.block);
        t += 50;
    }
    return targets;
}

constexpr Addr kBase = 1ull << 20; // page-aligned block address

// ---------------------------------------------------------------- prefetcher

TEST(PrefetcherBase, EmitWithinPageClampsPageCrossers)
{
    std::vector<PrefetchRequest> out;
    EXPECT_TRUE(PrefetcherBase::emitWithinPage(kBase, 5, out));
    EXPECT_FALSE(PrefetcherBase::emitWithinPage(kBase, 64, out));
    EXPECT_FALSE(PrefetcherBase::emitWithinPage(kBase, -1, out));
    EXPECT_FALSE(PrefetcherBase::emitWithinPage(kBase, 0, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].block, kBase + 5);
}

TEST(PageTracker, DeltaWithinPage)
{
    PageTracker t;
    EXPECT_EQ(t.recordAndDelta(kBase + 3), 0); // first touch
    EXPECT_EQ(t.recordAndDelta(kBase + 7), 4);
    EXPECT_EQ(t.recordAndDelta(kBase + 5), -2);
    EXPECT_EQ(t.lastOffset(kBase), 5);
}

// ------------------------------------------------------------------ nextline

TEST(NextLine, EmitsSequentialLines)
{
    NextLinePrefetcher pf({.degree = 3});
    const auto targets = drive(pf, {kBase + 10});
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_EQ(targets[0], kBase + 11);
    EXPECT_EQ(targets[2], kBase + 13);
}

TEST(NextLine, StopsAtPageBoundary)
{
    NextLinePrefetcher pf({.degree = 4});
    const auto targets = drive(pf, {kBase + 62});
    EXPECT_EQ(targets.size(), 1u); // only +1 stays in page
}

// -------------------------------------------------------------------- stride

TEST(Stride, LearnsConstantStride)
{
    StridePrefetcher pf({.entries = 64, .degree = 2});
    const auto targets =
        drive(pf, {kBase, kBase + 3, kBase + 6, kBase + 9});
    // Confidence reaches 2 on the 4th access, which prefetches +3/+6.
    ASSERT_GE(targets.size(), 2u);
    EXPECT_EQ(targets[0], kBase + 12);
    EXPECT_EQ(targets[1], kBase + 15);
}

TEST(Stride, IgnoresUnstablePcs)
{
    StridePrefetcher pf({.entries = 64, .degree = 2});
    const auto targets =
        drive(pf, {kBase, kBase + 3, kBase + 10, kBase + 12, kBase + 30});
    EXPECT_TRUE(targets.empty());
}

TEST(Stride, TracksDistinctPcsIndependently)
{
    StridePrefetcher pf({.entries = 64, .degree = 1});
    std::vector<PrefetchRequest> out;
    for (int i = 0; i < 5; ++i) {
        out.clear();
        pf.train(access(kBase + 2 * i, 0xA), out);
        pf.train(access(kBase + 512 + 5 * i, 0xB), out);
    }
    out.clear();
    pf.train(access(kBase + 10, 0xA), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].block, kBase + 12);
}

// ------------------------------------------------------------------ streamer

TEST(Streamer, DetectsAscendingStream)
{
    StreamerPrefetcher pf({.streams = 16, .degree = 4, .train_len = 2});
    const auto targets =
        drive(pf, {kBase, kBase + 1, kBase + 2, kBase + 3});
    ASSERT_GE(targets.size(), 4u);
    EXPECT_EQ(targets[0], kBase + 3); // +1 from the confirming access
}

TEST(Streamer, DetectsDescendingStream)
{
    StreamerPrefetcher pf({.streams = 16, .degree = 2, .train_len = 2});
    const auto targets =
        drive(pf, {kBase + 40, kBase + 39, kBase + 38, kBase + 37});
    // Direction confirmed at the 3rd access (block 38): prefetch 37, 36.
    ASSERT_GE(targets.size(), 2u);
    EXPECT_EQ(targets[0], kBase + 37);
    EXPECT_EQ(targets[1], kBase + 36);
}

TEST(Streamer, DegreeSettable)
{
    StreamerPrefetcher pf({.streams = 16, .degree = 2, .train_len = 1});
    pf.setDegree(6);
    EXPECT_EQ(pf.degree(), 6u);
    const auto targets = drive(pf, {kBase, kBase + 1, kBase + 2});
    EXPECT_GE(targets.size(), 6u);
}

// ----------------------------------------------------------------------- spp

TEST(Spp, SignatureAdvancesDeterministically)
{
    const std::uint32_t s1 = SppPrefetcher::advanceSignature(0, 1);
    const std::uint32_t s2 = SppPrefetcher::advanceSignature(0, 1);
    EXPECT_EQ(s1, s2);
    EXPECT_NE(SppPrefetcher::advanceSignature(0, 2), s1);
    // Negative deltas map to distinct signatures.
    EXPECT_NE(SppPrefetcher::advanceSignature(0, -1), s1);
}

TEST(Spp, LearnsRepeatingDeltaChain)
{
    SppPrefetcher pf;
    // Walk many pages with the constant-delta pattern +2.
    std::vector<Addr> blocks;
    for (Addr page = 0; page < 40; ++page)
        for (Addr o = 0; o < 64; o += 2)
            blocks.push_back(kBase + page * 64 + o);
    const auto targets = drive(pf, blocks);
    EXPECT_GT(targets.size(), 100u);
    // Targets must be ahead on the +2 lattice.
    int on_lattice = 0;
    for (Addr t : targets)
        on_lattice += ((t - kBase) % 2 == 0);
    EXPECT_GT(static_cast<double>(on_lattice) / targets.size(), 0.95);
}

TEST(Spp, AbstainsOnRandomAccesses)
{
    SppPrefetcher pf;
    Rng rng(1);
    std::vector<Addr> blocks;
    for (int i = 0; i < 3000; ++i)
        blocks.push_back(kBase + rng.nextBounded(1u << 22));
    const auto targets = drive(pf, blocks);
    EXPECT_LT(targets.size(), blocks.size() / 10);
}

TEST(Spp, LookaheadDepthBounded)
{
    SppConfig cfg;
    cfg.max_lookahead = 2;
    SppPrefetcher pf(cfg);
    std::vector<Addr> blocks;
    for (Addr page = 0; page < 40; ++page)
        for (Addr o = 0; o < 64; ++o)
            blocks.push_back(kBase + page * 64 + o);
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    std::size_t max_batch = 0;
    for (Addr b : blocks) {
        out.clear();
        pf.train(access(b, 0x400, t), out);
        max_batch = std::max(max_batch, out.size());
        t += 10;
    }
    EXPECT_LE(max_batch, 2u);
}

// --------------------------------------------------------------------- bingo

TEST(Bingo, ReplaysLearnedFootprint)
{
    BingoPrefetcher pf;
    // Train: repeatedly visit regions with footprint {0, 3, 7} triggered
    // by the same PC. Regions are distinct, so only PC+Offset matches.
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    // More regions than the accumulation table holds, so completed
    // footprints get evicted into the PHT.
    for (Addr r = 0; r < 300; ++r) {
        const Addr base = kBase + r * 512; // distinct 2KB regions
        for (Addr o : {0ull, 3ull, 7ull}) {
            out.clear();
            pf.train(access(base + o, 0x777, t), out);
            t += 20;
        }
    }
    // A fresh region trigger by the same PC must prefetch +3 and +7.
    out.clear();
    const Addr fresh = kBase + 100 * 512;
    pf.train(access(fresh, 0x777, t), out);
    std::set<Addr> targets;
    for (const auto& pr : out)
        targets.insert(pr.block);
    EXPECT_TRUE(targets.count(fresh + 3));
    EXPECT_TRUE(targets.count(fresh + 7));
}

TEST(Bingo, NonTriggerAccessesOnlyAccumulate)
{
    BingoPrefetcher pf;
    std::vector<PrefetchRequest> out;
    pf.train(access(kBase, 0x1, 0), out);
    const std::size_t after_trigger = out.size();
    pf.train(access(kBase + 1, 0x1, 10), out);
    EXPECT_EQ(out.size(), after_trigger); // second access emits nothing
}

TEST(Bingo, SingletonFootprintsNotStored)
{
    BingoPrefetcher pf;
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    // Touch 30 regions exactly once each with the same PC.
    for (Addr r = 0; r < 30; ++r) {
        out.clear();
        pf.train(access(kBase + r * 512, 0x9, t), out);
        t += 20;
    }
    // Footprints of popcount 1 are dropped, so no predictions emerge.
    out.clear();
    pf.train(access(kBase + 999 * 512, 0x9, t), out);
    EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------- mlop

TEST(Mlop, LearnsDominantOffset)
{
    MlopConfig cfg;
    cfg.update_round = 200;
    MlopPrefetcher pf(cfg);
    // Pattern: +2 strided within pages.
    std::vector<Addr> blocks;
    for (Addr page = 0; page < 60; ++page)
        for (Addr o = 0; o < 64; o += 2)
            blocks.push_back(kBase + page * 64 + o);
    drive(pf, blocks);
    const auto& chosen = pf.chosenOffsets();
    ASSERT_FALSE(chosen.empty());
    bool has_plus2_multiple = false;
    for (auto off : chosen)
        has_plus2_multiple |= (off > 0 && off % 2 == 0);
    EXPECT_TRUE(has_plus2_multiple);
}

TEST(Mlop, AbstainsBeforeFirstRound)
{
    MlopPrefetcher pf; // 500-update rounds
    const auto targets = drive(pf, {kBase, kBase + 1, kBase + 2});
    EXPECT_TRUE(targets.empty());
}

// ------------------------------------------------------------------- dspatch

TEST(Dspatch, LearnsAndReplaysPattern)
{
    DspatchPrefetcher pf;
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    for (Addr r = 0; r < 40; ++r) {
        const Addr base = kBase + r * 1024;
        for (Addr o : {0ull, 2ull, 5ull}) {
            out.clear();
            pf.train(access(base + o, 0x55, t), out);
            t += 20;
        }
    }
    out.clear();
    const Addr fresh = kBase + 4096 * 32;
    pf.train(access(fresh, 0x55, t), out);
    std::set<Addr> targets;
    for (const auto& pr : out)
        targets.insert(pr.block);
    EXPECT_TRUE(targets.count(fresh + 2));
    EXPECT_TRUE(targets.count(fresh + 5));
}

// ---------------------------------------------------------------------- ipcp

TEST(Ipcp, ClassifiesConstantStride)
{
    IpcpPrefetcher pf;
    const auto targets = drive(
        pf, {kBase, kBase + 4, kBase + 8, kBase + 12, kBase + 16});
    ASSERT_FALSE(targets.empty());
    EXPECT_EQ(targets[0] % 4, (kBase + 4 * 4 + 4) % 4);
}

TEST(Ipcp, ClassifiesStreams)
{
    IpcpPrefetcher pf;
    std::vector<Addr> blocks;
    for (Addr i = 0; i < 10; ++i)
        blocks.push_back(kBase + i);
    const auto targets = drive(pf, blocks);
    EXPECT_GT(targets.size(), 8u);
}

// -------------------------------------------------------------------- power7

TEST(Power7, DepthRampsDownOnWaste)
{
    Power7Prefetcher pf;
    const std::uint32_t initial = pf.depth();
    // Issue a stream (generates prefetches), then mark everything wasted.
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    for (int round = 0; round < 40; ++round) {
        for (Addr i = 0; i < 32; ++i) {
            out.clear();
            pf.train(access(kBase + round * 64 + i, 0x2, t), out);
            for (const auto& pr : out)
                pf.onPrefetchEvicted(pr.block, /*used=*/false);
            t += 20;
        }
    }
    EXPECT_LT(pf.depth(), initial + 1);
    EXPECT_EQ(pf.depth(), 1u);
}

TEST(Power7, DepthRampsUpOnAccuracy)
{
    Power7Prefetcher pf;
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    for (int round = 0; round < 40; ++round) {
        for (Addr i = 0; i < 32; ++i) {
            out.clear();
            pf.train(access(kBase + round * 64 + i, 0x2, t), out);
            for (const auto& pr : out)
                pf.onPrefetchUsed(pr.block, true);
            t += 20;
        }
    }
    EXPECT_GT(pf.depth(), 4u);
}

// --------------------------------------------------------------------- cp_hw

TEST(CpHw, LearnsUsefulOffset)
{
    CpHwConfig cfg;
    cfg.epsilon = 0.0; // deterministic greedy for the test
    cfg.alpha = 0.5;
    CpHwPrefetcher pf(cfg);
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    // Reward every issued prefetch as timely-used; the bandit should
    // settle on a non-zero offset and keep prefetching.
    std::size_t issued = 0;
    for (int i = 0; i < 4000; ++i) {
        out.clear();
        pf.train(access(kBase + (i % 32), 0x3, t), out);
        for (const auto& pr : out) {
            ++issued;
            pf.onPrefetchUsed(pr.block, true);
        }
        t += 20;
    }
    EXPECT_GT(issued, 1000u);
}

TEST(CpHw, SharesPythiaActionList)
{
    EXPECT_EQ(CpHwPrefetcher::actionList().size(), 16u);
    EXPECT_EQ(CpHwPrefetcher::actionList()[3], 0);
}

// ----------------------------------------------------------------- composite

TEST(Composite, MergesAndDeduplicatesChildren)
{
    std::vector<std::unique_ptr<PrefetcherApi>> kids;
    kids.push_back(
        std::make_unique<NextLinePrefetcher>(NextLineConfig{.degree = 2}));
    kids.push_back(
        std::make_unique<NextLinePrefetcher>(NextLineConfig{.degree = 3}));
    CompositePrefetcher pf("nl+nl", std::move(kids));
    std::vector<PrefetchRequest> out;
    pf.train(access(kBase), out);
    // Union of {+1,+2} and {+1,+2,+3} = {+1,+2,+3}.
    EXPECT_EQ(out.size(), 3u);
}

TEST(Composite, StorageIsSumOfChildren)
{
    std::vector<std::unique_ptr<PrefetcherApi>> kids;
    kids.push_back(std::make_unique<SppPrefetcher>());
    kids.push_back(std::make_unique<BingoPrefetcher>());
    const std::size_t expect =
        SppPrefetcher().storageBytes() + BingoPrefetcher().storageBytes();
    CompositePrefetcher pf("s+b", std::move(kids));
    EXPECT_EQ(pf.storageBytes(), expect);
}

// ----------------------------------------------------------------------- ppf

TEST(Ppf, RejectsAfterNegativeTraining)
{
    PpfConfig cfg;
    cfg.threshold = 0;
    PpfPrefetcher pf(cfg);
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    std::uint64_t early_rejects = 0, late_rejects = 0;
    for (int round = 0; round < 60; ++round) {
        // Strided pattern that SPP learns quickly.
        for (Addr page = 0; page < 4; ++page) {
            for (Addr o = 0; o < 64; o += 2) {
                out.clear();
                pf.train(access(kBase + (round * 4 + page) * 64 + o,
                                0x6, t),
                         out);
                // Everything is wasted: teach the filter to reject.
                for (const auto& pr : out)
                    pf.onPrefetchEvicted(pr.block, false);
                t += 10;
            }
        }
        if (round == 10)
            early_rejects = pf.rejected();
    }
    late_rejects = pf.rejected();
    EXPECT_GT(late_rejects, early_rejects);
}

// ------------------------------------------------------------------ registry

TEST(Registry, AllNamesConstruct)
{
    for (const auto& name : sim::prefetcherNames()) {
        auto pf = sim::makePrefetcher(name);
        ASSERT_NE(pf, nullptr) << name;
        EXPECT_EQ(pf->name(), name);
    }
}

TEST(Registry, NoneIsNull)
{
    EXPECT_EQ(sim::makePrefetcher("none"), nullptr);
}

TEST(Registry, UnknownThrows)
{
    EXPECT_THROW(sim::makePrefetcher("warp-drive"),
                 std::invalid_argument);
}

TEST(Registry, StorageBudgetsMatchTable7)
{
    // Paper Table 7 metadata budgets (bytes, approximate).
    EXPECT_NEAR(sim::makePrefetcher("spp")->storageBytes(), 6349, 64);
    EXPECT_NEAR(sim::makePrefetcher("bingo")->storageBytes(), 47104, 64);
    EXPECT_NEAR(sim::makePrefetcher("mlop")->storageBytes(), 8192, 64);
    EXPECT_NEAR(sim::makePrefetcher("dspatch")->storageBytes(), 3686,
                64);
    EXPECT_NEAR(sim::makePrefetcher("spp_ppf")->storageBytes(), 40243,
                64);
}

/** Property: no prefetcher ever emits a target outside the demand page
 *  (post-L1 prefetchers are page-local, paper §3.1). */
class PageLocality : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PageLocality, AllTargetsStayInPage)
{
    auto pf = sim::makePrefetcher(GetParam());
    ASSERT_NE(pf, nullptr);
    Rng rng(99);
    std::vector<PrefetchRequest> out;
    Cycle t = 0;
    Addr walker = kBase;
    for (int i = 0; i < 5000; ++i) {
        // Blend of strided and random accesses to provoke predictions.
        walker += (i % 3 == 0) ? rng.nextBounded(1u << 18) : 2;
        out.clear();
        pf->train(access(walker, 0x400 + (i % 4) * 0x40, t), out);
        for (const auto& pr : out)
            EXPECT_EQ(pageIdOfBlock(pr.block), pageIdOfBlock(walker))
                << GetParam() << " emitted a cross-page prefetch";
        t += 15;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, PageLocality,
    ::testing::Values("nextline", "stride", "streamer", "spp", "spp_ppf",
                      "bingo", "mlop", "dspatch", "ipcp", "power7",
                      "cp_hw", "st_s_b_d_m"),
    [](const auto& info) { return info.param; });

} // namespace
} // namespace pythia::pf
