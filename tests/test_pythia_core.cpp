/**
 * @file
 * Tests for Pythia's core machinery: feature extraction, the QVStore
 * (tile coding, Eqn. 3 max-of-vaults, SARSA updates, optimistic init),
 * the Evaluation Queue reward lifecycle, the agent's Algorithm-1
 * behaviour, the named configurations and the storage model (Table 4).
 */
#include <gtest/gtest.h>

#include "core/agent.hpp"
#include "core/configs.hpp"
#include "core/eq.hpp"
#include "core/feature.hpp"
#include "core/qvstore.hpp"
#include "core/storage_model.hpp"

namespace pythia::rl {
namespace {

constexpr Addr kBase = 1ull << 20;

// ------------------------------------------------------------------ features

TEST(Feature, ThirtyTwoCombinationsMinusDegenerate)
{
    EXPECT_EQ(allFeatureSpecs().size(), 31u); // 4*8 minus None+None
}

TEST(Feature, BasicVectorIsPcDeltaAndLast4Deltas)
{
    const auto basic = basicFeatureSpecs();
    ASSERT_EQ(basic.size(), 2u);
    EXPECT_EQ(featureName(basic[0]), "PC+Delta");
    EXPECT_EQ(featureName(basic[1]), "Last4Deltas");
}

TEST(Feature, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto& s : allFeatureSpecs())
        EXPECT_TRUE(names.insert(featureName(s)).second)
            << featureName(s);
}

TEST(Feature, DeltaTracksInPageDistance)
{
    FeatureExtractor fx;
    fx.observe(0x1, kBase + 3);
    EXPECT_EQ(fx.lastDelta(), 0); // first access: no delta
    fx.observe(0x1, kBase + 7);
    EXPECT_EQ(fx.lastDelta(), 4);
    fx.observe(0x1, kBase + 5);
    EXPECT_EQ(fx.lastDelta(), -2);
}

TEST(Feature, DeltaResetsAcrossPages)
{
    FeatureExtractor fx;
    fx.observe(0x1, kBase + 10);
    fx.observe(0x1, kBase + 64 + 10); // next page
    EXPECT_EQ(fx.lastDelta(), 0);
}

TEST(Feature, PcFeatureReflectsPc)
{
    FeatureExtractor fx;
    fx.observe(0xABC, kBase);
    const FeatureSpec pc_only{ControlKind::Pc, DataKind::None};
    EXPECT_EQ(fx.extract(pc_only), 0xABCu);
}

TEST(Feature, PcDeltaDistinguishesDeltas)
{
    const FeatureSpec spec{ControlKind::Pc, DataKind::Delta};
    FeatureExtractor a, b;
    a.observe(0x1, kBase);
    a.observe(0x1, kBase + 2);
    b.observe(0x1, kBase);
    b.observe(0x1, kBase + 3);
    EXPECT_NE(a.extract(spec), b.extract(spec));
}

TEST(Feature, Last4DeltasIsOrderSensitive)
{
    const FeatureSpec spec{ControlKind::None, DataKind::Last4Deltas};
    FeatureExtractor a, b;
    // a: deltas 1 then 2; b: deltas 2 then 1.
    a.observe(0x1, kBase);
    a.observe(0x1, kBase + 1);
    a.observe(0x1, kBase + 3);
    b.observe(0x1, kBase);
    b.observe(0x1, kBase + 2);
    b.observe(0x1, kBase + 3);
    EXPECT_NE(a.extract(spec), b.extract(spec));
}

TEST(Feature, ResetClearsHistories)
{
    FeatureExtractor fx;
    fx.observe(0x1, kBase + 5);
    fx.observe(0x1, kBase + 9);
    fx.reset();
    const FeatureSpec spec{ControlKind::None, DataKind::Last4Deltas};
    EXPECT_EQ(fx.extract(spec), 0u);
}

// ------------------------------------------------------------------- qvstore

QVStoreConfig
qvCfg()
{
    QVStoreConfig cfg;
    cfg.num_features = 2;
    cfg.num_planes = 3;
    cfg.plane_index_bits = 7;
    cfg.num_actions = 4;
    cfg.alpha = 0.5;
    cfg.gamma = 0.5;
    cfg.q_init = 10.0;
    return cfg;
}

TEST(QVStore, InitializesOptimistically)
{
    QVStore qv(qvCfg());
    const std::vector<std::uint64_t> s = {1, 2};
    for (std::uint32_t a = 0; a < 4; ++a)
        EXPECT_NEAR(qv.q(s, a), 10.0, 1e-4);
}

TEST(QVStore, UpdateMovesTowardTarget)
{
    QVStore qv(qvCfg());
    const std::vector<std::uint64_t> s1 = {1, 2}, s2 = {3, 4};
    const double before = qv.q(s1, 0);
    qv.update(s1, 0, /*reward=*/-20.0, s2, 1);
    // target = -20 + 0.5*10 = -15; q moves halfway: 10 -> -2.5 at most
    // (tile sharing can spill, so just require a big decrease).
    EXPECT_LT(qv.q(s1, 0), before - 5.0);
}

TEST(QVStore, MaxActionPicksHighestQ)
{
    QVStore qv(qvCfg());
    const std::vector<std::uint64_t> s1 = {1, 2}, s2 = {3, 4};
    // Drive action 2's value up relative to the others.
    for (int i = 0; i < 20; ++i)
        qv.update(s1, 2, 50.0, s2, 2);
    EXPECT_EQ(qv.maxAction(s1), 2u);
    EXPECT_NEAR(qv.maxQ(s1), qv.q(s1, 2), 1e-9);
}

TEST(QVStore, MaxOverVaultsDrivesStateQ)
{
    // Eqn. 3: Q(S,A) = max over features. Update with a state whose
    // feature 0 matches but feature 1 differs: the shared feature-0 vault
    // value must lift the Q of the new state too.
    QVStore qv(qvCfg());
    const std::vector<std::uint64_t> s1 = {7, 100}, s1b = {7, 200};
    const std::vector<std::uint64_t> next = {8, 8};
    for (int i = 0; i < 30; ++i)
        qv.update(s1, 1, 50.0, next, 1);
    // s1b shares feature value 7 in vault 0: its Q for action 1 benefits.
    EXPECT_GT(qv.q(s1b, 1), qv.q(s1b, 0) + 1.0);
}

TEST(QVStore, ResetRestoresInit)
{
    QVStore qv(qvCfg());
    const std::vector<std::uint64_t> s = {1, 2};
    qv.update(s, 0, -30.0, s, 0);
    qv.resetToOptimistic();
    EXPECT_NEAR(qv.q(s, 0), 10.0, 1e-4);
    EXPECT_EQ(qv.updates(), 0u);
}

TEST(QVStore, TileCodingSharesBetweenSimilarValues)
{
    // Property of tile coding: two very different feature values should
    // rarely share all three plane rows.
    QVStore qv(qvCfg());
    const std::vector<std::uint64_t> s1 = {42, 42};
    const std::vector<std::uint64_t> s2 = {0xDEADBEEF, 0xDEADBEEF};
    for (int i = 0; i < 30; ++i)
        qv.update(s1, 0, 50.0, s1, 0);
    EXPECT_GT(qv.q(s1, 0), qv.q(s2, 0));
}

TEST(QVStore, UpdateCounterIncrements)
{
    QVStore qv(qvCfg());
    const std::vector<std::uint64_t> s = {1, 2};
    qv.update(s, 0, 1.0, s, 0);
    qv.update(s, 1, 1.0, s, 0);
    EXPECT_EQ(qv.updates(), 2u);
}

// ------------------------------------------------------------------------ eq

EqEntry
entry(Addr block, std::uint32_t action = 1)
{
    EqEntry e;
    e.state = {1, 2};
    e.action = action;
    e.prefetch_block = block;
    e.has_prefetch = (block != 0);
    return e;
}

TEST(Eq, InsertEvictsFifoWhenFull)
{
    EvaluationQueue eq(3);
    EXPECT_FALSE(eq.insert(entry(10)).has_value());
    EXPECT_FALSE(eq.insert(entry(11)).has_value());
    EXPECT_FALSE(eq.insert(entry(12)).has_value());
    const auto evicted = eq.insert(entry(13));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->prefetch_block, 10u);
    EXPECT_EQ(eq.head().prefetch_block, 11u);
}

TEST(Eq, SearchFindsUnrewardedMatch)
{
    EvaluationQueue eq(8);
    eq.insert(entry(10));
    eq.insert(entry(20));
    EqEntry* hit = eq.search(20);
    ASSERT_NE(hit, nullptr);
    hit->has_reward = true;
    EXPECT_EQ(eq.search(20), nullptr); // rewarded entries excluded
    EXPECT_NE(eq.search(10), nullptr);
}

TEST(Eq, SearchAllReturnsEveryMatch)
{
    EvaluationQueue eq(8);
    eq.insert(entry(30, 1));
    eq.insert(entry(30, 2));
    eq.insert(entry(31, 3));
    const auto all = eq.searchAll(30);
    EXPECT_EQ(all.size(), 2u);
}

TEST(Eq, MarkFillSetsFillTime)
{
    EvaluationQueue eq(8);
    eq.insert(entry(40));
    EXPECT_TRUE(eq.markFill(40, 1234));
    EqEntry* e = eq.search(40);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->fill_known);
    EXPECT_EQ(e->fill_time, 1234u);
    EXPECT_FALSE(eq.markFill(99, 1)); // no such prefetch
}

TEST(Eq, NoPrefetchEntriesNotSearchable)
{
    EvaluationQueue eq(8);
    eq.insert(entry(0)); // no-prefetch action
    EXPECT_EQ(eq.search(0), nullptr);
}

// --------------------------------------------------------------------- agent

PythiaConfig
testAgentCfg()
{
    PythiaConfig cfg;
    cfg.alpha = 0.3;
    cfg.epsilon = 0.0; // deterministic for tests
    cfg.eq_size = 16;
    return cfg;
}

sim::PrefetchAccess
demand(Addr block, Addr pc = 0x42, Cycle cycle = 0)
{
    sim::PrefetchAccess a;
    a.pc = pc;
    a.block = block;
    a.address = block << kBlockShift;
    a.cycle = cycle;
    return a;
}

TEST(Agent, EmitsAtMostOnePrefetchPerDemand)
{
    PythiaPrefetcher agent(testAgentCfg());
    std::vector<sim::PrefetchRequest> out;
    for (int i = 0; i < 100; ++i) {
        out.clear();
        agent.train(demand(kBase + i, 0x42, i * 10), out);
        EXPECT_LE(out.size(), 1u);
    }
}

TEST(Agent, PrefetchTargetsStayInPage)
{
    PythiaConfig cfg = testAgentCfg();
    cfg.epsilon = 0.5; // heavy random exploration: exercise all actions
    PythiaPrefetcher agent(cfg);
    std::vector<sim::PrefetchRequest> out;
    for (int i = 0; i < 3000; ++i) {
        out.clear();
        agent.train(demand(kBase + (i % 64), 0x42, i * 10), out);
        for (const auto& pr : out)
            EXPECT_EQ(pageIdOfBlock(pr.block),
                      pageIdOfBlock(kBase + (i % 64)));
    }
}

TEST(Agent, OutOfPageActionsGetRclWithoutPrefetch)
{
    PythiaConfig cfg = testAgentCfg();
    cfg.actions = {63}; // always out of page except at offset 0
    PythiaPrefetcher agent(cfg);
    std::vector<sim::PrefetchRequest> out;
    for (int i = 1; i < 50; ++i) {
        out.clear();
        agent.train(demand(kBase + i, 0x42, i * 10), out);
        EXPECT_TRUE(out.empty());
    }
    EXPECT_GE(agent.agentStats().counter("action_out_of_page"), 49u);
}

TEST(Agent, NoPrefetchActionRecorded)
{
    PythiaConfig cfg = testAgentCfg();
    cfg.actions = {0};
    PythiaPrefetcher agent(cfg);
    std::vector<sim::PrefetchRequest> out;
    for (int i = 0; i < 20; ++i)
        agent.train(demand(kBase + i), out);
    EXPECT_EQ(agent.agentStats().counter("action_no_prefetch"), 20u);
    EXPECT_TRUE(out.empty());
}

TEST(Agent, AccurateTimelyRewardOnFilledHit)
{
    PythiaConfig cfg = testAgentCfg();
    cfg.actions = {1};
    PythiaPrefetcher agent(cfg);
    std::vector<sim::PrefetchRequest> out;
    agent.train(demand(kBase, 0x42, 100), out);
    ASSERT_EQ(out.size(), 1u);
    agent.onFill(out[0].block, 150); // fill completes at 150
    out.clear();
    agent.train(demand(kBase + 1, 0x42, 500), out); // demand after fill
    EXPECT_EQ(agent.agentStats().counter("reward_accurate_timely"), 1u);
}

TEST(Agent, AccurateLateRewardBeforeFill)
{
    PythiaConfig cfg = testAgentCfg();
    cfg.actions = {1};
    PythiaPrefetcher agent(cfg);
    std::vector<sim::PrefetchRequest> out;
    agent.train(demand(kBase, 0x42, 100), out);
    ASSERT_EQ(out.size(), 1u);
    agent.onFill(out[0].block, 900); // fill far in the future
    out.clear();
    agent.train(demand(kBase + 1, 0x42, 200), out); // demand before fill
    EXPECT_EQ(agent.agentStats().counter("reward_accurate_late"), 1u);
}

TEST(Agent, UnmatchedPrefetchesBecomeInaccurateOnEviction)
{
    PythiaConfig cfg = testAgentCfg();
    cfg.actions = {5};
    cfg.eq_size = 4;
    PythiaPrefetcher agent(cfg);
    std::vector<sim::PrefetchRequest> out;
    // Stride-64 demands: +5 prefetch targets are never demanded.
    for (int i = 0; i < 20; ++i) {
        out.clear();
        agent.train(demand(kBase + 64ull * i, 0x42, i * 10), out);
    }
    EXPECT_GT(agent.agentStats().counter("reward_inaccurate"), 10u);
}

TEST(Agent, LearnsToStopPrefetchingOnRandomPattern)
{
    // Random demands: every prefetch is inaccurate, so the agent should
    // increasingly pick the no-prefetch action (R_NP > R_IN).
    PythiaConfig cfg = testAgentCfg();
    cfg.epsilon = 0.05;
    cfg.alpha = 0.3;
    PythiaPrefetcher agent(cfg);
    Rng rng(4);
    std::vector<sim::PrefetchRequest> out;
    std::uint64_t issued_late = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        out.clear();
        agent.train(
            demand(kBase + rng.nextBounded(1u << 24), 0x42, i * 10), out);
        if (i > n - 5000)
            issued_late += out.size();
    }
    // In the last 5000 demands nearly everything should be no-prefetch.
    EXPECT_LT(issued_late, 1500u);
}

TEST(Agent, LearnsConstantOffsetPattern)
{
    // Demands advance by +2 within pages; +1 and +3 exist in the action
    // list but +2 does not... use a custom list including +2 to verify
    // the agent finds the covering offset.
    PythiaConfig cfg = testAgentCfg();
    cfg.actions = {0, 1, 2, 3};
    cfg.epsilon = 0.05;
    cfg.alpha = 0.3;
    PythiaPrefetcher agent(cfg);
    Rng rng(4);
    std::vector<sim::PrefetchRequest> out;
    Addr page = 0;
    std::uint64_t covered = 0, total = 0;
    Addr prev_target = 0;
    Cycle t = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr block = kBase + page * 64 + (i % 32) * 2;
        if (i % 32 == 31)
            ++page;
        out.clear();
        agent.train(demand(block, 0x42, t), out);
        if (!out.empty()) {
            agent.onFill(out[0].block, t + 50);
            prev_target = out[0].block;
        }
        if (i > 15000) {
            ++total;
            covered += (prev_target == block + 2);
        }
        t += 100;
    }
    EXPECT_GT(static_cast<double>(covered) / total, 0.6);
}

TEST(Agent, RewardCustomizationViaConfigRegisters)
{
    PythiaPrefetcher agent(testAgentCfg());
    RewardConfig strict;
    strict.r_in_high = -22;
    agent.setRewards(strict);
    EXPECT_DOUBLE_EQ(agent.config().rewards.r_in_high, -22.0);
}

TEST(Agent, ActionIndexLookup)
{
    PythiaPrefetcher agent(testAgentCfg());
    EXPECT_EQ(agent.actionIndexOf(0), 3u); // basic list position of 0
    EXPECT_EQ(agent.actionIndexOf(23), 13u);
    EXPECT_EQ(agent.actionIndexOf(99), static_cast<std::size_t>(-1));
}

// ------------------------------------------------------------------- configs

TEST(Configs, BasicMatchesTable2)
{
    const PythiaConfig cfg = basicPythiaConfig();
    EXPECT_EQ(cfg.actions.size(), 16u);
    EXPECT_DOUBLE_EQ(cfg.alpha, 0.0065);
    EXPECT_DOUBLE_EQ(cfg.gamma, 0.556);
    EXPECT_DOUBLE_EQ(cfg.epsilon, 0.002);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_at, 20.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_al, 12.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_cl, -12.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_in_high, -14.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_in_low, -8.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_np_high, -2.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_np_low, -4.0);
}

TEST(Configs, StrictTightensInaccuracyPenalty)
{
    const PythiaConfig cfg = strictPythiaConfig();
    EXPECT_DOUBLE_EQ(cfg.rewards.r_in_high, -22.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_in_low, -20.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_np_high, 0.0);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_np_low, 0.0);
}

TEST(Configs, BandwidthObliviousErasesDistinction)
{
    const PythiaConfig cfg = bandwidthObliviousConfig();
    EXPECT_DOUBLE_EQ(cfg.rewards.r_in_high, cfg.rewards.r_in_low);
    EXPECT_DOUBLE_EQ(cfg.rewards.r_np_high, cfg.rewards.r_np_low);
}

// ------------------------------------------------------------- storage model

TEST(Storage, Table4Reproduces)
{
    const StorageBreakdown s = computeStorage(basicPythiaConfig());
    EXPECT_EQ(s.qvstore_bytes, 24u * 1024); // 24 KB
    EXPECT_EQ(s.eq_bytes, 1536u);           // 1.5 KB
    EXPECT_EQ(s.total_bytes, 26112u);       // 25.5 KB
    EXPECT_EQ(s.eq_entry_bits, 48u);
}

TEST(Storage, ScalesWithVaults)
{
    PythiaConfig cfg = basicPythiaConfig();
    cfg.features.push_back(
        FeatureSpec{ControlKind::Pc, DataKind::PageOffset});
    const StorageBreakdown s = computeStorage(cfg);
    EXPECT_EQ(s.qvstore_bytes, 36u * 1024); // 3 vaults
}

TEST(Storage, OverheadMatchesTable8Anchor)
{
    const auto s = computeStorage(basicPythiaConfig());
    const auto e = estimateOverhead(s);
    EXPECT_NEAR(e.area_mm2, 0.33, 0.01);
    EXPECT_NEAR(e.power_mw, 55.11, 0.5);
    std::size_t n = 0;
    const ReferenceProcessor* refs = referenceProcessors(&n);
    ASSERT_EQ(n, 3u);
    // 4-core desktop: ~1.03% area, ~0.37% power (Table 8 row 1).
    EXPECT_NEAR(e.area_overhead(refs[0].die_area_mm2) * refs[0].cores,
                0.0103, 0.0005);
    EXPECT_NEAR(e.power_overhead(refs[0].tdp_w) * refs[0].cores, 0.0037,
                0.0005);
}

} // namespace
} // namespace pythia::rl
