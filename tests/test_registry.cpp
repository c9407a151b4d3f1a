/**
 * @file
 * Tests for the spec-string construction API: the shared spec parser,
 * the self-registering prefetcher registry (round-trips, parameterized
 * construction, compositions, error quality) and the cache-boundary
 * fill-level validation.
 */
#include <gtest/gtest.h>

#include "common/spec.hpp"
#include "core/agent.hpp"
#include "harness/experiment.hpp"
#include "prefetchers/prefetcher.hpp"
#include "sim/cache.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia {
namespace {

/** Expect that constructing @p spec throws std::invalid_argument whose
 *  message contains every string in @p needles. */
void
expectBadSpec(const std::string& spec,
              const std::vector<std::string>& needles)
{
    try {
        (void)sim::makePrefetcher(spec);
        FAIL() << "spec '" << spec << "' did not throw";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        for (const auto& needle : needles)
            EXPECT_NE(msg.find(needle), std::string::npos)
                << "message for '" << spec << "' lacks '" << needle
                << "': " << msg;
    }
}

// -------------------------------------------------------------- spec parser

TEST(SpecParser, NameOnly)
{
    const auto parts = parseSpecList("spp");
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0].name, "spp");
    EXPECT_TRUE(parts[0].params.empty());
}

TEST(SpecParser, ParamsAndWhitespaceAndCase)
{
    const auto parts = parseSpecList(" SPP : degree = 4 , x = 0.5 ");
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0].name, "spp");
    ASSERT_EQ(parts[0].params.size(), 2u);
    EXPECT_EQ(parts[0].params[0],
              (std::pair<std::string, std::string>{"degree", "4"}));
    EXPECT_EQ(parts[0].params[1],
              (std::pair<std::string, std::string>{"x", "0.5"}));
}

TEST(SpecParser, Composition)
{
    const auto parts = parseSpecList("stride:degree=2+spp+bingo");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0].name, "stride");
    ASSERT_EQ(parts[0].params.size(), 1u);
    EXPECT_EQ(parts[1].name, "spp");
    EXPECT_EQ(parts[2].name, "bingo");
}

TEST(SpecParser, StructuralErrors)
{
    EXPECT_THROW(parseSpecList("spp:degree="), std::invalid_argument);
    EXPECT_THROW(parseSpecList("spp:=4"), std::invalid_argument);
    EXPECT_THROW(parseSpecList("spp:degree"), std::invalid_argument);
    EXPECT_THROW(parseSpecList("spp:"), std::invalid_argument);
    EXPECT_THROW(parseSpecList("spp++bingo"), std::invalid_argument);
    EXPECT_THROW(parseSpecList(""), std::invalid_argument);
}

TEST(SpecParser, ClosestMatchSuggests)
{
    EXPECT_EQ(closestMatch("strid", {"stride", "spp", "bingo"}),
              "stride");
    EXPECT_EQ(closestMatch("zzzzzzzz", {"stride", "spp"}), "");
}

// ----------------------------------------------------------------- registry

TEST(SpecRegistry, EveryHarnessNameRoundTrips)
{
    const auto names = sim::prefetcherNames();
    ASSERT_GE(names.size(), 14u);
    for (const auto& name : names) {
        auto pf = sim::makePrefetcher(name);
        ASSERT_NE(pf, nullptr) << name;
        EXPECT_EQ(pf->name(), name);
        EXPECT_GT(pf->storageBytes(), 0u) << name;
    }
}

TEST(SpecRegistry, UnknownNameSuggestsAlternative)
{
    expectBadSpec("nosuch", {"unknown prefetcher 'nosuch'"});
    expectBadSpec("strid", {"unknown prefetcher 'strid'",
                            "did you mean 'stride'?"});
    expectBadSpec("pythai", {"did you mean 'pythia'?"});
}

TEST(SpecRegistry, UnknownParamRejectedWithHint)
{
    expectBadSpec("spp:bogus=1", {"spp", "unknown parameter 'bogus'",
                                  "max_lookahead"});
    expectBadSpec("nextline:degre=4", {"did you mean 'degree'?"});
}

TEST(SpecRegistry, EmptyValueRejected)
{
    expectBadSpec("spp:degree=", {"empty value", "degree"});
}

TEST(SpecRegistry, IllTypedValueRejected)
{
    expectBadSpec("nextline:degree=fast",
                  {"nextline", "degree", "'fast'"});
    expectBadSpec("pythia:alpha=squishy", {"pythia", "alpha"});
    expectBadSpec("nextline:degree=-2", {"degree"});
}

TEST(SpecRegistry, ParameterizedSpecChangesBehavior)
{
    auto deg1 = sim::makePrefetcher("nextline");
    auto deg4 = sim::makePrefetcher("nextline:degree=4");

    sim::PrefetchAccess acc;
    acc.pc = 0x400;
    acc.block = blockAddr(1ull << 20) + 8; // mid-page: room for +4
    std::vector<sim::PrefetchRequest> out;
    deg1->train(acc, out);
    EXPECT_EQ(out.size(), 1u);
    out.clear();
    deg4->train(acc, out);
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].block, acc.block + i + 1);
}

TEST(SpecRegistry, PythiaHyperparametersApplied)
{
    auto pf = sim::makePrefetcher(
        "pythia:alpha=0.5,gamma=0.25,degree=2,"
        "features=PC.Offset/Last4Offsets,actions=-3/0/1/5");
    auto* agent = dynamic_cast<rl::PythiaPrefetcher*>(pf.get());
    ASSERT_NE(agent, nullptr);
    EXPECT_DOUBLE_EQ(agent->config().alpha, 0.5);
    EXPECT_DOUBLE_EQ(agent->config().gamma, 0.25);
    EXPECT_EQ(agent->config().degree, 2u);
    const std::vector<rl::FeatureSpec> features = {
        {rl::ControlKind::Pc, rl::DataKind::PageOffset},
        {rl::ControlKind::None, rl::DataKind::Last4Offsets}};
    EXPECT_EQ(agent->config().features, features);
    EXPECT_EQ(agent->config().actions,
              (std::vector<std::int32_t>{-3, 0, 1, 5}));
    // Untouched knobs keep the scaled defaults.
    EXPECT_DOUBLE_EQ(agent->config().epsilon, 0.05);
    EXPECT_EQ(agent->config().eq_size, 256u);
}

TEST(SpecRegistry, EveryFeatureSpellingRoundTrips)
{
    const auto all = rl::allFeatureSpecs();
    ASSERT_EQ(all.size(), 31u);
    for (const rl::FeatureSpec& f : all) {
        const std::string spelling = rl::featureName(f, '.');
        EXPECT_EQ(spelling.find('+'), std::string::npos) << spelling;
        EXPECT_EQ(rl::parseFeatureName(spelling), f) << spelling;
        auto pf = sim::makePrefetcher("pythia:features=" + spelling);
        const auto* agent = dynamic_cast<rl::PythiaPrefetcher*>(pf.get());
        ASSERT_NE(agent, nullptr) << spelling;
        EXPECT_EQ(agent->config().features,
                  std::vector<rl::FeatureSpec>{f})
            << spelling;
    }
}

TEST(SpecRegistry, UnknownFeatureNamesOwnerKeyAndSpellings)
{
    expectBadSpec("pythia:features=PC.Delta/PC.Dleta",
                  {"pythia", "'features'", "'PC.Dleta'",
                   "did you mean 'PC.Delta'?", "Last4Deltas"});
    expectBadSpec("pythia_strict:features=PC+Delta", {"pythia_strict"});
    expectBadSpec("pythia:actions=1/x", {"'actions'"});
}

TEST(SpecRegistry, CompositionBuildsAndSumsStorage)
{
    auto composed = sim::makePrefetcher("stride+spp+bingo");
    ASSERT_NE(composed, nullptr);
    EXPECT_EQ(composed->name(), "stride+spp+bingo");
    const auto total = sim::makePrefetcher("stride")->storageBytes() +
                       sim::makePrefetcher("spp")->storageBytes() +
                       sim::makePrefetcher("bingo")->storageBytes();
    EXPECT_EQ(composed->storageBytes(), total);
}

TEST(SpecRegistry, CompositionKeepsFirstEmissionOrder)
{
    // Two next-line children with overlapping degrees: the union must
    // preserve the first child's emission order (priority), not sort by
    // block address.
    auto composed =
        sim::makePrefetcher("nextline:degree=4+nextline:degree=2");
    sim::PrefetchAccess acc;
    acc.block = blockAddr(1ull << 21) + 8;
    std::vector<sim::PrefetchRequest> out;
    composed->train(acc, out);
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].block, acc.block + i + 1);
}

TEST(SpecRegistry, NoneInCompositionRejected)
{
    expectBadSpec("none+spp", {"none"});
}

TEST(SpecRegistry, NoneVariantsAreNull)
{
    EXPECT_EQ(sim::makePrefetcher("none"), nullptr);
    EXPECT_EQ(sim::makePrefetcher("NONE"), nullptr);
    EXPECT_EQ(sim::makePrefetcher(" none "), nullptr);
    EXPECT_THROW(sim::makePrefetcher("none:x=1"), std::invalid_argument);
}

// --------------------------------------------------------- fluent builder

TEST(ExperimentBuilderApi, AccumulatesIntoSpec)
{
    const harness::ExperimentSpec spec =
        harness::Experiment("mix1")
            .cores(4)
            .l2("pythia:gamma=0.5")
            .l1("stride")
            .mtps(1200)
            .llcBytesPerCore(1ull << 20)
            .warmup(1'000)
            .measure(2'000)
            .workloadSeed(7)
            .build();
    EXPECT_EQ(spec.workload, "mix1");
    EXPECT_EQ(spec.num_cores, 4u);
    EXPECT_EQ(spec.prefetcher, "pythia:gamma=0.5");
    EXPECT_EQ(spec.l1_prefetcher, "stride");
    EXPECT_EQ(spec.mtps, 1200u);
    EXPECT_EQ(spec.llc_bytes_per_core, 1ull << 20);
    EXPECT_EQ(spec.warmup_instrs, 1'000u);
    EXPECT_EQ(spec.sim_instrs, 2'000u);
    EXPECT_EQ(spec.workload_seed, 7u);
}

TEST(ExperimentBuilderApi, ParameterizedSpecRunsEndToEnd)
{
    harness::Runner runner;
    const auto o = harness::Experiment("462.libquantum-1343B")
                       .l2("streamer:degree=2")
                       .warmup(5'000)
                       .measure(15'000)
                       .run(runner);
    EXPECT_GT(o.run.prefetch_issued, 0u);
    EXPECT_GT(o.metrics.speedup, 1.0);
}

TEST(ExperimentBuilderApi, ScaleWindows)
{
    const auto spec = harness::Experiment("x")
                          .warmup(10'000)
                          .measure(20'000)
                          .scaleWindows(0.5)
                          .build();
    EXPECT_EQ(spec.warmup_instrs, 5'000u);
    EXPECT_EQ(spec.sim_instrs, 10'000u);
}

// ------------------------------------------------- fill-level validation

/** Terminal memory with a flat latency. */
class FlatMemory : public sim::MemoryLevel
{
  public:
    Cycle access(const sim::MemAccess& req) override
    {
        return req.at + 100;
    }
    const std::string& levelName() const override { return name_; }

  private:
    std::string name_ = "flat";
};

/** Emits one candidate with a bogus fill level and one valid one. */
class BadFillPrefetcher : public pf::PrefetcherBase
{
  public:
    BadFillPrefetcher() : PrefetcherBase("badfill", 1) {}

    void train(const sim::PrefetchAccess& access,
               std::vector<sim::PrefetchRequest>& out) override
    {
        out.push_back({access.block + 1, 7});  // invalid level
        out.push_back({access.block + 2, 0});  // invalid level
        out.push_back({access.block + 3, 2});  // valid
    }
};

TEST(CacheFillLevel, OutOfRangeCandidatesRejected)
{
    FlatMemory mem;
    sim::Cache cache(sim::CacheConfig{}, mem);
    BadFillPrefetcher pf;
    cache.setPrefetcher(&pf);

    sim::MemAccess req;
    req.block = blockAddr(1ull << 20);
    req.type = AccessType::Load;
    cache.access(req);

    EXPECT_EQ(cache.stats().counter("prefetch_bad_fill_level"), 2u);
    EXPECT_EQ(cache.stats().counter("prefetch_issued"), 1u);
    EXPECT_TRUE(cache.contains(req.block + 3));
    EXPECT_FALSE(cache.contains(req.block + 1));
    EXPECT_FALSE(cache.contains(req.block + 2));
}

} // namespace
} // namespace pythia
