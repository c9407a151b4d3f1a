/**
 * @file
 * Tests for the WorkloadRegistry (ctest labels: property + golden —
 * the golden label because catalog-alias equivalence and trace
 * capture/replay equivalence are result-preserving gates):
 *
 *  - parameterized spec construction for every generator family, and
 *    bit-equivalence of catalog aliases resolved through the registry
 *  - "did you mean" diagnostics for misspelled names and parameters
 *  - canonical spec spelling and Runner::baselineKey invariance
 *  - clone(reseed) independence and reset() determinism across all
 *    families (the property the multi-programmed mixes rely on)
 *  - trace capture -> "trace:file=" replay bit-identical to the live
 *    generator for one workload per suite (the equivalence rule of
 *    DESIGN.md §4.2)
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hashing.hpp"
#include "harness/runner.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"
#include "workloads/suites.hpp"
#include "workloads/trace.hpp"

namespace pythia::wl {
namespace {

bool
sameRecord(const TraceRecord& a, const TraceRecord& b)
{
    return a.pc == b.pc && a.addr == b.addr && a.gap == b.gap &&
           a.is_write == b.is_write &&
           a.depends_on_prev == b.depends_on_prev;
}

/** First @p n records of @p w, from a fresh reset(). */
std::vector<TraceRecord>
streamOf(Workload& w, int n)
{
    w.reset();
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(w.next());
    return out;
}

void
expectSameStream(Workload& a, Workload& b, int n, const std::string& why)
{
    const auto sa = streamOf(a, n);
    const auto sb = streamOf(b, n);
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(sameRecord(sa[static_cast<std::size_t>(i)],
                               sb[static_cast<std::size_t>(i)]))
            << why << " diverges at record " << i;
}

/** Unique-per-test scratch path, removed on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string& tag)
        : path_("wl_registry_test_" + tag + ".bin")
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
    ~ScratchFile()
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
    const std::string& str() const { return path_; }

  private:
    std::string path_;
};

// ----------------------------------------------------- spec construction

TEST(WorkloadRegistry, EveryFamilyConstructsFromABareName)
{
    for (const char* family :
         {"stream", "stride", "spatial", "delta", "irregular", "graph",
          "casestudy"}) {
        auto w = makeWorkload(family);
        ASSERT_NE(w, nullptr) << family;
        EXPECT_EQ(w->name(), family);
        (void)w->next();
    }
}

TEST(WorkloadRegistry, ParamsReachTheGenerator)
{
    // A single forward stream is strictly sequential — the streams=1
    // knob demonstrably arrived at StreamGen.
    auto w = makeWorkload("stream:streams=1");
    Addr prev = w->next().addr;
    for (int i = 0; i < 100; ++i) {
        const Addr cur = w->next().addr;
        EXPECT_EQ(blockAddr(cur), blockAddr(prev) + 1);
        prev = cur;
    }

    // A one-entry stride list walks at exactly that stride.
    auto s = makeWorkload("stride:strides=9");
    prev = s->next().addr;
    for (int i = 0; i < 100; ++i) {
        const Addr cur = s->next().addr;
        EXPECT_EQ(blockAddr(cur), blockAddr(prev) + 9);
        prev = cur;
    }
}

TEST(WorkloadRegistry, RawSpecMatchesDirectConstruction)
{
    const std::uint64_t seed = 0xABCDEF01ull;
    auto via_spec = WorkloadRegistry::instance().make(
        "spatial:patterns=6,density=0.35,mem_ratio=0.15,dep_ratio=0.45",
        seed);
    GenParams p;
    p.mem_ratio = 0.15;
    p.dep_ratio = 0.45;
    SpatialRegionGen direct("x", seed,
                            {.gen = p, .patterns = 6, .density = 0.35});
    expectSameStream(*via_spec, direct, 500, "spec vs direct");
}

TEST(WorkloadRegistry, FootprintAcceptsSizeSuffixes)
{
    auto suffixed = makeWorkload(
        "irregular:footprint=8M,stride_fraction=0", 0x5EEDull);
    auto bytes = makeWorkload(
        "irregular:footprint=8388608,stride_fraction=0", 0x5EEDull);
    expectSameStream(*suffixed, *bytes, 300, "8M vs 8388608");
}

TEST(WorkloadRegistry, SpellingOrderDoesNotChangeTheStream)
{
    // Same canonical spec => same default seed => identical stream,
    // even with shuffled parameter order and whitespace.
    auto a = makeWorkload("stream:streams=2,mem_ratio=0.4");
    auto b = makeWorkload(" stream : mem_ratio=0.4 , streams=2 ");
    expectSameStream(*a, *b, 300, "spelling variants");
}

// ------------------------------------------------------- catalog aliases

TEST(WorkloadRegistry, CatalogAliasesResolveThroughTheRegistry)
{
    // Every catalog name is a thin alias: constructing the alias's spec
    // directly through the registry with the same seed must replay the
    // catalog workload bit-identically. (The golden-metrics suite pins
    // the end-to-end result; this pins the stream itself.)
    auto check = [](const WorkloadSpec& entry) {
        const std::uint64_t seed = 0x1234'5678ull;
        auto via_name = makeWorkload(entry.name, seed);
        auto via_spec =
            WorkloadRegistry::instance().make(entry.spec, seed);
        expectSameStream(*via_name, *via_spec, 400, entry.name);
        EXPECT_EQ(via_name->name(), entry.name);
    };
    for (const auto& entry : allWorkloads())
        check(entry);
    for (const auto& entry : unseenWorkloads())
        check(entry);
}

TEST(WorkloadRegistry, CatalogSpecsAreCanonical)
{
    // Alias specs in suites.cpp are stored canonically, so baseline
    // keys and names never depend on incidental spelling.
    for (const auto& entry : allWorkloads())
        EXPECT_EQ(WorkloadRegistry::instance().canonical(entry.spec),
                  entry.spec)
            << entry.name;
}

// ----------------------------------------------------------- diagnostics

TEST(WorkloadRegistry, MisspelledCatalogNameSuggestsIt)
{
    try {
        makeWorkload("Ligra-PageRnk");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("Ligra-PageRank"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WorkloadRegistry, MisspelledFamilySuggestsIt)
{
    try {
        makeWorkload("stram:dep_ratio=0.9");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("stream"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WorkloadRegistry, MisspelledParameterSuggestsIt)
{
    try {
        makeWorkload("stream:streems=2");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("streams"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WorkloadRegistry, IllTypedAndOutOfRangeParametersAreRejected)
{
    EXPECT_THROW(makeWorkload("stream:streams=abc"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("stream:streams=0"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("stream:mem_ratio=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("spatial:density=0"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("delta:deltas=1/-2"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("stride:strides=2x"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("irregular:footprint=63"),
                 std::invalid_argument);
    // strtoull would wrap a negative size to 2^64-1; must reject.
    EXPECT_THROW(makeWorkload("irregular:footprint=-1"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("irregular:footprint=-64M"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("graph:degree=0"),
                 std::invalid_argument);
}

TEST(WorkloadRegistry, NonFiniteNumbersAreRejected)
{
    // NaN fails every range comparison: without the typed refusal,
    // mem_ratio=nan would build a generator with unbounded gaps.
    for (const std::string spec :
         {"stream:mem_ratio=nan", "spatial:density=nan",
          "graph:irregularity=inf"}) {
        try {
            (void)makeWorkload(spec);
            ADD_FAILURE() << spec << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("expects a number"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(WorkloadRegistry, FootprintBelongsToTheFamiliesThatReadIt)
{
    // Only irregular and graph read the working-set size; every other
    // family refuses it instead of silently ignoring it.
    EXPECT_NO_THROW(makeWorkload("irregular:footprint=8M"));
    EXPECT_NO_THROW(makeWorkload("graph:footprint=8M"));
    for (const std::string family :
         {"stream", "stride", "spatial", "delta", "casestudy"}) {
        try {
            (void)makeWorkload(family + ":footprint=8M");
            ADD_FAILURE() << family << " accepted footprint";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "unknown parameter 'footprint'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(WorkloadRegistry, IntegerParametersAreDecimal)
{
    // A leading zero is not an octal prefix: streams=08 is 8 and
    // streams=010 is 10 (same seed, so the same stream as the plain
    // spelling).
    auto a08 = makeWorkload("stream:streams=08", 7);
    auto a8 = makeWorkload("stream:streams=8", 7);
    expectSameStream(*a08, *a8, 300, "streams=08 vs 8");
    auto a010 = makeWorkload("stream:streams=010", 7);
    auto a10 = makeWorkload("stream:streams=10", 7);
    expectSameStream(*a010, *a10, 300, "streams=010 vs 10");
    try {
        (void)makeWorkload("stream:streams=0x10");
        FAIL() << "hex was accepted";
    } catch (const std::invalid_argument& e) {
        const std::string err = e.what();
        EXPECT_NE(err.find("stream: parameter 'streams'"),
                  std::string::npos)
            << err;
    }
}

TEST(WorkloadRegistry, MalformedSpecsAreRejected)
{
    // '+' composition belongs to prefetchers; workloads use phase:.
    EXPECT_THROW(makeWorkload("stream+graph"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("phase:"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("phase:stream@x"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("phase:stream@0"), std::invalid_argument);
    // An overlong length must surface as invalid_argument (the
    // documented contract), not std::out_of_range from stoull.
    EXPECT_THROW(
        makeWorkload("phase:stream@99999999999999999999999"),
        std::invalid_argument);
    EXPECT_THROW(makeWorkload("phase:phase:stream@40+graph@60"),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("trace:"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("stream:"), std::invalid_argument);
}

// ------------------------------------------------------ canonical + keys

TEST(WorkloadRegistry, CanonicalSortsKeysAndKeepsCatalogNames)
{
    EXPECT_EQ(canonicalWorkloadSpec("stream:mem_ratio=0.4,streams=2"),
              canonicalWorkloadSpec("stream:streams=2,mem_ratio=0.4"));
    EXPECT_EQ(canonicalWorkloadSpec("482.sphinx3-417B"),
              "482.sphinx3-417B");
    // Not a valid spec: passes through unchanged (total function).
    EXPECT_EQ(canonicalWorkloadSpec("no-such-trace"), "no-such-trace");
    // Default phase length becomes explicit.
    EXPECT_EQ(canonicalWorkloadSpec("phase:stream+graph@60"),
              canonicalWorkloadSpec("phase:stream@20000+graph@60"));
}

TEST(WorkloadRegistry, BaselineKeyIgnoresSpecSpelling)
{
    harness::ExperimentSpec a;
    a.workload = "stream:mem_ratio=0.4,streams=2";
    harness::ExperimentSpec b;
    b.workload = "stream:streams=2, mem_ratio=0.4";
    EXPECT_EQ(harness::Runner::baselineKey(a),
              harness::Runner::baselineKey(b));

    // Different parameters stay different keys.
    harness::ExperimentSpec c;
    c.workload = "stream:streams=3,mem_ratio=0.4";
    EXPECT_NE(harness::Runner::baselineKey(a),
              harness::Runner::baselineKey(c));

    // Mix entries canonicalize too.
    harness::ExperimentSpec ma;
    ma.num_cores = 2;
    ma.mix = {"stream:streams=2,mem_ratio=0.4", "470.lbm-164B"};
    harness::ExperimentSpec mb;
    mb.num_cores = 2;
    mb.mix = {"stream:mem_ratio=0.4,streams=2", "470.lbm-164B"};
    EXPECT_EQ(harness::Runner::baselineKey(ma),
              harness::Runner::baselineKey(mb));
}

// -------------------------------------------- clone / reset (all families)

/** Clone independence + reset determinism must hold for every family
 *  (the properties multi-programmed mixes and windowed replay rely
 *  on). Parameterized over raw family specs so the registry plumbing
 *  is under test too. */
class FamilyProperties : public ::testing::TestWithParam<const char*>
{
};

TEST_P(FamilyProperties, ResetReplaysBitIdentically)
{
    auto w = makeWorkload(GetParam());
    const auto first = streamOf(*w, 400);
    w->reset();
    for (int i = 0; i < 400; ++i)
        ASSERT_TRUE(sameRecord(w->next(),
                               first[static_cast<std::size_t>(i)]))
            << GetParam() << " at record " << i;
}

TEST_P(FamilyProperties, CloneWithSameSeedReplaysBitIdentically)
{
    auto w = makeWorkload(GetParam());
    auto c = w->clone(0);
    expectSameStream(*w, *c, 400, GetParam());
}

TEST_P(FamilyProperties, CloneWithNewSeedDiverges)
{
    auto w = makeWorkload(GetParam());
    auto c = w->clone(0xFEEDull);
    int same = 0;
    for (int i = 0; i < 300; ++i)
        same += (w->next().addr == c->next().addr);
    EXPECT_LT(same, 150) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyProperties,
    ::testing::Values("stream:streams=3,backwards=0.5",
                      "stride:strides=2/5",
                      "spatial:patterns=3,density=0.4,concurrency=2",
                      "delta:deltas=1/4",
                      "irregular:stride_fraction=0.3",
                      "graph:degree=5,irregularity=0.6",
                      "casestudy",
                      "phase:stream@50+graph@70"),
    [](const auto& info) {
        std::string n = info.param;
        n = n.substr(0, n.find(':'));
        return n + "_" + std::to_string(info.index);
    });

// --------------------------------------------------------- phase composite

TEST(PhaseComposite, RotatesChildrenWithPerChildLengths)
{
    // 40 stream records (PCs 0x400000+), then 60 graph records (PCs
    // 0x900000+), repeating.
    auto w = makeWorkload("phase:stream@40+graph@60");
    for (int lap = 0; lap < 3; ++lap) {
        for (int i = 0; i < 40; ++i) {
            const auto r = w->next();
            EXPECT_LT(r.pc, 0x500000u) << "lap " << lap << " rec " << i;
        }
        for (int i = 0; i < 60; ++i) {
            const auto r = w->next();
            EXPECT_GE(r.pc, 0x900000u) << "lap " << lap << " rec " << i;
        }
    }
}

TEST(PhaseComposite, ChildParametersCompose)
{
    // The stream child's streams=1 knob survives the phase grammar:
    // within the stream phase, addresses are strictly sequential.
    auto w = makeWorkload("phase:stream:streams=1@50+graph@50");
    Addr prev = w->next().addr;
    for (int i = 1; i < 50; ++i) {
        const Addr cur = w->next().addr;
        EXPECT_EQ(blockAddr(cur), blockAddr(prev) + 1) << "record " << i;
        prev = cur;
    }
}

// --------------------------------------------- trace capture / replay gate

/** The capture/replay equivalence rule (DESIGN.md §4.2): a captured
 *  trace replayed through "trace:file=" is bit-identical to the live
 *  generator — verified for one workload per suite plus an unseen
 *  one (phase mixes included via Cloudsuite). */
class TraceRoundTrip : public ::testing::TestWithParam<const char*>
{
};

TEST_P(TraceRoundTrip, ReplayIsBitIdenticalToLiveGenerator)
{
    const std::string name = GetParam();
    std::string tag = name;
    for (auto& c : tag)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    ScratchFile file(tag);

    constexpr int kRecords = 2000;
    auto live = makeWorkload(name);
    ASSERT_TRUE(writeTraceFile(file.str(), *live, kRecords));

    auto replay = makeWorkload("trace:file=" + file.str());
    live->reset();
    for (int i = 0; i < kRecords; ++i)
        ASSERT_TRUE(sameRecord(live->next(), replay->next()))
            << name << " at record " << i;
}

INSTANTIATE_TEST_SUITE_P(
    OnePerSuite, TraceRoundTrip,
    ::testing::Values("462.libquantum-1343B", // SPEC06
                      "605.mcf_s-665B",       // SPEC17
                      "PARSEC-Canneal",       // PARSEC
                      "Ligra-PageRank",       // Ligra
                      "Cloudsuite-Cassandra", // Cloudsuite (phase mix)
                      "srv-9"),               // unseen
    [](const auto& info) {
        std::string n = info.param;
        for (auto& c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(TraceSpec, MissingFileThrows)
{
    EXPECT_THROW(makeWorkload("trace:file=does_not_exist_9876.bin"),
                 std::runtime_error);
}

TEST(TraceSpec, ReplayNameIsTheSpec)
{
    ScratchFile file("name");
    auto live = makeWorkload("stream:streams=1");
    ASSERT_TRUE(writeTraceFile(file.str(), *live, 10));
    auto replay = makeWorkload("trace:file=" + file.str());
    EXPECT_EQ(replay->name(), "trace:file=" + file.str());
}

// ------------------------------------------------------------ harness path

TEST(HarnessIntegration, RawSpecRunsEndToEnd)
{
    harness::ExperimentSpec spec;
    spec.workload = "stream:streams=2,mem_ratio=0.4";
    spec.warmup_instrs = 1'000;
    spec.sim_instrs = 2'000;
    const auto res = harness::simulate(spec);
    EXPECT_GT(res.ipc_geomean, 0.0);
}

TEST(HarnessIntegration, HomogeneousRawSpecMixDecorrelates)
{
    harness::ExperimentSpec spec;
    spec.workload = "irregular:stride_fraction=0.1";
    spec.num_cores = 2;
    auto ws = harness::workloadsFor(spec);
    ASSERT_EQ(ws.size(), 2u);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (ws[0]->next().addr == ws[1]->next().addr);
    EXPECT_LT(same, 100);
}

} // namespace
} // namespace pythia::wl
