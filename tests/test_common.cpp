/**
 * @file
 * Unit tests for the common utilities: address helpers, RNG determinism,
 * hashing, stats, tables, the strict key=value layer (SpecParams) and
 * the bench command line.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "../bench/bench_common.hpp"
#include "common/params.hpp"
#include "common/spec.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "snapshot/archive.hpp"

namespace pythia {
namespace {

// ---------------------------------------------------------------------- types

TEST(Types, BlockAddrDropsOffsetBits)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockAddr(4096), 64u);
}

TEST(Types, BlockBaseAlignsDown)
{
    EXPECT_EQ(blockBase(0), 0u);
    EXPECT_EQ(blockBase(65), 64u);
    EXPECT_EQ(blockBase(127), 64u);
}

TEST(Types, PageIdAndOffset)
{
    EXPECT_EQ(pageId(0), 0u);
    EXPECT_EQ(pageId(4095), 0u);
    EXPECT_EQ(pageId(4096), 1u);
    EXPECT_EQ(pageOffset(0), 0u);
    EXPECT_EQ(pageOffset(64), 1u);
    EXPECT_EQ(pageOffset(4095), 63u);
    EXPECT_EQ(pageOffset(4096), 0u);
}

TEST(Types, PageIdOfBlockMatchesByteVersion)
{
    for (Addr byte : {0ull, 4096ull, 1ull << 20, 123456789ull})
        EXPECT_EQ(pageIdOfBlock(blockAddr(byte)), pageId(byte));
}

TEST(Types, SamePageAfterOffsetWithinPage)
{
    // Block 0 of a page: offsets up to +63 stay inside.
    const Addr block = blockAddr(1ull << 20);
    EXPECT_TRUE(samePageAfterOffset(block, 63));
    EXPECT_FALSE(samePageAfterOffset(block, 64));
    EXPECT_FALSE(samePageAfterOffset(block, -1));
}

TEST(Types, SamePageAfterOffsetMidPage)
{
    const Addr block = blockAddr(1ull << 20) + 32;
    EXPECT_TRUE(samePageAfterOffset(block, 31));
    EXPECT_FALSE(samePageAfterOffset(block, 32));
    EXPECT_TRUE(samePageAfterOffset(block, -32));
    EXPECT_FALSE(samePageAfterOffset(block, -33));
}

TEST(Types, SamePageAfterOffsetNearZero)
{
    EXPECT_FALSE(samePageAfterOffset(0, -1));
    EXPECT_TRUE(samePageAfterOffset(1, -1));
}

// ----------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next64() == b.next64());
    EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTripResumesStreamExactly)
{
    // Capture mid-stream, keep drawing on the original, then restore a
    // fresh generator from the captured state: both must produce the
    // identical remainder of the stream — the property the snapshot
    // subsystem's RNG serialization rests on. A copy does the same.
    Rng a(42);
    for (int i = 0; i < 1000; ++i)
        (void)a.next64();
    snap::Writer w;
    snap::save(a, w);
    Rng c(9);
    snap::copy(c, a);

    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 1000; ++i)
        expect.push_back(a.next64());

    Rng b(7); // different position and seed; the load must erase both
    snap::Reader r(w.buffer().data(), w.buffer().size());
    snap::load(b, r);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(b.next64(), expect[static_cast<std::size_t>(i)]);
        EXPECT_EQ(c.next64(), expect[static_cast<std::size_t>(i)]);
    }
}

TEST(Rng, RestoreRejectsAllZeroState)
{
    snap::Writer w;
    w.u64(0);
    w.u64(0);
    snap::Reader r(w.buffer().data(), w.buffer().size());
    Rng rng(1);
    EXPECT_THROW(snap::load(rng, r), snap::CorruptError);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequencyApproximatesP)
{
    Rng r(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, HeavyTailBounded)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextHeavyTail(64);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 64u);
    }
}

// ------------------------------------------------------------------- hashing

TEST(Hashing, Mix64Avalanches)
{
    // Flipping one input bit should flip roughly half the output bits.
    const std::uint64_t h0 = mix64(0x1234567890ABCDEFull);
    const std::uint64_t h1 = mix64(0x1234567890ABCDEEull);
    const int diff = __builtin_popcountll(h0 ^ h1);
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
}

TEST(Hashing, FoldedXorWidth)
{
    for (unsigned bits : {4u, 7u, 12u, 16u}) {
        const std::uint32_t v = foldedXor(0xDEADBEEFCAFEF00Dull, bits);
        EXPECT_LT(v, 1u << bits);
    }
}

TEST(Hashing, FoldedXorMatchesGroupwiseFold)
{
    // The definition: XOR of every bits-wide group, each masked.
    auto groupwise = [](std::uint64_t value, unsigned bits) {
        const std::uint64_t mask =
            (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
        std::uint64_t folded = 0;
        for (unsigned shift = 0; shift < 64; shift += bits)
            folded ^= (value >> shift) & mask;
        return static_cast<std::uint32_t>(folded);
    };
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (unsigned bits = 1; bits <= 64; ++bits) {
        for (const std::uint64_t v : {0ull, ~0ull, 1ull << 63, 1ull}) {
            ASSERT_EQ(groupwise(v, bits), foldedXor(v, bits))
                << "bits=" << bits << " value=" << v;
        }
        for (int i = 0; i < 200; ++i) {
            x = mix64(x + 1);
            ASSERT_EQ(groupwise(x, bits), foldedXor(x, bits))
                << "bits=" << bits << " value=" << x;
        }
    }
}

TEST(Hashing, PlaneIndexWithinRange)
{
    for (std::uint64_t f = 0; f < 1000; ++f)
        EXPECT_LT(planeIndex(f, 3, 7), 128u);
}

TEST(Hashing, DistinctPlaneShiftsDecorrelate)
{
    // Two planes should disagree on the row for most feature values.
    int same = 0;
    for (std::uint64_t f = 0; f < 1000; ++f)
        same += (planeIndex(f, 3, 7) == planeIndex(f, 11, 7));
    EXPECT_LT(same, 100);
}

TEST(Hashing, PlaneIndexSpreads)
{
    std::set<std::uint32_t> rows;
    for (std::uint64_t f = 0; f < 512; ++f)
        rows.insert(planeIndex(f, 3, 7));
    EXPECT_GT(rows.size(), 100u); // most of the 128 rows are used
}

// --------------------------------------------------------------------- stats

TEST(Stats, CountersAccumulate)
{
    StatGroup g("test");
    g.inc("a");
    g.inc("a", 4);
    EXPECT_EQ(g.counter("a"), 5u);
    EXPECT_EQ(g.counter("missing"), 0u);
}

TEST(Stats, ValuesSetAndReset)
{
    StatGroup g;
    g.set("ipc", 1.25);
    EXPECT_DOUBLE_EQ(g.value("ipc"), 1.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value("ipc"), 0.0);
    EXPECT_TRUE(g.has("ipc")); // names survive reset
}

TEST(Stats, DumpContainsPrefix)
{
    StatGroup g("l2");
    g.inc("hits", 3);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("l2.hits 3"), std::string::npos);
}

// --------------------------------------------------------------------- table

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.034, 1), "+3.4%");
    EXPECT_EQ(Table::pct(-0.021, 1), "-2.1%");
}

TEST(Table, CellsRoundTrip)
{
    Table t("x");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"3", "4"});
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cell(1, 0), "3");
}

TEST(Table, CsvWritten)
{
    Table t("csv");
    t.setHeader({"x"});
    t.addRow({"42"});
    const std::string path = "/tmp/pythia_test_table.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "x\n");
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(Table, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

// ---------------------------------------------------------------- params

SpecParams
argsOf(std::vector<const char*> args,
       const std::vector<std::string>& allowed)
{
    args.insert(args.begin(), "/usr/bin/prog");
    return SpecParams::fromArgs(static_cast<int>(args.size()), args.data(),
                                allowed);
}

/** what() of the std::invalid_argument @p f throws, or "" if none. */
template <class F>
std::string
errorOf(F&& f)
{
    try {
        f();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(SpecParams, TypedAccessors)
{
    const SpecParams p = argsOf(
        {"s=hello", "i=-7", "d=0.5", "b=true", "empty="},
        {"s", "i", "d", "b", "empty"});
    EXPECT_EQ(p.owner(), "prog");
    EXPECT_EQ(p.getString("s"), "hello");
    EXPECT_EQ(p.getInt("i", 0), -7);
    EXPECT_DOUBLE_EQ(p.getDouble("d", 0.0), 0.5);
    EXPECT_TRUE(p.getBool("b", false));
    EXPECT_EQ(p.getString("empty", "dflt"), "");
    EXPECT_EQ(p.getInt("missing", 9), 9);
    EXPECT_EQ(p.getU32("missing", 9, 4), 9u);
}

TEST(SpecParams, RejectsMalformedValues)
{
    const SpecParams p =
        argsOf({"i=12x", "b=maybe", "e="}, {"i", "b", "e"});
    EXPECT_THROW(p.getInt("i", 0), std::invalid_argument);
    EXPECT_THROW(p.getBool("b", false), std::invalid_argument);
    EXPECT_THROW(p.getInt("e", 0), std::invalid_argument);
    const std::string err = errorOf([&] { p.getBool("b", false); });
    EXPECT_NE(err.find("prog: parameter 'b' expects a boolean"),
              std::string::npos)
        << err;
}

TEST(SpecParams, BoolGrammar)
{
    const SpecParams p = argsOf(
        {"a=1", "b=true", "c=yes", "d=0", "e=false", "f=no", "g=TRUE",
         "h=2"},
        {"a", "b", "c", "d", "e", "f", "g", "h"});
    for (const char* k : {"a", "b", "c"})
        EXPECT_TRUE(p.getBool(k, false)) << k;
    for (const char* k : {"d", "e", "f"})
        EXPECT_FALSE(p.getBool(k, true)) << k;
    EXPECT_THROW(p.getBool("g", false), std::invalid_argument);
    EXPECT_THROW(p.getBool("h", false), std::invalid_argument);
}

TEST(SpecParams, IntegersAreDecimal)
{
    const SpecParams p = SpecParams(
        "stream", {{"a", "08"}, {"b", "010"}, {"c", "0x10"}, {"d", "010K"},
                   {"e", "08/010"}},
        {"a", "b", "c", "d", "e"});
    EXPECT_EQ(p.getInt("a", 0), 8);
    EXPECT_EQ(p.getU32("b", 0), 10u);
    EXPECT_EQ(p.getU64("b", 0), 10u);
    EXPECT_EQ(p.getI32("b", 0), 10);
    EXPECT_EQ(p.getBytes("d", 0), 10u << 10);
    EXPECT_EQ(p.getI32List("e", {}), (std::vector<std::int32_t>{8, 10}));
    const std::string err = errorOf([&] { p.getInt("c", 0); });
    EXPECT_NE(err.find("stream"), std::string::npos) << err;
    EXPECT_NE(err.find("'c'"), std::string::npos) << err;
    EXPECT_THROW(p.getBytes("c", 0), std::invalid_argument);
}

TEST(SpecParams, CountGettersRejectNegativeAndOutOfRange)
{
    const SpecParams p = argsOf({"n=-1", "big=4294967296", "cap=1025"},
                                {"n", "big", "cap"});
    for (const char* k : {"n", "big"})
        EXPECT_THROW(p.getU32(k, 0), std::invalid_argument) << k;
    EXPECT_THROW(p.getU64("n", 0), std::invalid_argument);
    EXPECT_EQ(p.getU32("cap", 0), 1025u);
    const std::string err =
        errorOf([&] { p.getU32("cap", 0, kMaxParallelism); });
    EXPECT_NE(err.find("expects an integer in [0, 1024]"),
              std::string::npos)
        << err;
    EXPECT_NE(errorOf([&] { p.getU32("n", 0); })
                  .find("prog: parameter 'n' expects an integer in "
                        "[0, 4294967295], got '-1'"),
              std::string::npos);
}

TEST(SpecParams, RepeatedKeyLastAssignmentWins)
{
    const SpecParams p = argsOf({"mtps=600", "mtps=1200"}, {"mtps"});
    EXPECT_EQ(p.getU32("mtps", 0), 1200u);
    EXPECT_EQ(p.keys(), std::vector<std::string>{"mtps"});
}

TEST(SpecParams, ValueKeepsEverythingAfterTheFirstEquals)
{
    const SpecParams p = argsOf(
        {"workload=stream:footprint=256M,mem_ratio=0.4"}, {"workload"});
    EXPECT_EQ(p.getString("workload"), "stream:footprint=256M,mem_ratio=0.4");
}

TEST(SpecParams, UnknownKeySuggestsAndListsAcceptedKeys)
{
    const std::string err = errorOf(
        [] { argsOf({"mtsp=600"}, {"workload", "prefetcher", "mtps"}); });
    EXPECT_NE(err.find("prog: unknown parameter 'mtsp'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("did you mean 'mtps'?"), std::string::npos) << err;
    EXPECT_NE(err.find("(accepted: workload, prefetcher, mtps)"),
              std::string::npos)
        << err;
}

TEST(SpecParams, TokenWithoutEqualsOrKeyIsRejected)
{
    for (const char* tok : {"--junk", "mtps", "=600", "="}) {
        const std::string err = errorOf([&] { argsOf({tok}, {"mtps"}); });
        EXPECT_NE(err.find("is not of the form key=value"),
                  std::string::npos)
            << tok << ": " << err;
        EXPECT_NE(err.find("accepted: mtps"), std::string::npos) << err;
    }
}

TEST(SpecList, SplitsOnSemicolonsKeepingSpecCommas)
{
    EXPECT_EQ(splitSpecs("stream:footprint=256M,mem_ratio=0.4; 470.lbm-164B;;"),
              (std::vector<std::string>{
                  "stream:footprint=256M,mem_ratio=0.4", "470.lbm-164B"}));
    EXPECT_TRUE(splitSpecs(" ; ").empty());
    EXPECT_TRUE(splitSpecs("").empty());
}

// ----------------------------------------------------------------- bench args

// parseBenchArgs terminates the bench with status 2 on contradictory
// knob combinations, so these run as death tests.
bench::BenchOptions
parseBench(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    return bench::parseBenchArgs(static_cast<int>(argv.size()),
                                 argv.data());
}

TEST(BenchArgs, WorkersWithThreadPoolJobsRejected)
{
    EXPECT_EXIT(parseBench({"workers=4", "jobs=8"}),
                ::testing::ExitedWithCode(2), "mutually exclusive");
}

TEST(BenchArgs, JournalWithoutWorkersRejected)
{
    EXPECT_EXIT(parseBench({"journal=sweep.journal"}),
                ::testing::ExitedWithCode(2), "requires workers=");
}

TEST(BenchArgs, UsageErrorsExitTwoWithOneLine)
{
    // Each message is the whole (single) stderr line, program name first.
    EXPECT_EXIT(parseBench({"sim_scal=2"}), ::testing::ExitedWithCode(2),
                "^bench: unknown parameter 'sim_scal'; did you mean "
                "'sim_scale'\\?[^\n]*\n$");
    EXPECT_EXIT(parseBench({"quiet"}), ::testing::ExitedWithCode(2),
                "^bench: argument 'quiet' is not of the form "
                "key=value[^\n]*\n$");
    EXPECT_EXIT(parseBench({"sim_scale=big"}), ::testing::ExitedWithCode(2),
                "^bench: parameter 'sim_scale' expects a number, got "
                "'big'\n$");
    EXPECT_EXIT(parseBench({"jobs=-1"}), ::testing::ExitedWithCode(2),
                "^bench: parameter 'jobs' expects an integer in "
                "\\[0, 1024\\], got '-1'\n$");
    EXPECT_EXIT(parseBench({"workers=99999999999"}),
                ::testing::ExitedWithCode(2), "parameter 'workers' expects");
    EXPECT_EXIT(parseBench({"profile=1"}), ::testing::ExitedWithCode(2),
                "unknown parameter 'profile'");
}

TEST(BenchArgs, NonFiniteSimScaleIsAUsageError)
{
    EXPECT_EXIT(parseBench({"sim_scale=nan"}), ::testing::ExitedWithCode(2),
                "^bench: parameter 'sim_scale' expects a number, got "
                "'nan'\n$");
    EXPECT_EXIT(parseBench({"sim_scale=inf"}), ::testing::ExitedWithCode(2),
                "^bench: parameter 'sim_scale' expects a number, got "
                "'inf'\n$");
}

TEST(BenchArgs, WorkersAloneAndWithExplicitSingleJobAccepted)
{
    const bench::BenchOptions a = parseBench({"workers=4"});
    EXPECT_EQ(a.workers, 4u);
    EXPECT_EQ(a.jobs, 0u);
    // jobs=1 is not contradictory: one in-process runner per worker.
    const bench::BenchOptions b = parseBench({"workers=2", "jobs=1"});
    EXPECT_EQ(b.workers, 2u);
    EXPECT_EQ(b.jobs, 1u);
}

} // namespace
} // namespace pythia
