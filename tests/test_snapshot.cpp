/**
 * @file
 * Snapshot subsystem property tests (ctest label: property).
 *
 * Covers the pythia-snap-v1 stack bottom-up: codec primitive round
 * trips and section discipline, the file container's validation order
 * and corruption taxonomy (each failure mode its own typed error),
 * configuration fingerprints, StatGroup save/load/copy, SimSession
 * snapshot/resume equivalence (post-warmup and mid-run), and, for
 * every registered prefetcher, machine forks, byte round trips and
 * hostile prefetcher sections.
 * The full golden-grid restore→advance gate lives in
 * test_snapshot_golden.cpp (label: golden).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "prefetchers/streamer.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/snapshot.hpp"

namespace pythia {
namespace {

namespace fs = std::filesystem;

std::string
tmpPath(const std::string& name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t>
readFileBytes(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f) << path;
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
writeFileBytes(const std::string& path,
               const std::vector<std::uint8_t>& bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f) << path;
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/** Field-for-field bit-exact RunResult comparison (doubles with ==;
 *  the golden suite pins the same way). */
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

/** A small, cheap spec that still exercises the full Pythia stack
 *  (QVStore, EQ, feature extractor, RNG). */
harness::ExperimentSpec
smallPythiaSpec()
{
    return {.workload = "462.libquantum-1343B",
            .prefetcher = "pythia",
            .warmup_instrs = 10'000,
            .sim_instrs = 20'000};
}

// ------------------------------------------------------------------ codec

TEST(SnapCodec, PrimitivesRoundTrip)
{
    snap::Writer w;
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.boolean(true);
    w.boolean(false);
    w.f32(1.5f);
    w.f64(-0.1); // not exactly representable: bit pattern must survive
    w.str("hello");

    snap::Reader r(w.buffer().data(), w.buffer().size());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.f32(), 1.5f);
    EXPECT_EQ(r.f64(), -0.1);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapArchive, StringsAndVectorsRoundTrip)
{
    const std::string s = "hello";
    const std::vector<std::uint64_t> u64s = {1ull << 60, 7};
    const std::vector<double> f64s = {1e-300, -0.0};
    const std::vector<std::string> strs = {"a", "", "bc"};
    snap::Writer w;
    snap::save(s, w);
    snap::save(u64s, w);
    snap::save(f64s, w);
    snap::save(strs, w);
    // A string is its u64 length and bytes, the Writer::str form.
    EXPECT_EQ(w.buffer()[0], 5);

    snap::Reader r(w.buffer().data(), w.buffer().size());
    std::string s2;
    std::vector<std::uint64_t> u64s2 = {9, 9, 9};
    std::vector<double> f64s2;
    std::vector<std::string> strs2;
    snap::load(s2, r);
    snap::load(u64s2, r);
    snap::load(f64s2, r);
    snap::load(strs2, r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(s2, s);
    EXPECT_EQ(u64s2, u64s);
    EXPECT_EQ(strs2, strs);
    ASSERT_EQ(f64s2.size(), 2u);
    EXPECT_EQ(f64s2[0], 1e-300);
    // -0.0 == 0.0 under ==, so check the sign bit survived explicitly.
    EXPECT_TRUE(std::signbit(f64s2[1]));
}

TEST(SnapCodec, SectionsNestAndMustBalanceExactly)
{
    snap::Writer w;
    w.beginSection("outer");
    w.u32(1);
    w.beginSection("inner");
    w.u64(2);
    w.endSection();
    w.endSection();

    snap::Reader r(w.buffer().data(), w.buffer().size());
    r.enterSection("outer");
    EXPECT_EQ(r.u32(), 1u);
    r.enterSection("inner");
    EXPECT_EQ(r.u64(), 2u);
    r.leaveSection();
    r.leaveSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapCodec, UnderConsumedSectionThrows)
{
    snap::Writer w;
    w.beginSection("s");
    w.u32(1);
    w.u32(2);
    w.endSection();

    snap::Reader r(w.buffer().data(), w.buffer().size());
    r.enterSection("s");
    (void)r.u32(); // leave 4 bytes unread
    EXPECT_THROW(r.leaveSection(), snap::CorruptError);
}

TEST(SnapCodec, ReadPastSectionEndThrows)
{
    snap::Writer w;
    w.beginSection("s");
    w.u32(1);
    w.endSection();
    w.u64(99); // bytes after the section must be unreachable inside it

    snap::Reader r(w.buffer().data(), w.buffer().size());
    r.enterSection("s");
    (void)r.u32();
    EXPECT_THROW((void)r.u8(), snap::CorruptError);
}

TEST(SnapCodec, WrongSectionNameThrows)
{
    snap::Writer w;
    w.beginSection("actual");
    w.endSection();
    snap::Reader r(w.buffer().data(), w.buffer().size());
    EXPECT_THROW(r.enterSection("expected"), snap::CorruptError);
}

TEST(SnapCodec, InvalidBoolEncodingThrows)
{
    snap::Writer w;
    w.u8(2);
    snap::Reader r(w.buffer().data(), w.buffer().size());
    EXPECT_THROW((void)r.boolean(), snap::CorruptError);
}

TEST(SnapCodec, TruncatedBufferThrows)
{
    snap::Writer w;
    w.u32(7);
    snap::Reader r(w.buffer().data(), 2); // half the u32
    EXPECT_THROW((void)r.u32(), snap::CorruptError);
}

TEST(SnapCodec, HostileVectorCountIsCorruptError)
{
    // Counts whose byte size wraps 64 bits (2^62 * 4 and 2^61 * 8 are
    // both 0 mod 2^64) must fail the bounds check as CorruptError, not
    // reach the vector constructor and throw std::length_error.
    const auto countOnly = [](std::uint64_t n) {
        snap::Writer w;
        w.u64(n);
        w.u64(0); // a little payload, far short of n elements
        return w.buffer();
    };
    const std::vector<std::uint8_t> wrap4 = countOnly(1ull << 62);
    const std::vector<std::uint8_t> wrap8 = countOnly(1ull << 61);
    const auto load = [](const std::vector<std::uint8_t>& bytes, auto v) {
        snap::Reader r(bytes.data(), bytes.size());
        snap::load(v, r);
    };
    EXPECT_THROW(load(wrap4, std::vector<std::uint32_t>{}),
                 snap::CorruptError);
    EXPECT_THROW(load(wrap4, std::vector<float>{}), snap::CorruptError);
    EXPECT_THROW(load(wrap8, std::vector<std::uint64_t>{}),
                 snap::CorruptError);
    EXPECT_THROW(load(wrap8, std::vector<double>{}), snap::CorruptError);
    EXPECT_THROW(load(wrap8, std::vector<std::string>{}),
                 snap::CorruptError);
    // A count that fits the remaining bytes still decodes.
    snap::Writer ok;
    snap::save(std::vector<std::uint32_t>{1, 2}, ok);
    snap::Reader r(ok.buffer().data(), ok.buffer().size());
    std::vector<std::uint32_t> v;
    snap::load(v, r);
    EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 2}));
}

TEST(SnapCodec, UnclosedSectionIsALogicError)
{
    snap::Writer w;
    w.beginSection("open");
    EXPECT_THROW((void)w.buffer(), std::logic_error);
}

// --------------------------------------------------------------- StatGroup

TEST(SnapStats, StatGroupRoundTripPreservesSlotPointers)
{
    StatGroup g("g");
    g.inc("hits", 7);
    g.inc("misses", 3);
    g.set("ipc", 1.25);
    std::uint64_t* slot = g.counterSlot("hits");

    snap::Writer w;
    snap::save(g, w);

    g.inc("hits", 100); // diverge after the snapshot
    g.set("ipc", 9.0);

    snap::Reader r(w.buffer().data(), w.buffer().size());
    snap::load(g, r);
    EXPECT_EQ(g.counter("hits"), 7u);
    EXPECT_EQ(g.counter("misses"), 3u);
    EXPECT_EQ(g.value("ipc"), 1.25);
    // The hot-path contract: the pre-load slot pointer still reads the
    // restored value.
    EXPECT_EQ(*slot, 7u);

    // A copy keeps the same contract, and a counter the source lacks
    // reads zero.
    StatGroup other("other");
    other.inc("hits", 42);
    snap::copy(g, other);
    EXPECT_EQ(*slot, 42u);
    EXPECT_EQ(g.counter("misses"), 0u);
    EXPECT_EQ(g.value("ipc"), 0.0);
}

// ----------------------------------------------------------- file container

TEST(SnapFile, WriteReadRoundTrip)
{
    const std::string path = tmpPath("roundtrip.snap");
    snap::writeSnapshotFile(path, "cores=1;", [](snap::Writer& w) {
        w.beginSection("payload");
        w.u64(42);
        w.endSection();
    });

    const snap::SnapshotFile sf = snap::readSnapshotFile(path, "cores=1;");
    EXPECT_EQ(sf.version, snap::kFormatVersion);
    EXPECT_EQ(sf.fingerprint, "cores=1;");
    snap::Reader r = sf.body();
    r.enterSection("payload");
    EXPECT_EQ(r.u64(), 42u);
    r.leaveSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapFile, MissingFileIsIoError)
{
    EXPECT_THROW(snap::readSnapshotFile(tmpPath("nonexistent.snap"), ""),
                 snap::IoError);
}

TEST(SnapFile, TruncatedFileIsCorruptError)
{
    const std::string path = tmpPath("truncated.snap");
    snap::writeSnapshotFile(path, "k=v;", [](snap::Writer& w) {
        w.beginSection("s");
        snap::save(std::vector<std::uint64_t>(64, 7), w);
        w.endSection();
    });
    auto bytes = readFileBytes(path);
    bytes.resize(bytes.size() / 2);
    writeFileBytes(path, bytes);
    EXPECT_THROW(snap::readSnapshotFile(path, "k=v;"), snap::CorruptError);
}

TEST(SnapFile, FlippedByteIsCorruptError)
{
    const std::string path = tmpPath("bitrot.snap");
    snap::writeSnapshotFile(path, "k=v;", [](snap::Writer& w) {
        w.beginSection("s");
        w.u64(7);
        w.endSection();
    });
    auto bytes = readFileBytes(path);
    bytes[bytes.size() / 2] ^= 0x40; // one flipped bit mid-file
    writeFileBytes(path, bytes);
    EXPECT_THROW(snap::readSnapshotFile(path, "k=v;"), snap::CorruptError);
}

TEST(SnapFile, WrongVersionIsVersionError)
{
    const std::string path = tmpPath("version.snap");
    snap::writeSnapshotFile(path, "k=v;", [](snap::Writer& w) {
        w.beginSection("s");
        w.endSection();
    });
    auto bytes = readFileBytes(path);
    bytes[sizeof(snap::kMagic)] = 99; // version u32 follows the magic
    writeFileBytes(path, bytes);
    EXPECT_THROW(snap::readSnapshotFile(path, "k=v;"), snap::VersionError);
}

TEST(SnapFile, BadMagicIsCorruptError)
{
    const std::string path = tmpPath("magic.snap");
    snap::writeSnapshotFile(path, "k=v;", [](snap::Writer& w) {
        w.beginSection("s");
        w.endSection();
    });
    auto bytes = readFileBytes(path);
    bytes[0] = 'X';
    writeFileBytes(path, bytes);
    EXPECT_THROW(snap::readSnapshotFile(path, "k=v;"), snap::CorruptError);
}

TEST(SnapFile, FingerprintMismatchDiagnosesFields)
{
    const std::string path = tmpPath("fingerprint.snap");
    snap::writeSnapshotFile(path, "workload=a;cores=1;seed=0;",
                            [](snap::Writer& w) {
                                w.beginSection("s");
                                w.endSection();
                            });
    try {
        snap::readSnapshotFile(path, "workload=a;cores=4;seed=0;");
        FAIL() << "expected FingerprintError";
    } catch (const snap::FingerprintError& e) {
        const std::string msg = e.what();
        // The did-you-mean diff names the differing field and both
        // values — a stale cache must be diagnosable from the message.
        EXPECT_NE(msg.find("cores"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'1'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'4'"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("workload:"), std::string::npos) << msg;
    }
}

TEST(SnapFile, InspectReportsSectionsAndChecksum)
{
    const std::string path = tmpPath("inspect.snap");
    snap::writeSnapshotFile(path, "k=v;", [](snap::Writer& w) {
        w.beginSection("alpha");
        w.u64(1);
        w.endSection();
        w.beginSection("beta");
        w.u32(2);
        w.endSection();
    });
    const snap::SnapshotInfo info = snap::inspectSnapshotFile(path);
    EXPECT_TRUE(info.checksum_ok);
    EXPECT_EQ(info.fingerprint, "k=v;");
    ASSERT_EQ(info.sections.size(), 2u);
    EXPECT_EQ(info.sections[0].name, "alpha");
    EXPECT_EQ(info.sections[0].length, 8u);
    EXPECT_EQ(info.sections[1].name, "beta");
    EXPECT_EQ(info.sections[1].length, 4u);

    // A flipped byte shows up as a reported (not thrown) bad checksum.
    auto bytes = readFileBytes(path);
    bytes[info.sections[0].offset] ^= 1;
    writeFileBytes(path, bytes);
    EXPECT_FALSE(snap::inspectSnapshotFile(path).checksum_ok);
}

// -------------------------------------------------------------- fingerprint

TEST(SnapFingerprint, CoversEveryStateShapingField)
{
    const harness::ExperimentSpec base = smallPythiaSpec();
    const std::string fp = harness::fingerprintFor(base);

    auto differs = [&](harness::ExperimentSpec s) {
        return harness::fingerprintFor(s) != fp;
    };
    harness::ExperimentSpec s = base;
    s.prefetcher = "spp";
    EXPECT_TRUE(differs(s));
    s = base;
    s.l1_prefetcher = "nextline";
    EXPECT_TRUE(differs(s));
    s = base;
    s.num_cores = 4;
    EXPECT_TRUE(differs(s));
    s = base;
    s.warmup_instrs += 1;
    EXPECT_TRUE(differs(s));
    s = base;
    s.sim_instrs += 1;
    EXPECT_TRUE(differs(s));
    s = base;
    s.workload_seed = 99;
    EXPECT_TRUE(differs(s));
    s = base;
    s.mtps = 4800;
    EXPECT_TRUE(differs(s));
    s = base;
    s.llc_bytes_per_core *= 2;
    EXPECT_TRUE(differs(s));
    s = base;
    s.workload = "429.mcf-184B";
    EXPECT_TRUE(differs(s));
}

TEST(SnapFingerprint, CanonicalizesWorkloadSpellings)
{
    // Two spellings of one parameterized workload spec construct the
    // same stream and must share one fingerprint (and so restore each
    // other's snapshots).
    harness::ExperimentSpec a = smallPythiaSpec();
    a.workload = "stream:streams=2,mem_ratio=0.4";
    harness::ExperimentSpec b = a;
    b.workload = "stream:mem_ratio=0.4,streams=2";
    EXPECT_EQ(harness::fingerprintFor(a), harness::fingerprintFor(b));
}

// ------------------------------------------------------------------ session

TEST(SnapSession, PostWarmupResumeMatchesStraightThrough)
{
    const harness::ExperimentSpec spec = smallPythiaSpec();
    const std::string path = tmpPath("warm-session.snap");

    harness::SimSession cold(spec);
    cold.runWarmup();
    cold.snapshotTo(path);
    const sim::RunResult straight = cold.runToCompletion();

    harness::SimSession resumed =
        harness::SimSession::resumeFrom(spec, path);
    EXPECT_TRUE(resumed.warmupDone());
    EXPECT_EQ(resumed.instrsAdvanced(), 0u);
    const sim::RunResult replayed = resumed.runToCompletion();

    expectSameResult(straight, replayed, "post-warmup resume");
}

TEST(SnapSession, MidRunResumeMatchesStraightThrough)
{
    const harness::ExperimentSpec spec = smallPythiaSpec();
    const std::string path = tmpPath("midrun-session.snap");

    harness::SimSession cold(spec);
    cold.advance(spec.sim_instrs / 2);
    cold.snapshotTo(path);
    const sim::RunResult straight = cold.runToCompletion();

    harness::SimSession resumed =
        harness::SimSession::resumeFrom(spec, path);
    EXPECT_EQ(resumed.instrsAdvanced(), spec.sim_instrs / 2);
    EXPECT_EQ(resumed.windowsCompleted(), 1u);
    const sim::RunResult replayed = resumed.runToCompletion();

    expectSameResult(straight, replayed, "mid-run resume");
}

TEST(SnapSession, SnapshotFileHasTheDocumentedSections)
{
    const harness::ExperimentSpec spec = smallPythiaSpec();
    const std::string path = tmpPath("layout.snap");
    harness::SimSession session(spec);
    session.runWarmup();
    session.snapshotTo(path);

    const snap::SnapshotInfo info = snap::inspectSnapshotFile(path);
    EXPECT_TRUE(info.checksum_ok);
    EXPECT_EQ(info.fingerprint, harness::fingerprintFor(spec));
    std::vector<std::string> names;
    for (const auto& s : info.sections)
        names.push_back(s.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"session", "machine", "dram",
                                        "llc", "l2.0", "l1.0", "core.0",
                                        "pf.0"}));
}

TEST(SnapSession, ResumeUnderDifferentSpecIsFingerprintError)
{
    const harness::ExperimentSpec spec = smallPythiaSpec();
    const std::string path = tmpPath("stale.snap");
    harness::SimSession session(spec);
    session.runWarmup();
    session.snapshotTo(path);

    harness::ExperimentSpec other = spec;
    other.prefetcher = "spp";
    EXPECT_THROW(harness::SimSession::resumeFrom(other, path),
                 snap::FingerprintError);
}

// ------------------------------------------------------------------ fork

/** Runs @p a and every session of @p others window by window to the
 *  end of their budget and expects every window sample to match bit
 *  for bit. */
void
expectSameWindows(harness::SimSession& a,
                  const std::vector<harness::SimSession*>& others,
                  std::uint64_t window, const std::string& what)
{
    const auto bits = [](const harness::SimSession& s) {
        snap::Writer w;
        harness::writeWindowSample(w, s.lastWindow());
        return w.buffer();
    };
    while (!a.done()) {
        a.advance(window);
        for (harness::SimSession* b : others) {
            ASSERT_FALSE(b->done()) << what;
            b->advance(window);
            ASSERT_EQ(bits(a), bits(*b))
                << what << ": window " << a.windowsCompleted() - 1;
        }
    }
    for (harness::SimSession* b : others)
        EXPECT_TRUE(b->done()) << what;
}

harness::ExperimentSpec
smallSpecFor(const std::string& pf, std::uint32_t cores)
{
    return {.workload = "462.libquantum-1343B",
            .prefetcher = pf,
            .num_cores = cores,
            .warmup_instrs = 4'000,
            .sim_instrs = 6'000};
}

TEST(SnapFork, CopyCoversAllStateForEveryPrefetcher)
{
    // For every registered prefetcher, at 1 and 4 cores: a fork taken
    // mid-run and a session resumed from the mid-run image serialize
    // to the same bytes as their source (session body and whole
    // machine), and all three then run bit-identical windows.
    for (const std::string& pf : sim::PrefetcherRegistry::instance().names()) {
        for (const std::uint32_t cores : {1u, 4u}) {
            const std::string what =
                pf + " @ " + std::to_string(cores) + " cores";
            const harness::ExperimentSpec spec = smallSpecFor(pf, cores);
            harness::SimSession source(spec);
            source.advance(2'000);
            const std::vector<std::uint8_t> image = source.snapshotBytes();
            harness::SimSession copy =
                source.fork(harness::workloadsFor(spec));
            EXPECT_EQ(copy.snapshotBytes(), image) << what;
            harness::SimSession resumed =
                harness::SimSession::resumeFromBytes(
                    spec, image, harness::workloadsFor(spec));
            EXPECT_EQ(resumed.snapshotBytes(), image) << what;
            expectSameWindows(source, {&copy, &resumed}, 2'000, what);
        }
    }
}

/** [offset of the length field, payload size] of section @p name in a
 *  System image. */
std::pair<std::size_t, std::size_t>
findSection(const std::vector<std::uint8_t>& image, const std::string& name)
{
    snap::Reader r(image.data(), image.size());
    while (!r.atEnd()) {
        const std::string found = r.str();
        const std::size_t len_at = r.position();
        const std::uint64_t len = r.u64();
        if (found == name)
            return {len_at, static_cast<std::size_t>(len)};
        r.skip(len);
    }
    return {0, 0};
}

/** @p image with the u64 length at @p at set to @p len. */
void
patchLength(std::vector<std::uint8_t>& image, std::size_t at,
            std::uint64_t len)
{
    for (int i = 0; i < 8; ++i)
        image[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(len >> (8 * i));
}

TEST(SnapRestore, HostilePrefetcherSectionIsCorruptErrorForEveryPrefetcher)
{
    // A machine image whose "pf.0" section is one byte short (the last
    // byte cut) or one byte long (a byte appended) must be refused
    // with CorruptError by a machine load — never a crash, never a
    // silently shifted restore.
    for (const std::string& pf : sim::PrefetcherRegistry::instance().names()) {
        const harness::ExperimentSpec spec = smallSpecFor(pf, 1);
        harness::SimSession source(spec);
        source.advance(2'000);
        snap::Writer w;
        snap::save(source.system(), w);
        const std::vector<std::uint8_t>& image = w.buffer();
        const auto [len_at, len] = findSection(image, "pf.0");
        if (len_at == 0)
            continue; // "none": no prefetcher section
        const std::size_t end = len_at + 8 + len;

        std::vector<std::vector<std::uint8_t>> hostile;
        if (len > 0) {
            std::vector<std::uint8_t> cut = image;
            cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(end - 1));
            patchLength(cut, len_at, len - 1);
            hostile.push_back(std::move(cut));
        }
        std::vector<std::uint8_t> longer = image;
        longer.insert(longer.begin() + static_cast<std::ptrdiff_t>(end), 0);
        patchLength(longer, len_at, len + 1);
        hostile.push_back(std::move(longer));

        for (const auto& bytes : hostile) {
            harness::SimSession target(spec);
            snap::Reader r(bytes.data(), bytes.size());
            EXPECT_THROW(snap::load(target.system(), r), snap::CorruptError)
                << pf << ", pf.0 of " << len << " bytes resized to "
                << bytes.size() - image.size() + len;
        }
    }
}

TEST(SnapRestore, StreamerDegreeAboveItsBoundIsCorruptError)
{
    // The restored degree bounds train()'s loop: an image claiming
    // 2^32 - 1 must be refused, not spun on.
    pf::StreamerPrefetcher streamer;
    snap::Writer w;
    streamer.saveState(w);
    std::vector<std::uint8_t> image = w.buffer();
    for (std::size_t i = 8; i < 12; ++i) // u64 tick, then u32 degree
        image[i] = 0xFF;
    snap::Reader r(image.data(), image.size());
    EXPECT_THROW(streamer.loadState(r), snap::CorruptError);
}

TEST(SnapFork, ForkRejectsAMismatchedMachine)
{
    // A machine without the source's prefetcher is not a fork target.
    harness::SimSession source(smallPythiaSpec());
    harness::ExperimentSpec bare = smallPythiaSpec();
    bare.prefetcher = "none";
    harness::SimSession target(bare);
    EXPECT_THROW(snap::copy(target.system(), source.system()),
                 std::invalid_argument);
}

} // namespace
} // namespace pythia
