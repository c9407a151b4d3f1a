/**
 * @file
 * Edge-case tests for binary trace I/O (ctest label: property):
 * empty traces, truncated files, bad headers, hostile record counts,
 * flipped bytes, loop-boundary replay in FileWorkload, and write →
 * read round-trip equality of TraceRecord streams.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "workloads/trace.hpp"

namespace {

using namespace pythia;
namespace fs = std::filesystem;

/** Unique-per-test scratch path in the working directory, removed on
 *  destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string& tag)
        : path_("trace_io_test_" + tag + ".bin")
    {
        std::error_code ec;
        fs::remove(path_, ec);
    }
    ~ScratchFile()
    {
        std::error_code ec;
        fs::remove(path_, ec);
    }
    const std::string& str() const { return path_; }

  private:
    std::string path_;
};

std::vector<wl::TraceRecord>
sampleRecords(std::size_t n)
{
    std::vector<wl::TraceRecord> recs;
    recs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        wl::TraceRecord r;
        r.pc = 0x400000 + i * 4;
        r.addr = 0x10000 + i * 64;
        r.gap = static_cast<std::uint32_t>(i % 7);
        r.is_write = (i % 3) == 0;
        r.depends_on_prev = (i % 5) == 0;
        recs.push_back(r);
    }
    return recs;
}

bool
sameRecord(const wl::TraceRecord& a, const wl::TraceRecord& b)
{
    return a.pc == b.pc && a.addr == b.addr && a.gap == b.gap &&
           a.is_write == b.is_write &&
           a.depends_on_prev == b.depends_on_prev;
}

TEST(TraceIo, EmptyTraceFileIsRejected)
{
    ScratchFile f("empty");
    wl::FileWorkload src("src", sampleRecords(4));
    ASSERT_TRUE(wl::writeTraceFile(f.str(), src, 0));
    EXPECT_THROW(wl::FileWorkload{f.str()}, std::runtime_error);
}

TEST(TraceIo, EmptyInMemoryTraceIsRejected)
{
    EXPECT_THROW(wl::FileWorkload("empty", std::vector<wl::TraceRecord>{}),
                 std::runtime_error);
}

TEST(TraceIo, MissingFileIsRejected)
{
    EXPECT_THROW(wl::FileWorkload{"does_not_exist_12345.bin"},
                 std::runtime_error);
}

TEST(TraceIo, BadHeaderIsRejected)
{
    ScratchFile f("badmagic");
    {
        std::ofstream out(f.str(), std::ios::binary);
        const char junk[32] = "this is not a pythia trace";
        out.write(junk, sizeof junk);
    }
    EXPECT_THROW(wl::FileWorkload{f.str()}, std::runtime_error);
}

TEST(TraceIo, TruncatedFileIsRejected)
{
    ScratchFile f("trunc");
    wl::FileWorkload src("src", sampleRecords(10));
    ASSERT_TRUE(wl::writeTraceFile(f.str(), src, 10));

    // Chop mid-record: the reader must throw, not hand back garbage.
    const auto full = fs::file_size(f.str());
    fs::resize_file(f.str(), full - 13);
    EXPECT_THROW(wl::FileWorkload{f.str()}, std::runtime_error);

    // A header announcing more records than the file holds, too.
    fs::resize_file(f.str(), 12); // magic + count only
    EXPECT_THROW(wl::FileWorkload{f.str()}, std::runtime_error);
}

/** Peak resident set of this process, in KiB. */
long
peakRssKib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** Overwrite @p path with a 12-byte header: the magic of a real trace
 *  file, then a count of @p n records, and no records. */
void
writeBareHeader(const std::string& path, std::uint64_t n)
{
    ASSERT_TRUE(wl::writeTraceFile(path, std::vector<wl::TraceRecord>{}));
    fs::resize_file(path, 4); // keep the magic
    std::ofstream out(path, std::ios::binary | std::ios::app);
    for (int i = 0; i < 8; ++i)
        out.put(static_cast<char>(n >> (8 * i)));
}

TEST(TraceIo, HostileCountIsRejectedBeforeAllocating)
{
    ScratchFile f("hostile");
    for (const std::uint64_t n : {std::uint64_t{1} << 26,
                                  std::uint64_t{1} << 40}) {
        SCOPED_TRACE("count " + std::to_string(n));
        writeBareHeader(f.str(), n);
        ASSERT_EQ(fs::file_size(f.str()), 12u);
        const long before = peakRssKib();
        try {
            (void)wl::readTraceFile(f.str());
            ADD_FAILURE() << "a 12-byte file announcing " << n
                          << " records was accepted";
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(f.str()), std::string::npos) << what;
            EXPECT_NE(what.find(std::to_string(n)), std::string::npos)
                << what;
            // The codec names the format it was decoding.
            EXPECT_NE(what.find("trace file corrupt"), std::string::npos)
                << what;
            EXPECT_EQ(what.find("snapshot"), std::string::npos) << what;
        }
        // Sizing a record vector from the header alone would touch
        // 1.5 GiB for 2^26 records before noticing the file is short.
        EXPECT_LT(peakRssKib() - before, 64 * 1024);
    }
}

TEST(TraceIo, FlippedRecordByteIsRejected)
{
    ScratchFile f("flipped");
    ASSERT_TRUE(wl::writeTraceFile(f.str(), sampleRecords(10)));
    std::fstream io(f.str(), std::ios::binary | std::ios::in |
                                 std::ios::out);
    // Byte 3 of record 5's pc: a silently different address, unless
    // the checksum catches it.
    const std::streamoff at = 12 + 5 * 21 + 3;
    io.seekg(at);
    const char byte = static_cast<char>(io.get());
    io.seekp(at);
    io.put(static_cast<char>(byte ^ 0x10));
    io.close();
    try {
        (void)wl::readTraceFile(f.str());
        ADD_FAILURE() << "a trace with a flipped record byte was read";
    } catch (const wl::TraceFileError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(f.str()), std::string::npos) << what;
        EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    }
}

TEST(TraceIo, TrailingBytesAreRejected)
{
    ScratchFile f("trailing");
    ASSERT_TRUE(wl::writeTraceFile(f.str(), sampleRecords(3)));
    std::ofstream(f.str(), std::ios::binary | std::ios::app).put('\0');
    EXPECT_THROW(wl::readTraceFile(f.str()), wl::TraceFileError);
}

TEST(TraceIo, RoundTripPreservesEveryField)
{
    ScratchFile f("roundtrip");
    const auto recs = sampleRecords(23);
    wl::FileWorkload src("src", recs);
    ASSERT_TRUE(wl::writeTraceFile(f.str(), src, recs.size()));

    wl::FileWorkload loaded(f.str());
    ASSERT_EQ(loaded.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const wl::TraceRecord got = loaded.next();
        EXPECT_TRUE(sameRecord(got, recs[i])) << "record " << i;
    }
}

TEST(TraceIo, WriterLoopsTheSourceAtItsBoundary)
{
    ScratchFile f("loopwrite");
    const auto recs = sampleRecords(5);
    wl::FileWorkload src("src", recs);
    // Ask for more records than the source holds: next() wraps, so the
    // file carries two full laps plus two records.
    ASSERT_TRUE(wl::writeTraceFile(f.str(), src, 12));

    wl::FileWorkload loaded(f.str());
    ASSERT_EQ(loaded.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
        const wl::TraceRecord got = loaded.next();
        EXPECT_TRUE(sameRecord(got, recs[i % recs.size()]))
            << "record " << i;
    }
}

TEST(TraceIo, ReplayWrapsAndResetsAtTheLoopBoundary)
{
    const auto recs = sampleRecords(3);
    wl::FileWorkload w("loop", recs);

    // Two full laps: position wraps exactly at size().
    for (std::size_t i = 0; i < 2 * recs.size(); ++i) {
        EXPECT_TRUE(sameRecord(w.next(), recs[i % recs.size()]))
            << "step " << i;
    }
    // Mid-stream reset rewinds to record 0.
    (void)w.next();
    w.reset();
    EXPECT_TRUE(sameRecord(w.next(), recs[0]));

    // A clone starts from the beginning and replays identically.
    auto c = w.clone(0);
    c->reset();
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_TRUE(sameRecord(c->next(), recs[i % recs.size()]));
}

} // namespace
