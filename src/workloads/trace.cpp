#include "workloads/trace.hpp"

#include <fstream>
#include <stdexcept>

#include "snapshot/codec.hpp"
#include "workloads/registry.hpp"

namespace pythia::wl {

namespace {

/// Magic bytes identifying our binary trace format, version 3.
constexpr std::uint32_t kTraceMagic = 0x50595433; // "PYT3"

// "trace:file=<path>" replays a captured binary trace through the same
// Workload interface as the live generators — the ChampSim-style
// trace-driven path. Replay is deterministic, so the seed is unused and
// multi-core clones replay the identical stream.
/** The trace family's one key. */
struct TraceConfig
{
    std::string file;

    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("file", c.file);
    }
};

[[maybe_unused]] const WorkloadRegistrar trace_registrar{
    "trace", TraceConfig{},
    [](const TraceConfig& c, std::uint64_t /*seed*/,
       const std::string& name) -> std::unique_ptr<Workload> {
        if (c.file.empty())
            throw std::invalid_argument(
                "trace: parameter 'file' is required "
                "(trace:file=<path>)");
        return std::make_unique<FileWorkload>(c.file, name);
    }};

/// Encoded size of one record: pc, addr, gap, flags.
constexpr std::size_t kRecordBytes = 8 + 8 + 4 + 1;

constexpr std::uint8_t kFlagWrite = 1u << 0;
constexpr std::uint8_t kFlagDependsOnPrev = 1u << 1;

} // namespace

void
encodeRecords(snap::Writer& w, const TraceRecord* records, std::size_t n)
{
    w.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord& r = records[i];
        w.u64(r.pc);
        w.u64(r.addr);
        w.u32(r.gap);
        std::uint8_t flags = 0;
        if (r.is_write)
            flags |= kFlagWrite;
        if (r.depends_on_prev)
            flags |= kFlagDependsOnPrev;
        w.u8(flags);
    }
}

std::vector<TraceRecord>
decodeRecords(snap::Reader& r)
{
    std::vector<TraceRecord> records(r.count(kRecordBytes));
    for (TraceRecord& rec : records) {
        rec.pc = r.u64();
        rec.addr = r.u64();
        rec.gap = r.u32();
        const std::uint8_t flags = r.u8();
        // Unknown bits are rejected, not ignored: they are the format's
        // forward-compat escape hatch.
        if (flags & ~(kFlagWrite | kFlagDependsOnPrev))
            throw r.corrupt("record with unknown flags " +
                            std::to_string(flags));
        rec.is_write = (flags & kFlagWrite) != 0;
        rec.depends_on_prev = (flags & kFlagDependsOnPrev) != 0;
    }
    return records;
}

bool
writeTraceFile(const std::string& path,
               const std::vector<TraceRecord>& records)
{
    snap::Writer w;
    w.u32(kTraceMagic);
    encodeRecords(w, records.data(), records.size());
    w.u64(snap::fnv1a(w.buffer().data(), w.size()));
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(w.buffer().data()),
              static_cast<std::streamsize>(w.size()));
    return static_cast<bool>(out);
}

bool
writeTraceFile(const std::string& path, Workload& w, std::size_t n)
{
    std::vector<TraceRecord> records(n);
    for (TraceRecord& r : records)
        r = w.next();
    return writeTraceFile(path, records);
}

std::vector<TraceRecord>
readTraceFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
    if (size < 0)
        throw TraceFileError(path, "cannot open");
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!in)
        throw TraceFileError(path, "cannot read");
    try {
        snap::Reader r(bytes.data(), bytes.size(), "trace file");
        if (r.u32() != kTraceMagic)
            throw snap::CorruptError("not a PYT3 trace (bad magic)");
        std::vector<TraceRecord> records = decodeRecords(r);
        const std::size_t body = r.position();
        if (r.u64() != snap::fnv1a(bytes.data(), body))
            throw snap::CorruptError("checksum mismatch");
        if (!r.atEnd())
            throw snap::CorruptError(std::to_string(r.remaining()) +
                                     " trailing bytes");
        return records;
    } catch (const snap::SnapshotError& e) {
        throw TraceFileError(path, e.what());
    }
}

FileWorkload::FileWorkload(const std::string& path,
                           std::string display_name)
    : name_(display_name.empty() ? path : std::move(display_name)),
      records_(readTraceFile(path))
{
    if (records_.empty())
        throw TraceFileError(path, "holds no records");
}

FileWorkload::FileWorkload(std::string name, std::vector<TraceRecord> records)
    : name_(std::move(name)), records_(std::move(records))
{
    if (records_.empty())
        throw std::runtime_error("empty in-memory trace: " + name_);
}

TraceRecord
FileWorkload::next()
{
    const TraceRecord r = records_[pos_];
    pos_ = (pos_ + 1) % records_.size();
    return r;
}

void
FileWorkload::reset()
{
    pos_ = 0;
}

std::unique_ptr<Workload>
FileWorkload::clone(std::uint64_t /*reseed*/) const
{
    auto copy = std::make_unique<FileWorkload>(name_, records_);
    return copy;
}

} // namespace pythia::wl
