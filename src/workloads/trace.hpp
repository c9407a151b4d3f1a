/**
 * @file
 * Trace record definition, the Workload streaming interface and binary
 * trace file I/O.
 *
 * The paper evaluates on ChampSim instruction traces from SPEC / PARSEC /
 * Ligra / Cloudsuite. We reproduce that substrate with synthetic workload
 * generators (see generators.hpp) that all speak this same Workload
 * interface; a trace can also be serialized to disk and replayed through
 * FileWorkload, mirroring the trace-driven methodology of the paper.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pythia::snap {
class Reader;
class Writer;
} // namespace pythia::snap

namespace pythia::wl {

/**
 * One memory instruction of a workload trace.
 *
 * Non-memory instructions are run-length encoded in @ref gap: the number
 * of non-memory instructions the core executes before this memory access.
 * This keeps traces compact while preserving instruction counts (IPC is
 * computed over all instructions, as in ChampSim).
 */
struct TraceRecord
{
    Addr pc = 0;          ///< program counter of the memory instruction
    Addr addr = 0;        ///< byte address accessed
    std::uint32_t gap = 0;///< non-memory instructions preceding this access
    bool is_write = false;///< store (true) or load (false)
    /** True when this load's address depends on the previous load's data
     *  (pointer chase, loaded index). Dependent loads cannot issue before
     *  the previous load completes — the serialization that makes
     *  prefetching pay off in real programs. */
    bool depends_on_prev = false;

    /** Instructions this record retires: the gap plus the access. */
    std::uint64_t instrs() const { return std::uint64_t{gap} + 1; }
};

/**
 * An endless, replayable stream of trace records.
 *
 * Generators are deterministic functions of their seed; reset() rewinds to
 * the exact same stream, and clone(seed) produces an independent instance
 * (used to build multi-programmed mixes, §5.1 of the paper).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next record of the stream. */
    virtual TraceRecord next() = 0;

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;

    /** Stable human-readable name (used in tables). */
    virtual const std::string& name() const = 0;

    /** Independent copy, optionally re-seeded (0 keeps the seed). */
    virtual std::unique_ptr<Workload> clone(std::uint64_t reseed = 0)
        const = 0;
};

// ------------------------------------------------------ record codec

/**
 * The one record codec, shared by trace files and the serve wire's
 * kAccess payload (service/wire.hpp): a u64 count, then per record
 * (21 bytes) u64 pc, u64 addr, u32 gap and a u8 flag byte (bit 0
 * is_write, bit 1 depends_on_prev), little-endian.
 */
void encodeRecords(snap::Writer& w, const TraceRecord* records,
                   std::size_t n);

/** Read what encodeRecords wrote. The count is bounded by the bytes
 *  left (snap::Reader::count) before anything is allocated.
 *  @throws snap::CorruptError on a hostile count, truncation or
 *  unknown flag bits. */
std::vector<TraceRecord> decodeRecords(snap::Reader& r);

// --------------------------------------------------------- trace files

/**
 * A trace file that cannot be read, or whose bytes are not a whole
 * PYT3 trace (bad magic, hostile count, truncation, trailing bytes,
 * checksum mismatch). The message names the file.
 */
class TraceFileError : public std::runtime_error
{
  public:
    TraceFileError(const std::string& path, const std::string& why)
        : std::runtime_error("trace file '" + path + "': " + why)
    {
    }
};

/**
 * Write @p records to a binary trace file: u32 magic "PYT3", the
 * record codec above, then a u64 FNV-1a 64 of every preceding byte.
 * @return false on I/O failure.
 */
bool writeTraceFile(const std::string& path,
                    const std::vector<TraceRecord>& records);

/** Write the next @p n records of @p w (same format).
 *  @return false on I/O failure. */
bool writeTraceFile(const std::string& path, Workload& w, std::size_t n);

/**
 * Load a binary trace file as a record vector (an empty file — count
 * zero — is valid here, unlike FileWorkload which needs at least one
 * record to loop over). Allocation follows the file's size, never
 * the count its header announces.
 * @throws TraceFileError when unreadable or not a whole PYT3 trace.
 */
std::vector<TraceRecord> readTraceFile(const std::string& path);

/**
 * A Workload that replays a binary trace file from memory, looping when it
 * reaches the end (ChampSim replays a trace until the simulation budget is
 * exhausted, §5 of the paper).
 */
class FileWorkload : public Workload
{
  public:
    /** Load a trace file; throws TraceFileError when unreadable.
     *  @p display_name overrides name() (catalog aliases and registry
     *  specs pass theirs); empty keeps the path. */
    explicit FileWorkload(const std::string& path,
                          std::string display_name = "");

    /** Build from an in-memory record vector (test convenience). */
    FileWorkload(std::string name, std::vector<TraceRecord> records);

    TraceRecord next() override;
    void reset() override;
    const std::string& name() const override { return name_; }
    std::unique_ptr<Workload> clone(std::uint64_t reseed) const override;

    /** Number of records before the stream loops. */
    std::size_t size() const { return records_.size(); }

    /** The loaded records (service eviction persists these). */
    const std::vector<TraceRecord>& records() const { return records_; }

  private:
    std::string name_;
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

} // namespace pythia::wl
