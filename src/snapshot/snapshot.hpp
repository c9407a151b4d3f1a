/**
 * @file
 * pythia-snap-v1 snapshot file container.
 *
 * File layout (all integers little-endian; see DESIGN.md §9):
 *
 *     8 bytes  magic "PYTHSNAP"
 *     u32      format version (currently 1)
 *     str      config fingerprint (u64 length + bytes)
 *     ...      body: named sections (str name + u64 length + payload)
 *     u64      FNV-1a 64 checksum of every preceding byte
 *
 * The fingerprint is a canonical "key=value;" rendering of every
 * ExperimentSpec field that can change simulated state. Loading a
 * snapshot under a different configuration throws FingerprintError
 * whose message diffs the two fingerprints field by field — the
 * did-you-mean diagnostic that makes a stale snapshot obvious instead of
 * silently mis-restoring.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "snapshot/codec.hpp"

namespace pythia::snap {

/** Magic bytes opening every snapshot file. */
inline constexpr char kMagic[8] = {'P', 'Y', 'T', 'H',
                                   'S', 'N', 'A', 'P'};

/** Current format version. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** Human-readable schema name (tools, docs, BENCH artifacts). */
inline constexpr const char* kSchemaName = "pythia-snap-v1";

/**
 * Serialize a snapshot: header + fingerprint, then whatever sections
 * @p body writes, then the trailing checksum. The file is written
 * atomically (temp file + rename) so a crash mid-write — e.g. while
 * the daemon evicts a tenant to its state_dir — never leaves a partial
 * .snap behind. @throws IoError on any filesystem failure.
 */
void writeSnapshotFile(const std::string& path,
                       const std::string& fingerprint,
                       const std::function<void(Writer&)>& body);

/**
 * Serialize a snapshot into memory: the exact byte sequence
 * writeSnapshotFile() would put on disk (header + fingerprint + body
 * sections + trailing checksum), returned instead of written.
 */
std::vector<std::uint8_t>
writeSnapshotBytes(const std::string& fingerprint,
                   const std::function<void(Writer&)>& body);

/** A loaded, validated snapshot file. */
struct SnapshotFile
{
    std::vector<std::uint8_t> bytes; ///< whole file, kept for Reader
    std::uint32_t version = 0;
    std::string fingerprint;
    std::size_t body_offset = 0;     ///< first section byte
    std::size_t body_size = 0;       ///< bytes before the checksum

    /** Reader over the section body. */
    Reader body() const
    {
        return Reader(bytes.data() + body_offset, body_size);
    }
};

/**
 * Read and validate a snapshot file. Validation order (each failure
 * is a distinct typed error so callers can react precisely):
 *  1. readable file                 — IoError
 *  2. minimum size + magic bytes    — CorruptError
 *  3. format version               — VersionError
 *  4. trailing checksum            — CorruptError (truncation/bitrot)
 *  5. fingerprint (when @p expected_fingerprint is non-empty)
 *                                   — FingerprintError with field diff
 */
SnapshotFile readSnapshotFile(const std::string& path,
                              const std::string& expected_fingerprint);

/** Validate an in-memory snapshot image (same checks and typed errors
 *  as readSnapshotFile, diagnostics labelled @p label instead of a
 *  path). Takes ownership of @p bytes — SnapshotFile keeps them alive
 *  for its body() Reader. */
SnapshotFile readSnapshotBytes(std::vector<std::uint8_t> bytes,
                               const std::string& expected_fingerprint,
                               const std::string& label = "<memory>");

/**
 * Field-wise diff of two "key=value;" fingerprints, e.g.
 * "cores: snapshot '4' vs expected '1'". Empty when identical.
 */
std::string diffFingerprints(const std::string& got,
                             const std::string& expected);

/** Section metadata surfaced by inspectSnapshotFile(). */
struct SectionInfo
{
    std::string name;
    std::uint64_t offset = 0; ///< payload offset within the file
    std::uint64_t length = 0; ///< payload length in bytes
    std::uint64_t digest = 0; ///< FNV-1a 64 of the payload
};

/** Header + section layout of a snapshot file (tools/snapshot_inspect).
 *  Unlike readSnapshotFile this reports a bad checksum instead of
 *  throwing, so a corrupt file can still be dumped and diagnosed. */
struct SnapshotInfo
{
    std::uint32_t version = 0;
    std::string fingerprint;
    std::uint64_t file_bytes = 0;
    bool checksum_ok = false;
    std::uint64_t checksum_stored = 0;
    std::uint64_t checksum_computed = 0;
    std::vector<SectionInfo> sections;
};

/** Inspect @p path. @throws IoError / CorruptError / VersionError on
 *  files too malformed to walk (checksum mismatches do not throw). */
SnapshotInfo inspectSnapshotFile(const std::string& path);

} // namespace pythia::snap
