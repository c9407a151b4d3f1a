/**
 * @file
 * Sharded sweep execution service: a coordinator that partitions a
 * Sweep's job grid across local worker *processes* (the `sweep_worker`
 * tool target), promoting harness::Sweep from the in-process thread
 * pool of harness::ParallelRunner to a crash-tolerant multi-process
 * fleet (ROADMAP item 3, DESIGN.md §11).
 *
 * Three layers, each versioned and testable on its own:
 *
 *  1. **Wire format** (`pythia-shard-v1`): frames of the shared
 *     transport (common/transport.hpp) over anonymous pipes, the same
 *     codec and payload cap as pythia-serve-v1. The coordinator
 *     watches every worker's pipe on the transport's EventLoop and
 *     sends a Hello (schema name + version + worker index) and then
 *     Job frames (job id + full ExperimentSpec); the worker answers
 *     each with a Result frame (job id + Runner::Outcome + wall
 *     seconds, or a typed error).
 *     All payloads ride the snap::Writer/Reader codec (specs and
 *     outcomes through their field lists, snap::save/load), so every
 *     value is fixed-width little-endian and floats travel as IEEE-754
 *     bit patterns — a Result deserializes bit-identically on the
 *     coordinator.
 *
 *  2. **Durable journal** (`pythia-journal-v1`): an append-only file of
 *     per-job result records, each framed by the transport header and
 *     FNV-1a-64 checksummed, under a header carrying a sweep
 *     fingerprint built from the same canonical spec fingerprints the
 *     snapshot subsystem uses. A coordinator killed mid-sweep resumes
 *     from its last *flushed* record: completed jobs replay from the
 *     journal bit-identically, only the missing ones re-execute. A
 *     truncated tail record (the crash landed mid-append) is discarded
 *     with a warning and its job re-runs; a corrupted checksum or a
 *     fingerprint mismatch fails loudly with a typed error naming the
 *     offending record (mirroring the snapshot subsystem's field-diff
 *     diagnostics).
 *
 *  3. **Scheduling**: workers pull. Each spawn takes the next pending
 *     job and each Result frees its worker for the next one, so fast
 *     workers naturally take more of the grid, and a job is in flight
 *     on at most one worker at a time. A Result must name the job its
 *     worker holds (anything else is a WireError). A worker that dies
 *     (SIGKILL, OOM, crash) is respawned and its job goes back to the
 *     front of the queue, up to a fixed per-job restart budget.
 *
 * The determinism rule stays absolute: `jobs=1` inline, `jobs=N`
 * threads and `workers=N` processes produce bit-identical
 * Runner::Outcomes, and the ordered callback replay (declaration
 * order, coordinator thread) makes every bench table/CSV byte-identical
 * whatever the topology. tests/test_shard_service.cpp proves the crash
 * behavior adversarially: SIGKILLed workers, a killed coordinator,
 * truncated/corrupted journals and injected stragglers must all
 * converge to the same bytes.
 *
 * Task jobs (Sweep::addTask) carry closures, which cannot cross a
 * process boundary: they execute in the coordinator process and are
 * never journaled (re-running them on resume re-applies their side
 * effects, which spec-job replay must not skip).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"

namespace pythia::harness {

// ------------------------------------------------------------- errors

/** Base class of every sharded-execution failure. */
class ShardError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Wire-protocol violation: bad frame, schema/version mismatch,
 *  malformed payload. */
class WireError : public ShardError
{
  public:
    using ShardError::ShardError;
};

/** Base class of journal failures. */
class JournalError : public ShardError
{
  public:
    using ShardError::ShardError;
};

/** Structurally invalid journal: bad magic, corrupted checksum or
 *  undecodable record. The message names the offending record. */
class JournalCorruptError : public JournalError
{
  public:
    using JournalError::JournalError;
};

/** Journal belongs to a different sweep: the header fingerprint does
 *  not match, and the message diffs the two field by field. */
class JournalFingerprintError : public JournalError
{
  public:
    using JournalError::JournalError;
};

// ----------------------------------------------------- wire constants

/** Wire-protocol schema name, exchanged in the Hello frames. */
inline constexpr const char* kWireSchemaName = "pythia-shard-v1";

/** Current wire-protocol version. */
inline constexpr std::uint32_t kWireVersion = 3;

// -------------------------------------------------- journal constants

/** Magic bytes opening every journal file. */
inline constexpr char kJournalMagic[8] = {'P', 'Y', 'T', 'H',
                                          'J', 'R', 'N', 'L'};

/** Current journal format version. */
inline constexpr std::uint32_t kJournalVersion = 1;

/** Human-readable journal schema name (docs, error messages). */
inline constexpr const char* kJournalSchemaName = "pythia-journal-v1";

/**
 * Fingerprint of a sweep's job grid, embedded in the journal header:
 * "format=pythia-journal-v1;jobs=<n>;job<i>=<fnv64 of the spec's
 * snapshot fingerprint>;..." — task jobs appear as "job<i>=task".
 * Reusing snap::fingerprintFor per job means a journal can only resume
 * the exact grid that wrote it; snap::diffFingerprints renders the
 * mismatch diagnostics.
 */
std::string sweepFingerprint(const Sweep& sweep);

// ------------------------------------------------------ journal scan

/** One result record recovered from a journal. */
struct JournalEntry
{
    std::size_t job = 0;      ///< Sweep::JobId
    Runner::Outcome outcome;  ///< bit-exact as journaled
    double seconds = 0.0;     ///< worker-measured evaluate() wall time

    /** The record payload after its kind byte. */
    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.job, self.outcome, self.seconds);
    }
};

/** Everything scanJournal() recovered from a journal file. */
struct JournalScan
{
    std::string fingerprint;  ///< header fingerprint (validated)
    std::vector<JournalEntry> entries;
    /** Bytes of a truncated tail record that were discarded (0 when the
     *  journal ended on a record boundary). The caller re-runs the
     *  affected job; appends must first truncate the file to
     *  valid_bytes. */
    std::size_t discarded_tail_bytes = 0;
    /** Prefix of the file that parsed cleanly (header + whole records). */
    std::size_t valid_bytes = 0;
};

/**
 * Scan @p path, validating header and every record.
 *
 * Failure taxonomy (each a distinct type, mirroring snapshot.hpp):
 *  - unreadable file                  — snap::IoError
 *  - bad magic / undecodable header or
 *    record / checksum mismatch       — JournalCorruptError (names the
 *                                       record index and byte offset)
 *  - unsupported version              — JournalError
 *  - fingerprint != expected          — JournalFingerprintError with a
 *                                       field-by-field diff
 *  - file ends mid-record             — NOT an error: the partial tail
 *                                       is reported via
 *                                       discarded_tail_bytes
 *
 * @p expected_fingerprint empty skips the fingerprint check (tools).
 * @p n_jobs bounds record job ids (records past it are corrupt);
 * pass SIZE_MAX to skip.
 */
JournalScan scanJournal(const std::string& path,
                        const std::string& expected_fingerprint,
                        std::size_t n_jobs = SIZE_MAX);

// -------------------------------------------------------- coordinator

/** Configuration of one sharded run. */
struct ShardOptions
{
    /** Worker subprocesses to spawn (clamped to the spec-job count). */
    unsigned workers = 2;

    /**
     * Path of the worker binary. Empty resolves, in order: the
     * PYTHIA_SWEEP_WORKER environment variable, then a `sweep_worker`
     * sibling of the running executable — which is where the build
     * tree puts it for every bench and test binary.
     */
    std::string worker_path;

    /**
     * Durable journal path; empty disables journaling. When the file
     * already exists its fingerprint must match the sweep
     * (JournalFingerprintError otherwise) and every recovered record
     * is trusted as that job's result — resume-to-bit-identical is
     * proven by tests/test_shard_service.cpp.
     */
    std::string journal_path;

    /** Destination of the per-sweep summary line (nullptr = silent). */
    std::ostream* report_os = nullptr;
};

/** Accounting of one sharded run, superset of SweepReport. */
struct ShardReport
{
    SweepReport sweep;            ///< feeds PerfReport like a pool run
    std::size_t resumed_jobs = 0; ///< satisfied from the journal
    /** Always 0: scheduling is pull-only, with no duplicate dispatch.
     *  Kept because perfbench publishes it. */
    std::size_t stolen_jobs = 0;
    std::size_t worker_restarts = 0; ///< workers respawned after death
    std::size_t discarded_tail_bytes = 0; ///< journal tail dropped
};

/**
 * Multi-process executor for Sweeps; drop-in for ParallelRunner::run
 * (same outcome vector, same ordered callback replay, same first-error
 * semantics by job index).
 *
 * @p runner is used for task jobs (executed in-coordinator) only; spec
 * jobs evaluate in worker processes, each with its own Runner whose
 * baseline cache is per-process (bit-identical, merely recomputed).
 *
 * Test hooks (used by tests/test_shard_service.cpp and the CI
 * crash-resume job; ignored otherwise):
 *  - PYTHIA_SHARD_TEST_CRASH=<pre_flush|post_flush>:<k> makes the
 *    coordinator _exit(137) when the k-th worker result arrives,
 *    before/after the journal append — simulating SIGKILL at the
 *    worst instants of the durability window.
 *  - sweep_worker honors PYTHIA_SHARD_KILL_WORKER / _KILL_POINT and
 *    PYTHIA_SHARD_SLOW_WORKER / _SLOW_MS (see tools/sweep_worker.cpp);
 *    kill hooks apply only to generation-0 spawns so a respawned
 *    worker makes progress, and the job-time points fire on the
 *    worker's first job.
 */
class ShardCoordinator
{
  public:
    explicit ShardCoordinator(ShardOptions opt = {});

    /** Execute @p sweep; see class comment. @throws ShardError /
     *  JournalError family, or the first job error by job index. */
    std::vector<Runner::Outcome> run(Runner& runner, const Sweep& sweep);

    const ShardReport& lastReport() const { return report_; }

    const ShardOptions& options() const { return opt_; }

  private:
    ShardOptions opt_;
    ShardReport report_;
};

/**
 * Worker-process entry point (the whole of tools/sweep_worker.cpp):
 * argv = {in_fd, out_fd, worker_index, generation}. Reads Job frames
 * from in_fd until EOF, evaluates each through a process-local Runner,
 * writes Result frames to out_fd. Returns the process exit code.
 */
int shardWorkerMain(int argc, char** argv);

} // namespace pythia::harness
