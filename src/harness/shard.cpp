#include "harness/shard.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/transport.hpp"
#include "harness/session.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/snapshot.hpp"

namespace pythia::harness {

namespace {

using transport::FrameError;
using transport::Payload;

// ------------------------------------------------------- frame types

enum : std::uint8_t
{
    kFrameHello = 1,    ///< coordinator -> worker, once per spawn
    kFrameHelloAck = 2, ///< worker -> coordinator
    kFrameJob = 3,      ///< coordinator -> worker
    kFrameResult = 4,   ///< worker -> coordinator
};

enum : std::uint8_t
{
    kErrInvalidArgument = 1,
    kErrRuntime = 2,
    kErrOther = 3,
};

/** Times one job may see its worker die before the sweep fails. */
constexpr unsigned kMaxJobRestarts = 3;

// -------------------------------------------------- journal encoding

/** Serialized journal header: magic + version + fingerprint + FNV of
 *  the preceding bytes, written in one write() so a crash leaves
 *  either nothing or a truncated (recoverable) prefix. */
std::vector<std::uint8_t>
encodeJournalHeader(const std::string& fingerprint)
{
    snap::Writer w;
    w.bytes(kJournalMagic, sizeof kJournalMagic);
    w.u32(kJournalVersion);
    w.str(fingerprint);
    const std::uint64_t sum = snap::fnv1a(w.buffer().data(), w.size());
    w.u64(sum);
    return w.buffer();
}

/** One journal record: frame header + payload + u64 FNV-1a of the
 *  payload. Payload = kind(u8=1) + the entry's fields. */
std::vector<std::uint8_t>
encodeJournalRecord(const JournalEntry& e)
{
    snap::Writer p;
    p.u8(1);
    snap::save(e, p);

    snap::Writer rec;
    const transport::FrameHeader h = transport::encodeFrameHeader(p.size());
    rec.bytes(h.data(), h.size());
    rec.bytes(p.buffer().data(), p.size());
    rec.u64(snap::fnv1a(p.buffer().data(), p.size()));
    return rec.buffer();
}

// ------------------------------------------------------- test hooks

/** Coordinator crash hook (tests/CI): PYTHIA_SHARD_TEST_CRASH=
 *  <pre_flush|post_flush>:<k> — _exit(137) when the k-th worker
 *  result arrives, before/after the journal append+flush. */
struct CrashHook
{
    bool pre_flush = false;
    bool post_flush = false;
    std::size_t at_result = 0; ///< 1-based arrival count; 0 = disabled

    static CrashHook fromEnv()
    {
        CrashHook h;
        const char* v = std::getenv("PYTHIA_SHARD_TEST_CRASH");
        if (!v || !*v)
            return h;
        const std::string s = v;
        const auto colon = s.find(':');
        const std::string point = s.substr(0, colon);
        if (point == "pre_flush")
            h.pre_flush = true;
        else if (point == "post_flush")
            h.post_flush = true;
        else
            throw ShardError("PYTHIA_SHARD_TEST_CRASH: unknown point '" +
                             point + "' (want pre_flush|post_flush)");
        h.at_result = colon == std::string::npos
                          ? 1
                          : static_cast<std::size_t>(
                                std::stoull(s.substr(colon + 1)));
        return h;
    }
};

/** Restore the previous SIGPIPE disposition on scope exit: a worker
 *  dying mid-dispatch must surface as EPIPE, not kill the
 *  coordinator. */
class ScopedSigpipeIgnore
{
  public:
    ScopedSigpipeIgnore() { prev_ = ::signal(SIGPIPE, SIG_IGN); }
    ~ScopedSigpipeIgnore() { ::signal(SIGPIPE, prev_); }

  private:
    using Handler = void (*)(int);
    Handler prev_;
};

} // namespace

// -------------------------------------------------------- fingerprint

std::string
sweepFingerprint(const Sweep& sweep)
{
    std::ostringstream fp;
    fp << "format=" << kJournalSchemaName << ';' << "jobs="
       << sweep.size() << ';';
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        fp << "job" << i << '=';
        if (sweep.isTask(i)) {
            fp << "task";
        } else {
            std::ostringstream hex;
            hex << std::hex
                << snap::fnv1a(fingerprintFor(sweep.spec(i)));
            fp << hex.str();
        }
        fp << ';';
    }
    return fp.str();
}

// ------------------------------------------------------ journal scan

JournalScan
scanJournal(const std::string& path,
            const std::string& expected_fingerprint, std::size_t n_jobs)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw snap::IoError("cannot read journal: " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    f.close();

    JournalScan scan;

    // Header. A file shorter than a complete header is a crash during
    // the very first write: the whole file is a discardable tail.
    const auto truncated_header = [&]() -> JournalScan {
        scan.discarded_tail_bytes = bytes.size();
        scan.valid_bytes = 0;
        return scan;
    };
    if (bytes.size() < sizeof kJournalMagic) {
        if (std::memcmp(bytes.data(), kJournalMagic, bytes.size()) == 0)
            return truncated_header();
        throw JournalCorruptError("journal corrupt: " + path +
                                  " is not a " + kJournalSchemaName +
                                  " file (bad magic)");
    }
    if (std::memcmp(bytes.data(), kJournalMagic,
                    sizeof kJournalMagic) != 0)
        throw JournalCorruptError("journal corrupt: " + path +
                                  " is not a " + kJournalSchemaName +
                                  " file (bad magic)");

    std::size_t header_end = 0;
    try {
        snap::Reader r(bytes.data(), bytes.size(), "journal header");
        r.skip(sizeof kJournalMagic);
        const std::uint32_t version = r.u32();
        if (version != kJournalVersion)
            throw JournalError(
                "journal version " + std::to_string(version) +
                " unsupported (this build reads version " +
                std::to_string(kJournalVersion) + ")");
        scan.fingerprint = r.str();
        const std::size_t sum_at = r.position();
        const std::uint64_t stored = r.u64();
        const std::uint64_t computed = snap::fnv1a(bytes.data(), sum_at);
        if (stored != computed)
            throw JournalCorruptError(
                "journal corrupt: header checksum mismatch in " + path);
        header_end = r.position();
    } catch (const snap::CorruptError&) {
        // The header itself ends mid-field: crash during the first
        // write. Recoverable, like any truncated tail.
        return truncated_header();
    }

    if (!expected_fingerprint.empty() &&
        scan.fingerprint != expected_fingerprint) {
        throw JournalFingerprintError(
            "journal fingerprint mismatch (journal written by a "
            "different sweep?) — " +
            snap::diffFingerprints(scan.fingerprint,
                                   expected_fingerprint));
    }

    // Records.
    std::size_t p = header_end;
    scan.valid_bytes = p;
    std::size_t index = 0;
    while (p < bytes.size()) {
        const std::size_t rem = bytes.size() - p;
        if (rem < transport::kFrameHeaderBytes) {
            scan.discarded_tail_bytes = rem;
            break;
        }
        std::uint32_t len = 0;
        try {
            len = transport::decodeFrameHeader(bytes.data() + p);
        } catch (const FrameError& e) {
            throw JournalCorruptError(
                "journal corrupt: record " + std::to_string(index) +
                " at byte offset " + std::to_string(p) + ": " + e.what());
        }
        const std::size_t record_bytes =
            transport::kFrameHeaderBytes + len + 8;
        if (rem < record_bytes) {
            // Crash mid-append: the tail record never completed.
            scan.discarded_tail_bytes = rem;
            break;
        }
        const std::uint8_t* payload =
            bytes.data() + p + transport::kFrameHeaderBytes;
        const std::uint64_t stored = snap::Reader(payload + len, 8).u64();
        const std::uint64_t computed = snap::fnv1a(payload, len);
        if (stored != computed)
            throw JournalCorruptError(
                "journal corrupt: record " + std::to_string(index) +
                " at byte offset " + std::to_string(p) +
                ": checksum mismatch (stored " + std::to_string(stored) +
                ", computed " + std::to_string(computed) + ")");
        try {
            snap::Reader r(payload, len, "journal record");
            const std::uint8_t kind = r.u8();
            if (kind != 1)
                throw JournalCorruptError(
                    "journal corrupt: record " + std::to_string(index) +
                    ": unknown kind " + std::to_string(kind));
            JournalEntry e;
            snap::load(e, r);
            if (e.job >= n_jobs)
                throw JournalCorruptError(
                    "journal corrupt: record " + std::to_string(index) +
                    ": job id " + std::to_string(e.job) +
                    " out of range (sweep has " + std::to_string(n_jobs) +
                    " jobs)");
            if (!r.atEnd())
                throw JournalCorruptError(
                    "journal corrupt: record " + std::to_string(index) +
                    ": " + std::to_string(r.remaining()) +
                    " trailing bytes");
            scan.entries.push_back(std::move(e));
        } catch (const snap::CorruptError& e) {
            throw JournalCorruptError(
                "journal corrupt: record " + std::to_string(index) +
                ": " + e.what());
        }
        p += record_bytes;
        scan.valid_bytes = p;
        ++index;
    }
    return scan;
}

// ------------------------------------------------------- worker main

int
shardWorkerMain(int argc, char** argv)
{
    if (argc != 5) {
        std::fprintf(stderr,
                     "usage: sweep_worker <in_fd> <out_fd> <index> "
                     "<generation>\n"
                     "Shard worker of the %s protocol; spawned by "
                     "harness::ShardCoordinator, not run by hand.\n",
                     kWireSchemaName);
        return 2;
    }
    const int in_fd = std::atoi(argv[1]);
    const int out_fd = std::atoi(argv[2]);
    const unsigned index = static_cast<unsigned>(std::atoi(argv[3]));
    const unsigned generation =
        static_cast<unsigned>(std::atoi(argv[4]));
    ::signal(SIGPIPE, SIG_IGN);

    // Fault-injection hooks (tests + CI). Kill hooks apply only to the
    // first spawn (generation 0) so the respawned worker makes
    // progress; the slow hook applies to every generation. The
    // job-time kill points fire on the first job, which every worker
    // is handed at spawn, so they are reachable whatever the timing.
    const char* kw = std::getenv("PYTHIA_SHARD_KILL_WORKER");
    const bool kill_me = kw && generation == 0 &&
                         static_cast<unsigned>(std::atoi(kw)) == index;
    const char* kp = std::getenv("PYTHIA_SHARD_KILL_POINT");
    const std::string kill_point = kp ? kp : "recv";
    const char* sw = std::getenv("PYTHIA_SHARD_SLOW_WORKER");
    const bool slow_me =
        sw && static_cast<unsigned>(std::atoi(sw)) == index;
    const char* sm = std::getenv("PYTHIA_SHARD_SLOW_MS");
    const int slow_ms = sm ? std::atoi(sm) : 200;

    if (kill_me && kill_point == "start")
        ::raise(SIGKILL);

    try {
        // Handshake.
        const std::optional<Payload> hello = transport::readFrame(in_fd);
        if (!hello)
            return 1;
        snap::Reader r(hello->data(), hello->size(), "shard hello frame");
        if (r.u8() != kFrameHello)
            throw WireError("worker: first frame is not Hello");
        const std::string schema = r.str();
        const std::uint32_t version = r.u32();
        if (schema != kWireSchemaName || version != kWireVersion)
            throw WireError("worker: wire schema mismatch (got " +
                            schema + " v" + std::to_string(version) +
                            ", want " + kWireSchemaName + " v" +
                            std::to_string(kWireVersion) + ")");
        (void)r.u32(); // worker index, informational (argv is binding)
        if (!r.atEnd())
            throw WireError("worker: " + std::to_string(r.remaining()) +
                            " trailing byte(s) after the Hello fields");

        snap::Writer ack;
        ack.u8(kFrameHelloAck);
        ack.str(kWireSchemaName);
        ack.u32(kWireVersion);
        transport::writeFrame(out_fd, ack.buffer());

        Runner runner;

        // Until the coordinator closes the pipe: clean shutdown.
        while (const auto frame = transport::readFrame(in_fd)) {
            snap::Reader rd(frame->data(), frame->size(), "shard job frame");
            if (rd.u8() != kFrameJob)
                throw WireError("worker: expected a Job frame");
            const std::uint64_t job = rd.u64();
            ExperimentSpec spec;
            snap::load(spec, rd);

            if (kill_me && kill_point == "recv")
                ::raise(SIGKILL);
            if (slow_me)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(slow_ms));

            snap::Writer w;
            w.u8(kFrameResult);
            w.u64(job);
            try {
                const auto t0 = std::chrono::steady_clock::now();
                const Runner::Outcome outcome = runner.evaluate(spec);
                const double seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                w.u8(1);
                snap::save(outcome, w);
                w.f64(seconds);
            } catch (const std::invalid_argument& e) {
                w.u8(0);
                w.u8(kErrInvalidArgument);
                w.str(e.what());
            } catch (const std::runtime_error& e) {
                w.u8(0);
                w.u8(kErrRuntime);
                w.str(e.what());
            } catch (const std::exception& e) {
                w.u8(0);
                w.u8(kErrOther);
                w.str(e.what());
            }
            if (kill_me && kill_point == "pre_send")
                ::raise(SIGKILL);
            transport::writeFrame(out_fd, w.buffer());
        }
        return 0;
    } catch (const std::system_error&) {
        return 1; // pipe I/O failed: the coordinator is gone
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[sweep_worker %u] %s\n", index, e.what());
        return 1;
    }
}

// ------------------------------------------------------- coordinator

namespace {

/** Resolve the worker binary: explicit option, then the
 *  PYTHIA_SWEEP_WORKER env var, then a sweep_worker sibling of the
 *  running executable (the build-tree layout). */
std::string
resolveWorkerPath(const std::string& explicit_path)
{
    if (!explicit_path.empty())
        return explicit_path;
    if (const char* env = std::getenv("PYTHIA_SWEEP_WORKER");
        env && *env)
        return env;
    std::error_code ec;
    const auto self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec)
        return (self.parent_path() / "sweep_worker").string();
    return "sweep_worker";
}

/** One worker subprocess and its coordinator-side state. */
struct WorkerSlot
{
    unsigned index = 0;
    unsigned generation = 0;
    pid_t pid = -1;
    int to_fd = -1;   ///< coordinator writes Job frames here
    int from_fd = -1; ///< coordinator reads Result frames here
    bool alive = false;
    bool acked = false;
    std::optional<std::size_t> job; ///< currently dispatched job
    transport::FrameReader reader; ///< Result frames from from_fd
};

/** Mutable run state shared by the coordinator loop helpers. */
struct RunState
{
    std::size_t n = 0;
    std::vector<Runner::Outcome> results;
    std::vector<char> have;
    std::vector<double> job_seconds;
    std::deque<std::size_t> pending; ///< spec jobs awaiting dispatch
    std::vector<unsigned> restarts;  ///< worker deaths charged per job
    /** First error per job: wire kind + what (workers) or the live
     *  exception (in-coordinator task jobs). */
    struct JobError
    {
        std::uint8_t kind = 0;
        std::string what;
        std::exception_ptr eptr;
    };
    std::map<std::size_t, JobError> errors;
    std::size_t spec_total = 0;
    std::size_t spec_done = 0;
    std::size_t arrivals = 0; ///< results received over the wire
};

[[noreturn]] void
rethrowJobError(const RunState::JobError& e)
{
    if (e.eptr)
        std::rethrow_exception(e.eptr);
    switch (e.kind) {
    case kErrInvalidArgument:
        throw std::invalid_argument(e.what);
    default:
        throw std::runtime_error(e.what);
    }
}

} // namespace

ShardCoordinator::ShardCoordinator(ShardOptions opt)
    : opt_(std::move(opt))
{
    if (opt_.workers == 0)
        opt_.workers = 1;
}

std::vector<Runner::Outcome>
ShardCoordinator::run(Runner& runner, const Sweep& sweep)
{
    report_ = ShardReport{};
    RunState st;
    st.n = sweep.size();
    st.results.resize(st.n);
    st.have.assign(st.n, 0);
    st.job_seconds.assign(st.n, 0.0);
    st.restarts.assign(st.n, 0);
    if (st.n == 0)
        return {};

    const CrashHook crash = CrashHook::fromEnv();
    const std::string fingerprint = sweepFingerprint(sweep);

    // ---- journal pre-scan: recover completed jobs, drop a torn tail.
    int journal_fd = -1;
    bool need_header = false;
    if (!opt_.journal_path.empty()) {
        std::error_code ec;
        const bool exists =
            std::filesystem::exists(opt_.journal_path, ec) && !ec &&
            std::filesystem::file_size(opt_.journal_path, ec) > 0 && !ec;
        need_header = true;
        if (exists) {
            const JournalScan scan =
                scanJournal(opt_.journal_path, fingerprint, st.n);
            for (const auto& e : scan.entries) {
                if (e.job < st.n && !st.have[e.job] &&
                    !sweep.tasks_[e.job]) {
                    st.results[e.job] = e.outcome;
                    st.job_seconds[e.job] = e.seconds;
                    st.have[e.job] = 1;
                    ++report_.resumed_jobs;
                }
            }
            if (scan.discarded_tail_bytes > 0) {
                std::cerr << "[shard] journal " << opt_.journal_path
                          << ": discarding " << scan.discarded_tail_bytes
                          << " trailing bytes (truncated record from an "
                             "interrupted append); its job will re-run\n";
                report_.discarded_tail_bytes = scan.discarded_tail_bytes;
                std::filesystem::resize_file(opt_.journal_path,
                                             scan.valid_bytes, ec);
                if (ec)
                    throw snap::IoError("cannot truncate journal " +
                                        opt_.journal_path + ": " +
                                        ec.message());
            }
            need_header = scan.valid_bytes == 0;
        }
        journal_fd = ::open(opt_.journal_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (journal_fd < 0)
            throw snap::IoError("cannot open journal " +
                                opt_.journal_path + ": " +
                                std::strerror(errno));
    }
    // Close the journal fd on every exit path.
    struct FdCloser
    {
        int fd;
        ~FdCloser()
        {
            if (fd >= 0)
                ::close(fd);
        }
    } journal_closer{journal_fd};
    // One write() sequence then fdatasync: a crash leaves either
    // nothing or a truncated (recoverable) tail.
    const auto journalWrite = [&](const std::vector<std::uint8_t>& b) {
        try {
            transport::writeAll(journal_fd, b.data(), b.size());
        } catch (const std::system_error& e) {
            throw snap::IoError("cannot write journal " +
                                opt_.journal_path + ": " + e.what());
        }
        ::fdatasync(journal_fd);
    };
    if (need_header)
        journalWrite(encodeJournalHeader(fingerprint));

    // ---- classify jobs.
    for (std::size_t i = 0; i < st.n; ++i) {
        if (sweep.tasks_[i])
            continue; // task jobs run in-coordinator below
        ++st.spec_total;
        if (st.have[i])
            ++st.spec_done;
        else
            st.pending.push_back(i);
    }

    const auto t0 = std::chrono::steady_clock::now();
    ScopedSigpipeIgnore sigpipe_guard;

    // ---- workers.
    const std::string worker_path = resolveWorkerPath(opt_.worker_path);
    std::vector<WorkerSlot> workers;
    transport::EventLoop loop; // every live worker's from_fd
    std::size_t total_spawns = 0;
    const std::size_t spawn_cap =
        static_cast<std::size_t>(opt_.workers) *
            (kMaxJobRestarts + 2) +
        8;

    // Blocking write down a worker's pipe; false when it is gone.
    const auto sendFrame = [](WorkerSlot& wk, const transport::Payload& p) {
        try {
            transport::writeFrame(wk.to_fd, p);
            return true;
        } catch (const std::system_error&) {
            return false;
        }
    };

    // Pull: an idle worker takes the next pending job, if any.
    const auto dispatch = [&](WorkerSlot& wk) {
        if (st.pending.empty())
            return;
        const std::size_t job = st.pending.front();
        snap::Writer w;
        w.u8(kFrameJob);
        w.u64(job);
        snap::save(sweep.specs_[job], w);
        if (!sendFrame(wk, w.buffer()))
            return; // died between loop rounds; its EOF respawns it
        st.pending.pop_front();
        wk.job = job;
    };

    const auto spawn = [&](WorkerSlot& wk) {
        if (++total_spawns > spawn_cap)
            throw ShardError(
                "shard: worker respawn cap exceeded (" +
                std::to_string(total_spawns - 1) +
                " spawns) — workers are dying faster than jobs finish");
        int to_pipe[2], from_pipe[2];
        if (::pipe2(to_pipe, O_CLOEXEC) != 0 ||
            ::pipe2(from_pipe, O_CLOEXEC) != 0)
            throw ShardError(std::string("shard: pipe2 failed: ") +
                             std::strerror(errno));
        // argv strings must be ready before fork(): only
        // async-signal-safe calls are allowed in the child.
        const std::string a_in = std::to_string(to_pipe[0]);
        const std::string a_out = std::to_string(from_pipe[1]);
        const std::string a_idx = std::to_string(wk.index);
        const std::string a_gen = std::to_string(wk.generation);
        const pid_t pid = ::fork();
        if (pid < 0)
            throw ShardError(std::string("shard: fork failed: ") +
                             std::strerror(errno));
        if (pid == 0) {
            // Child: keep only this worker's two pipe ends across
            // exec (everything else is O_CLOEXEC, so a sibling's
            // death is observable as EOF).
            ::fcntl(to_pipe[0], F_SETFD, 0);
            ::fcntl(from_pipe[1], F_SETFD, 0);
            char* cargv[] = {const_cast<char*>(worker_path.c_str()),
                             const_cast<char*>(a_in.c_str()),
                             const_cast<char*>(a_out.c_str()),
                             const_cast<char*>(a_idx.c_str()),
                             const_cast<char*>(a_gen.c_str()), nullptr};
            ::execv(worker_path.c_str(), cargv);
            ::_exit(127);
        }
        ::close(to_pipe[0]);
        ::close(from_pipe[1]);
        // Non-blocking reads: the loop drains whatever is buffered and
        // must not hang when a read() lands between two frames.
        transport::setNonBlocking(from_pipe[0]);
        wk.pid = pid;
        wk.to_fd = to_pipe[1];
        wk.from_fd = from_pipe[0];
        wk.alive = true;
        wk.acked = false;
        wk.job.reset();
        wk.reader.clear();
        loop.add(wk.from_fd, &wk, true, false);

        snap::Writer hello;
        hello.u8(kFrameHello);
        hello.str(kWireSchemaName);
        hello.u32(kWireVersion);
        hello.u32(wk.index);
        // A worker dead on arrival shows up as EOF in the loop. Its
        // first job queues behind the Hello, ahead of the HelloAck.
        if (sendFrame(wk, hello.buffer()))
            dispatch(wk);
    };

    const auto closeWorker = [&](WorkerSlot& wk) {
        loop.del(wk.from_fd);
        ::close(wk.to_fd);
        ::close(wk.from_fd);
        wk.alive = false;
    };

    // Kill every live worker before reaping any, so their exits overlap.
    const auto teardown = [&] {
        std::vector<pid_t> killed;
        for (auto& wk : workers) {
            if (!wk.alive)
                continue;
            closeWorker(wk);
            ::kill(wk.pid, SIGKILL);
            killed.push_back(wk.pid);
        }
        for (const pid_t pid : killed) {
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    };

    const auto appendJournal = [&](std::size_t job) {
        ++st.arrivals;
        if (crash.at_result && crash.pre_flush &&
            st.arrivals == crash.at_result)
            ::_exit(137); // simulated SIGKILL before the flush
        if (journal_fd >= 0)
            journalWrite(encodeJournalRecord(
                {job, st.results[job], st.job_seconds[job]}));
        if (crash.at_result && crash.post_flush &&
            st.arrivals == crash.at_result)
            ::_exit(137); // simulated SIGKILL after the flush
    };

    // One frame from a worker: a HelloAck or the Result for its job.
    const auto handleFrame = [&](WorkerSlot& wk, const Payload& frame) {
        snap::Reader r(frame.data(), frame.size(), "shard worker frame");
        const std::uint8_t type = r.u8();
        if (type == kFrameHelloAck) {
            const std::string schema = r.str();
            const std::uint32_t version = r.u32();
            if (schema != kWireSchemaName || version != kWireVersion)
                throw WireError(
                    "shard: wire schema mismatch from worker (got " +
                    schema + " v" + std::to_string(version) + ")");
            wk.acked = true;
        } else if (type == kFrameResult) {
            const auto job = static_cast<std::size_t>(r.u64());
            if (!wk.job || *wk.job != job)
                throw WireError("shard: worker " +
                                std::to_string(wk.index) +
                                " sent a result for job " +
                                std::to_string(job) +
                                ", which it does not hold");
            wk.job.reset();
            if (r.u8() != 0) {
                snap::load(st.results[job], r);
                st.job_seconds[job] = r.f64();
                st.have[job] = 1;
                appendJournal(job);
            } else {
                const std::uint8_t kind = r.u8();
                // Errors are deliberately not journaled: a resumed
                // sweep re-runs the job and reproduces the same
                // (deterministic) failure.
                st.errors[job] = {kind, r.str(), nullptr};
            }
            ++st.spec_done;
            dispatch(wk);
        } else {
            throw WireError("shard: unexpected frame type " +
                            std::to_string(type) + " from worker " +
                            std::to_string(wk.index));
        }
    };

    // Handle every complete frame in a worker's reader.
    const auto drainFrames = [&](WorkerSlot& wk) {
        for (;;) {
            std::optional<transport::Payload> frame;
            try {
                frame = wk.reader.next();
            } catch (const FrameError& e) {
                throw WireError("shard: worker " +
                                std::to_string(wk.index) + ": " +
                                e.what());
            }
            if (!frame)
                return;
            // A frame that ends mid-field is a protocol violation too.
            try {
                handleFrame(wk, *frame);
            } catch (const snap::CorruptError& e) {
                throw WireError("shard: worker " +
                                std::to_string(wk.index) + ": " +
                                e.what());
            }
        }
    };

    const auto onWorkerDeath = [&](WorkerSlot& wk) {
        drainFrames(wk); // results already buffered still count
        closeWorker(wk);
        int status = 0;
        ::waitpid(wk.pid, &status, 0);
        const bool exec_failed = !wk.acked && WIFEXITED(status) &&
                                 WEXITSTATUS(status) == 127;
        if (exec_failed)
            throw ShardError("shard: cannot exec worker binary '" +
                             worker_path +
                             "' (set ShardOptions::worker_path or "
                             "PYTHIA_SWEEP_WORKER)");
        if (wk.job) {
            const std::size_t job = *wk.job;
            wk.job.reset();
            if (++st.restarts[job] > kMaxJobRestarts)
                throw ShardError("shard: job " + std::to_string(job) +
                                 " lost its worker " +
                                 std::to_string(st.restarts[job]) +
                                 " times (max " +
                                 std::to_string(kMaxJobRestarts) + ")");
            st.pending.push_front(job);
        }
        if (st.spec_done < st.spec_total) {
            wk.generation += 1;
            spawn(wk);
            ++report_.worker_restarts;
        }
    };

    unsigned n_workers = 0;
    try {
        n_workers = static_cast<unsigned>(std::min<std::size_t>(
            opt_.workers, st.pending.size()));
        workers.resize(n_workers);
        for (unsigned i = 0; i < n_workers; ++i) {
            workers[i].index = i;
            spawn(workers[i]);
        }

        // Task jobs carry closures, which cannot cross the process
        // boundary: run them here while the fleet crunches spec jobs.
        // Declaration-order execution keeps them deterministic; they
        // are never journaled (re-running re-applies side effects the
        // callbacks rely on).
        for (std::size_t i = 0; i < st.n; ++i) {
            if (!sweep.tasks_[i])
                continue;
            try {
                const auto js = std::chrono::steady_clock::now();
                st.results[i] = sweep.tasks_[i](runner);
                st.job_seconds[i] =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - js)
                        .count();
                st.have[i] = 1;
            } catch (...) {
                st.errors[i] = {0, "", std::current_exception()};
            }
        }

        // Event loop: drain results (each pulls the worker's next job)
        // and survive deaths. A respawn re-registers the slot's new
        // pipe, so an event for an fd the slot no longer holds is stale
        // and skipped.
        std::vector<transport::IoEvent> events;
        while (st.spec_done < st.spec_total) {
            loop.wait(events, -1);
            for (const transport::IoEvent& ev : events) {
                auto& wk = *static_cast<WorkerSlot*>(ev.ud);
                if (!wk.alive || ev.fd != wk.from_fd)
                    continue;
                if (!wk.reader.fill(wk.from_fd) || (ev.err && !ev.in)) {
                    onWorkerDeath(wk);
                    continue;
                }
                drainFrames(wk);
            }
        }
    } catch (...) {
        teardown();
        throw;
    }
    teardown();

    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;

    if (!st.errors.empty()) {
        // First error by job index — deterministic whatever the
        // worker count or completion order (no callbacks replay).
        rethrowJobError(st.errors.begin()->second);
    }

    report_.sweep.experiments = st.n;
    report_.sweep.jobs = n_workers;
    report_.sweep.seconds = elapsed.count();
    report_.sweep.job_seconds = st.job_seconds;
    if (opt_.report_os) {
        char line[192];
        std::snprintf(line, sizeof line,
                      "[shard] %zu experiments in %.3f s — %.2f exp/s "
                      "(workers=%u, resumed=%zu, restarts=%zu)\n",
                      st.n, report_.sweep.seconds,
                      report_.sweep.experimentsPerSecond(), n_workers,
                      report_.resumed_jobs, report_.worker_restarts);
        *opt_.report_os << line << std::flush;
    }

    // Same ordered replay as ParallelRunner, on the coordinator thread.
    sweep.replay(st.results);
    return st.results;
}

} // namespace pythia::harness
