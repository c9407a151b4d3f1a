/**
 * @file
 * Adversarial tests of the sharded sweep service (DESIGN.md §11).
 *
 * The claims under test are the ones ISSUE 8 requires proven, not
 * asserted: workers=N subprocesses produce bit-identical outcomes to
 * the in-process runner; a worker SIGKILLed at any protocol point
 * (before its first job, on job receipt, after computing but before
 * sending) is respawned and the sweep still converges to the same
 * bits; a coordinator killed before or after the journal flush resumes
 * from the journal to byte-identical results; a truncated journal tail
 * is discarded with a warning and merely re-runs its job, while a
 * corrupted checksum or a foreign fingerprint fails loudly with a
 * typed error naming the offender; and random truncation/corruption at
 * arbitrary byte offsets never yields wrong results — only repaired
 * resumes or typed errors followed by a clean re-run.
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/transport.hpp"
#include "harness/session.hpp"
#include "harness/shard.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/archive.hpp"

namespace pythia::harness {
namespace {

namespace fs = std::filesystem;

/** Set an environment variable for one scope, restoring on exit. */
class EnvGuard
{
  public:
    EnvGuard(std::string name, const std::string& value)
        : name_(std::move(name))
    {
        if (const char* old = std::getenv(name_.c_str()))
            old_ = old;
        ::setenv(name_.c_str(), value.c_str(), 1);
    }
    ~EnvGuard()
    {
        if (old_)
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::optional<std::string> old_;
};

/** Fresh per-test scratch directory under the build tree. */
class ShardService : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::path("shard_test_scratch") /
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path(const std::string& leaf) const
    {
        return (dir_ / leaf).string();
    }
    fs::path dir_;
};

void
expectBitIdentical(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.ipc_geomean, b.ipc_geomean);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llc_demand_load_misses, b.llc_demand_load_misses);
    EXPECT_EQ(a.llc_read_misses, b.llc_read_misses);
    EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
    EXPECT_EQ(a.prefetch_useful, b.prefetch_useful);
    EXPECT_EQ(a.prefetch_useless, b.prefetch_useless);
    EXPECT_EQ(a.prefetch_late, b.prefetch_late);
    EXPECT_EQ(a.dram_buckets, b.dram_buckets);
    EXPECT_EQ(a.dram_utilization, b.dram_utilization);
    EXPECT_EQ(a.core_cycles, b.core_cycles);
    EXPECT_EQ(a.dram_bucket_epochs, b.dram_bucket_epochs);
}

void
expectBitIdentical(const Runner::Outcome& a, const Runner::Outcome& b)
{
    expectBitIdentical(a.run, b.run);
    expectBitIdentical(a.baseline, b.baseline);
    EXPECT_EQ(a.metrics.speedup, b.metrics.speedup);
    EXPECT_EQ(a.metrics.coverage, b.metrics.coverage);
    EXPECT_EQ(a.metrics.overprediction, b.metrics.overprediction);
    EXPECT_EQ(a.metrics.accuracy, b.metrics.accuracy);
}

void
expectBitIdentical(const std::vector<Runner::Outcome>& a,
                   const std::vector<Runner::Outcome>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectBitIdentical(a[i], b[i]);
    }
}

/** One small-window job: @p workload under @p prefetcher. */
ExperimentSpec
smallSpec(const char* workload, const char* prefetcher)
{
    return {.workload = workload,
            .prefetcher = prefetcher,
            .warmup_instrs = 2'000,
            .sim_instrs = 5'000};
}

/** The test grid: two workloads x three prefetchers, small windows.
 *  Six spec jobs is enough to exercise pull dispatch, respawn and
 *  resume while keeping every adversarial scenario re-runnable in
 *  seconds. */
Sweep
testSweep()
{
    Sweep sweep;
    for (const char* w : {"470.lbm-164B", "462.libquantum-1343B"})
        for (const char* pf : {"none", "stride", "pythia"})
            sweep.add(smallSpec(w, pf));
    return sweep;
}

/** The uninterrupted single-thread reference every scenario must hit. */
const std::vector<Runner::Outcome>&
reference()
{
    static const std::vector<Runner::Outcome> ref = [] {
        Runner runner;
        Sweep sweep = testSweep();
        return ParallelRunner(1).reportTo(nullptr).run(runner, sweep);
    }();
    return ref;
}

std::vector<Runner::Outcome>
runSharded(ShardOptions opt, Sweep sweep, ShardReport* report = nullptr)
{
    Runner runner;
    ShardCoordinator coordinator(std::move(opt));
    auto outcomes = coordinator.run(runner, sweep);
    if (report)
        *report = coordinator.lastReport();
    return outcomes;
}

// ------------------------------------------------------- wire codec

TEST_F(ShardService, WireSpecRoundTripsEveryField)
{
    ExperimentSpec spec;
    spec.workload = "462.libquantum-1343B";
    spec.mix = {"429.mcf-184B", "Ligra-BFS"};
    // Features, actions and rewards travel inside the spec string.
    spec.prefetcher = "pythia:features=PC.Delta/PCPath3.Offset/Last4Deltas,"
                      "actions=-8/0/3/42,r_at=21.5,r_np_low=-3.25,"
                      "eq_size=512,planes=2,plane_index_bits=9,seed=77";
    spec.l1_prefetcher = "stride";
    spec.num_cores = 4;
    spec.mtps = 300;
    spec.llc_bytes_per_core = 1ull << 20;
    spec.warmup_instrs = 12'345;
    spec.sim_instrs = 67'890;
    spec.workload_seed = 0xABCDEF;

    snap::Writer w;
    snap::save(spec, w);
    snap::Reader r(w.buffer().data(), w.size());
    ExperimentSpec back;
    snap::load(back, r);
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(back.workload, spec.workload);
    EXPECT_EQ(back.mix, spec.mix);
    EXPECT_EQ(back.prefetcher, spec.prefetcher);
    EXPECT_EQ(back.l1_prefetcher, spec.l1_prefetcher);
    EXPECT_EQ(back.num_cores, spec.num_cores);
    EXPECT_EQ(back.mtps, spec.mtps);
    EXPECT_EQ(back.llc_bytes_per_core, spec.llc_bytes_per_core);
    EXPECT_EQ(back.warmup_instrs, spec.warmup_instrs);
    EXPECT_EQ(back.sim_instrs, spec.sim_instrs);
    EXPECT_EQ(back.workload_seed, spec.workload_seed);
    EXPECT_NE(sim::makePrefetcher(back.prefetcher), nullptr);

    // The same spec fingerprints identically through the snapshot path,
    // which is what binds the journal to the grid that wrote it.
    EXPECT_EQ(fingerprintFor(spec), fingerprintFor(back));
}

TEST_F(ShardService, WireOutcomeRoundTripsBitExactly)
{
    const auto& ref = reference();
    for (const auto& outcome : ref) {
        snap::Writer w;
        snap::save(outcome, w);
        snap::Reader r(w.buffer().data(), w.size());
        Runner::Outcome back;
        snap::load(back, r);
        EXPECT_TRUE(r.atEnd());
        expectBitIdentical(back, outcome);
    }
}

/** @p payload behind a raw u32 length, which may be zero. */
transport::Payload
rawFrame(const transport::Payload& payload)
{
    snap::Writer w;
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    return w.buffer();
}

/** Feed @p frames to an in-process shardWorkerMain over two pipes and
 *  close its input. Returns the exit code and the number of frames the
 *  worker wrote back. */
std::pair<int, std::size_t>
runWorkerOn(const std::vector<transport::Payload>& frames)
{
    int to_worker[2];
    int from_worker[2];
    if (::pipe(to_worker) != 0 || ::pipe(from_worker) != 0)
        throw std::system_error(errno, std::generic_category(), "pipe");
    for (const transport::Payload& f : frames) {
        const transport::Payload raw = rawFrame(f);
        transport::writeAll(to_worker[1], raw.data(), raw.size());
    }
    ::close(to_worker[1]);
    std::vector<std::string> args = {"sweep_worker",
                                     std::to_string(to_worker[0]),
                                     std::to_string(from_worker[1]), "0",
                                     "0"};
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    const int rc = shardWorkerMain(static_cast<int>(argv.size()),
                                   argv.data());
    ::close(to_worker[0]);
    ::close(from_worker[1]);
    std::size_t replies = 0;
    while (transport::readFrame(from_worker[0]))
        ++replies;
    ::close(from_worker[0]);
    return {rc, replies};
}

transport::Payload
helloFrame()
{
    snap::Writer w;
    w.u8(1); // Hello
    w.str(kWireSchemaName);
    w.u32(kWireVersion);
    w.u32(0); // worker index
    return w.buffer();
}

TEST_F(ShardService, WireHelloRejectsV1LayoutAndTrailingBytes)
{
    // Control: a well-formed Hello is acked, and EOF ends the worker.
    EXPECT_EQ(runWorkerOn({helloFrame()}),
              std::make_pair(0, std::size_t{1}));

    // The v1 layout: version 1 plus its trailing cache-directory string.
    snap::Writer v1;
    v1.u8(1);
    v1.str(kWireSchemaName);
    v1.u32(1);
    v1.u32(0);
    v1.str("warm_cache");
    EXPECT_EQ(runWorkerOn({v1.buffer()}),
              std::make_pair(1, std::size_t{0}));

    // A current Hello with one byte past its last field.
    transport::Payload extra = helloFrame();
    extra.push_back(0);
    EXPECT_EQ(runWorkerOn({extra}), std::make_pair(1, std::size_t{0}));
}

/** Run a one-job sweep against a stand-in worker that writes @p frames
 *  (raw, so a zero length is possible) and exits. */
void
runAgainstRogue(const std::string& dir, const transport::Payload& frames)
{
    const fs::path bin = fs::absolute(fs::path(dir) / "frames.bin");
    {
        std::ofstream f(bin, std::ios::binary);
        f.write(reinterpret_cast<const char*>(frames.data()),
                static_cast<std::streamsize>(frames.size()));
    }
    // argv = {in_fd, out_fd, index, generation}. The coordinator reads
    // buffered frames before it handles the worker's exit.
    const std::string worker = (fs::path(dir) / "rogue_worker.sh").string();
    {
        std::ofstream sh(worker);
        sh << "#!/bin/sh\ncat '" << bin.string() << "' >&\"$2\"\n";
    }
    fs::permissions(worker, fs::perms::owner_all);
    ShardOptions opt;
    opt.workers = 1;
    opt.worker_path = worker;
    Sweep one;
    one.add(smallSpec("470.lbm-164B", "none"));
    runSharded(opt, std::move(one));
}

TEST_F(ShardService, WireEveryStrictPrefixIsATypedError)
{
    // Every strict prefix of a valid payload ends mid-field. The worker
    // refuses a cut Hello or Job (exit 1, no Result); the coordinator
    // turns a cut HelloAck or Result into a WireError.
    snap::Writer job;
    job.u8(3); // Job
    job.u64(0);
    snap::save(smallSpec("470.lbm-164B", "none"), job);
    const transport::Payload hello = helloFrame();
    for (std::size_t n = 0; n < hello.size(); ++n)
        EXPECT_EQ(runWorkerOn({{hello.begin(), hello.begin() + n}}),
                  std::make_pair(1, std::size_t{0}))
            << "hello cut at " << n;
    for (std::size_t n = 0; n < job.size(); ++n)
        EXPECT_EQ(runWorkerOn({hello, {job.buffer().begin(),
                                        job.buffer().begin() + n}}),
                  std::make_pair(1, std::size_t{1}))
            << "job cut at " << n;

    snap::Writer ack;
    ack.u8(2); // HelloAck
    ack.str(kWireSchemaName);
    ack.u32(kWireVersion);
    snap::Writer ok;
    ok.u8(4); // Result
    ok.u64(0);
    ok.u8(1);
    snap::save(reference()[0], ok);
    ok.f64(0.5);
    snap::Writer failed;
    failed.u8(4);
    failed.u64(0);
    failed.u8(0);
    failed.u8(2); // std::runtime_error
    failed.str("failed");
    for (const snap::Writer* w : {&ack, &ok, &failed}) {
        const transport::Payload& p = w->buffer();
        for (std::size_t n = 0; n < p.size(); ++n) {
            transport::Payload frames;
            if (w != &ack)
                frames = rawFrame(ack.buffer());
            const transport::Payload cut =
                rawFrame({p.begin(), p.begin() + n});
            frames.insert(frames.end(), cut.begin(), cut.end());
            EXPECT_THROW(runAgainstRogue(dir_.string(), frames), WireError)
                << "frame type " << int(p[0]) << " cut at " << n;
        }
    }
}

TEST_F(ShardService, JournalRecordEveryStrictPrefixIsCorrupt)
{
    // A record whose length and checksum agree with a cut payload must
    // still fail to decode, as a JournalCorruptError naming it.
    ShardOptions opt;
    opt.workers = 1;
    opt.journal_path = path("ok.journal");
    Sweep one;
    one.add(smallSpec("470.lbm-164B", "none"));
    runSharded(opt, std::move(one));
    const JournalScan scan = scanJournal(opt.journal_path, "");
    ASSERT_EQ(scan.entries.size(), 1u);
    std::ifstream f(opt.journal_path, std::ios::binary);
    const transport::Payload bytes((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
    const std::size_t header = 8 + 4 + 8 + scan.fingerprint.size() + 8;
    ASSERT_GT(bytes.size(), header + 4 + 8);
    const transport::Payload record(bytes.begin() + header + 4,
                                    bytes.end() - 8);
    ASSERT_EQ(transport::decodeFrameHeader(bytes.data() + header),
              record.size());

    for (std::size_t n = 0; n < record.size(); ++n) {
        const transport::Payload cut(record.begin(), record.begin() + n);
        transport::Payload file(bytes.begin(), bytes.begin() + header);
        const transport::Payload framed = rawFrame(cut);
        file.insert(file.end(), framed.begin(), framed.end());
        snap::Writer sum;
        sum.u64(snap::fnv1a(cut.data(), cut.size()));
        file.insert(file.end(), sum.buffer().begin(), sum.buffer().end());
        {
            std::ofstream out(path("cut.journal"), std::ios::binary);
            out.write(reinterpret_cast<const char*>(file.data()),
                      static_cast<std::streamsize>(file.size()));
        }
        EXPECT_THROW(scanJournal(path("cut.journal"), ""),
                     JournalCorruptError)
            << "record cut at " << n;
    }
}

TEST_F(ShardService, SweepFingerprintBindsTheGrid)
{
    Sweep a = testSweep();
    Sweep b = testSweep();
    EXPECT_EQ(sweepFingerprint(a), sweepFingerprint(b));

    // Any grid change — an extra job, a different spec — re-keys it.
    Sweep c = testSweep();
    c.add(smallSpec("429.mcf-184B", "none"));
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(c));
    Sweep d;
    for (const char* w : {"470.lbm-164B", "462.libquantum-1343B"})
        for (const char* pf : {"none", "stride", "spp"}) // spp != pythia
            d.add(smallSpec(w, pf));
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(d));

    // Task jobs are marked as such (they are never journaled).
    Sweep e;
    e.addTask([](Runner&) { return Runner::Outcome{}; });
    EXPECT_NE(sweepFingerprint(e).find("job0=task"), std::string::npos);
}

// ---------------------------------------------- determinism across N

TEST_F(ShardService, WorkersMatchInlineBitIdentical)
{
    ShardOptions opt;
    opt.workers = 3;
    ShardReport report;
    const auto sharded = runSharded(opt, testSweep(), &report);
    expectBitIdentical(sharded, reference());
    EXPECT_EQ(report.sweep.experiments, reference().size());
    EXPECT_EQ(report.sweep.jobs, 3u);
    EXPECT_EQ(report.resumed_jobs, 0u);
}

TEST_F(ShardService, CallbacksReplayInDeclarationOrder)
{
    Sweep sweep;
    std::vector<int> order;
    int i = 0;
    for (const char* pf : {"none", "stride", "pythia"}) {
        sweep.add(smallSpec("470.lbm-164B", pf),
                  [&order, i](const Runner::Outcome&) {
                      order.push_back(2 * i);
                  });
        sweep.then([&order, i] { order.push_back(2 * i + 1); });
        ++i;
    }
    ShardOptions opt;
    opt.workers = 3;
    runSharded(opt, std::move(sweep));
    ASSERT_EQ(order.size(), 6u);
    for (int k = 0; k < 6; ++k)
        EXPECT_EQ(order[k], k);
}

TEST_F(ShardService, TaskJobsRunInCoordinatorProcess)
{
    // Closures cannot cross the process boundary; the coordinator must
    // run them locally — observable side effect included — while spec
    // jobs still go to the workers.
    Sweep sweep;
    const pid_t my_pid = ::getpid();
    pid_t task_pid = -1;
    sweep.add(smallSpec("470.lbm-164B", "stride"));
    sweep.addTask([&task_pid](Runner& r) {
        task_pid = ::getpid();
        return r.evaluate(smallSpec("470.lbm-164B", "none"));
    });
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("tasks.journal");
    const auto outcomes = runSharded(opt, std::move(sweep));
    EXPECT_EQ(task_pid, my_pid);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_GT(outcomes[1].run.ipc_geomean, 0.0);

    // And the journal holds only the spec job: scanning it back finds
    // exactly one record.
    const JournalScan scan = scanJournal(opt.journal_path, "");
    EXPECT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(scan.entries[0].job, 0u);
    EXPECT_EQ(scan.discarded_tail_bytes, 0u);
}

// --------------------------------------------------- fault injection

/** Worker killed at each protocol point: before its first frame, on
 *  receiving its first job, and after computing it but before sending
 *  the result. Every worker is handed a job at spawn, so each point is
 *  reached whatever the timing. In every case the respawned fleet must
 *  converge to the reference bits. */
class ShardKillPoint
    : public ShardService,
      public ::testing::WithParamInterface<const char*>
{
};

TEST_P(ShardKillPoint, WorkerDeathIsRecoveredBitIdentically)
{
    EnvGuard kill_worker("PYTHIA_SHARD_KILL_WORKER", "0");
    EnvGuard kill_point("PYTHIA_SHARD_KILL_POINT", GetParam());
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("kill.journal");
    ShardReport report;
    const auto outcomes = runSharded(opt, testSweep(), &report);
    expectBitIdentical(outcomes, reference());
    EXPECT_GE(report.worker_restarts, 1u);
}

INSTANTIATE_TEST_SUITE_P(KillPoints, ShardKillPoint,
                         ::testing::Values("start", "recv", "pre_send"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

TEST_F(ShardService, SlowWorkerConvergesBitIdentically)
{
    // Worker 0 sleeps 400ms per job; with 2 workers on 6 jobs the fast
    // worker pulls most of the grid and results arrive out of order,
    // yet the outcomes must still be the reference bits.
    EnvGuard slow_worker("PYTHIA_SHARD_SLOW_WORKER", "0");
    EnvGuard slow_ms("PYTHIA_SHARD_SLOW_MS", "400");
    ShardOptions opt;
    opt.workers = 2;
    const auto outcomes = runSharded(opt, testSweep());
    expectBitIdentical(outcomes, reference());
}

TEST_F(ShardService, ResultForJobNotHeldIsAWireError)
{
    // A stand-in worker acks the Hello, then answers for the grid's
    // last job while the coordinator has handed it job 0.
    snap::Writer ack;
    ack.u8(2); // HelloAck
    ack.str(kWireSchemaName);
    ack.u32(kWireVersion);
    snap::Writer result;
    result.u8(4); // Result
    result.u64(testSweep().size() - 1);
    result.u8(0); // error outcome
    result.u8(2);
    result.str("not my job");
    {
        std::ofstream frames(path("frames.bin"), std::ios::binary);
        for (const snap::Writer* w : {&ack, &result}) {
            const auto h = transport::encodeFrameHeader(w->size());
            frames.write(reinterpret_cast<const char*>(h.data()),
                         static_cast<std::streamsize>(h.size()));
            frames.write(
                reinterpret_cast<const char*>(w->buffer().data()),
                static_cast<std::streamsize>(w->size()));
        }
    }
    // argv = {in_fd, out_fd, index, generation}. The coordinator reads
    // buffered frames before it handles the worker's exit.
    const std::string worker = path("rogue_worker.sh");
    {
        std::ofstream sh(worker);
        sh << "#!/bin/sh\ncat '" << fs::absolute(path("frames.bin")).string()
           << "' >&\"$2\"\n";
    }
    fs::permissions(worker, fs::perms::owner_all);

    ShardOptions opt;
    opt.workers = 1;
    opt.worker_path = worker;
    EXPECT_THROW(runSharded(opt, testSweep()), WireError);
}

TEST_F(ShardService, MissingWorkerBinaryIsATypedError)
{
    ShardOptions opt;
    opt.workers = 2;
    opt.worker_path = path("no-such-binary");
    Runner runner;
    ShardCoordinator coordinator(opt);
    Sweep sweep = testSweep();
    EXPECT_THROW(coordinator.run(runner, sweep), ShardError);
}

// ---------------------------------------------- coordinator crashes

/** Run the sharded sweep in a forked child with the crash hook armed;
 *  the child must die with exit code 137 at the injected instant. */
void
runCrashingChild(const ShardOptions& opt, const std::string& crash_spec)
{
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
        ::setenv("PYTHIA_SHARD_TEST_CRASH", crash_spec.c_str(), 1);
        try {
            Runner runner;
            Sweep sweep = testSweep();
            ShardCoordinator coordinator(opt);
            coordinator.run(runner, sweep);
        } catch (...) {
        }
        ::_exit(86); // the crash hook should have fired first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137)
        << "child was expected to die at the injected crash point";
}

/** Coordinator killed around the K-th journal flush; resuming from the
 *  journal must reproduce the reference bits, re-running only what the
 *  journal does not hold. */
class ShardCoordinatorCrash
    : public ShardService,
      public ::testing::WithParamInterface<const char*>
{
};

TEST_P(ShardCoordinatorCrash, ResumeAfterCrashIsBitIdentical)
{
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("crash.journal");
    runCrashingChild(opt, std::string(GetParam()) + ":3");
    ASSERT_TRUE(fs::exists(opt.journal_path));

    // The journal must already be scannable: a crash can leave at most
    // a torn tail, never a corrupt prefix.
    const JournalScan scan = scanJournal(opt.journal_path, "");
    const std::size_t flushed = scan.entries.size();
    EXPECT_LE(flushed, reference().size());

    ShardReport report;
    const auto outcomes = runSharded(opt, testSweep(), &report);
    expectBitIdentical(outcomes, reference());
    EXPECT_EQ(report.resumed_jobs, flushed);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, ShardCoordinatorCrash,
                         ::testing::Values("pre_flush", "post_flush"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

// ------------------------------------------------ journal robustness

TEST_F(ShardService, JournalResumeSkipsCompletedJobs)
{
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("resume.journal");
    const auto first = runSharded(opt, testSweep());
    expectBitIdentical(first, reference());

    // Second run: everything replays from the journal, no workers run.
    ShardReport report;
    const auto second = runSharded(opt, testSweep(), &report);
    expectBitIdentical(second, reference());
    EXPECT_EQ(report.resumed_jobs, reference().size());
    EXPECT_EQ(report.sweep.jobs, 0u);
}

TEST_F(ShardService, TruncatedTailIsDiscardedWithWarningAndRerun)
{
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("tail.journal");
    runSharded(opt, testSweep());

    // Chop 7 bytes off the last record: an interrupted append.
    const auto full = fs::file_size(opt.journal_path);
    fs::resize_file(opt.journal_path, full - 7);

    const JournalScan scan = scanJournal(opt.journal_path, "");
    EXPECT_EQ(scan.entries.size(), reference().size() - 1);
    EXPECT_GT(scan.discarded_tail_bytes, 0u);
    EXPECT_EQ(scan.valid_bytes + scan.discarded_tail_bytes, full - 7);

    // Resume: the scan warning names the journal, the lost job
    // re-runs, and the repaired journal is whole again.
    std::ostringstream warning;
    auto* old = std::cerr.rdbuf(warning.rdbuf());
    ShardReport report;
    const auto outcomes = runSharded(opt, testSweep(), &report);
    std::cerr.rdbuf(old);
    expectBitIdentical(outcomes, reference());
    EXPECT_EQ(report.resumed_jobs, reference().size() - 1);
    EXPECT_GT(report.discarded_tail_bytes, 0u);
    EXPECT_NE(warning.str().find("discarding"), std::string::npos);
    const JournalScan repaired = scanJournal(opt.journal_path, "");
    EXPECT_EQ(repaired.entries.size(), reference().size());
    EXPECT_EQ(repaired.discarded_tail_bytes, 0u);
}

TEST_F(ShardService, CorruptedChecksumNamesTheRecord)
{
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("corrupt.journal");
    runSharded(opt, testSweep());

    // Flip one byte in the middle of the record region (past the
    // header, clear of the final record's length prefix).
    std::fstream f(opt.journal_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    const auto size = fs::file_size(opt.journal_path);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
    f.close();

    try {
        scanJournal(opt.journal_path, "");
        FAIL() << "corrupted journal scanned cleanly";
    } catch (const JournalCorruptError& e) {
        EXPECT_NE(std::string(e.what()).find("record"),
                  std::string::npos)
            << e.what();
    }
    // The coordinator surfaces the same typed error instead of
    // silently re-running (silent loss of a journal is a bug magnet).
    Runner runner;
    ShardCoordinator coordinator(opt);
    Sweep sweep = testSweep();
    EXPECT_THROW(coordinator.run(runner, sweep), JournalCorruptError);
}

TEST_F(ShardService, ForeignFingerprintIsATypedErrorWithDiff)
{
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("foreign.journal");
    runSharded(opt, testSweep());

    // Same journal, different grid: must refuse with a field diff, not
    // resume the wrong results.
    Sweep other;
    for (const char* pf : {"none", "stride", "pythia"})
        other.add(smallSpec("429.mcf-184B", pf));
    Runner runner;
    ShardCoordinator coordinator(opt);
    try {
        coordinator.run(runner, other);
        FAIL() << "foreign journal accepted";
    } catch (const JournalFingerprintError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
        // The message carries the field-by-field diff: the job count
        // and at least one per-job spec hash must be named.
        EXPECT_NE(what.find("jobs"), std::string::npos) << what;
        EXPECT_NE(what.find("job0"), std::string::npos) << what;
    }
}

TEST_F(ShardService, UnsupportedJournalVersionIsRejected)
{
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("version.journal");
    runSharded(opt, testSweep());

    // Bump the version field (bytes 8..11, little-endian u32) and
    // repair nothing else: scan must refuse with JournalError, and the
    // checksum guard must not mask it as corruption.
    std::fstream f(opt.journal_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    const char v2[4] = {2, 0, 0, 0};
    f.write(v2, 4);
    f.close();
    EXPECT_THROW(scanJournal(opt.journal_path, ""), JournalError);
}

TEST_F(ShardService, RandomTruncationAlwaysResumesBitIdentically)
{
    // Property: truncating the journal at ANY byte offset leaves a
    // resumable file — some prefix of records survives, the torn tail
    // is discarded, and the resumed sweep reproduces the reference.
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("trunc.journal");
    runSharded(opt, testSweep());
    std::vector<std::uint8_t> pristine;
    {
        std::ifstream f(opt.journal_path, std::ios::binary);
        pristine.assign((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
    }
    std::mt19937 rng(20210615); // MICRO'21 — fixed seed, reproducible
    for (int round = 0; round < 8; ++round) {
        const std::size_t cut = rng() % pristine.size();
        SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                     std::to_string(pristine.size()) + " bytes");
        {
            std::ofstream f(opt.journal_path,
                            std::ios::binary | std::ios::trunc);
            f.write(reinterpret_cast<const char*>(pristine.data()),
                    static_cast<std::streamoff>(cut));
        }
        std::ostringstream sink; // swallow the tail-discard warnings
        auto* old = std::cerr.rdbuf(sink.rdbuf());
        std::vector<Runner::Outcome> outcomes;
        try {
            outcomes = runSharded(opt, testSweep());
        } catch (...) {
            std::cerr.rdbuf(old);
            throw;
        }
        std::cerr.rdbuf(old);
        expectBitIdentical(outcomes, reference());
    }
}

TEST_F(ShardService, RandomCorruptionNeverYieldsWrongResults)
{
    // Property: flipping a byte at ANY offset either (a) still resumes
    // to the reference bits (the flip landed in a torn-tail region or
    // was detected and the affected suffix discarded is impossible —
    // detection is loud), or (b) raises a typed JournalError, after
    // which deleting the journal and re-running reproduces the
    // reference. What must NEVER happen is a clean run with different
    // bits.
    ShardOptions opt;
    opt.workers = 2;
    opt.journal_path = path("flip.journal");
    runSharded(opt, testSweep());
    std::vector<std::uint8_t> pristine;
    {
        std::ifstream f(opt.journal_path, std::ios::binary);
        pristine.assign((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
    }
    std::mt19937 rng(1343); // libquantum's favorite trace point
    int typed_errors = 0;
    for (int round = 0; round < 10; ++round) {
        const std::size_t at = rng() % pristine.size();
        const auto flip =
            static_cast<std::uint8_t>(1u << (rng() % 8));
        SCOPED_TRACE("flipped bit at offset " + std::to_string(at));
        auto bytes = pristine;
        bytes[at] = static_cast<std::uint8_t>(bytes[at] ^ flip);
        {
            std::ofstream f(opt.journal_path,
                            std::ios::binary | std::ios::trunc);
            f.write(reinterpret_cast<const char*>(bytes.data()),
                    static_cast<std::streamoff>(bytes.size()));
        }
        std::ostringstream sink;
        auto* old = std::cerr.rdbuf(sink.rdbuf());
        std::vector<Runner::Outcome> outcomes;
        bool clean = false;
        try {
            outcomes = runSharded(opt, testSweep());
            clean = true;
        } catch (const JournalError&) {
            ++typed_errors;
            fs::remove(opt.journal_path);
            outcomes = runSharded(opt, testSweep());
        } catch (const snap::SnapshotError&) {
            // A flip inside the fingerprint string surfaces through
            // the snapshot taxonomy's diff path; equally acceptable.
            ++typed_errors;
            fs::remove(opt.journal_path);
            outcomes = runSharded(opt, testSweep());
        }
        std::cerr.rdbuf(old);
        (void)clean;
        expectBitIdentical(outcomes, reference());
    }
    // The checksums must actually be doing work: across 10 flips at
    // least one must have been caught loudly.
    EXPECT_GE(typed_errors, 1);
}

} // namespace
} // namespace pythia::harness
