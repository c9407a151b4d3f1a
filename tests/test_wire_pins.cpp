/**
 * @file
 * Byte pins of every value that crosses a process or disk boundary.
 *
 * Round-trip tests cannot see a writer and its reader that agree on a
 * reordered field list: the bytes move, every decode still succeeds,
 * and a peer or file from another build reads garbage. This suite pins
 * the encoded bytes themselves (length + FNV-1a-64) of
 *  - one payload of every pythia-serve-v1 frame type (DESIGN.md §12.1),
 *  - the pythia-shard-v1 Hello, HelloAck, Job and both Result forms
 *    (§11.1), each produced by the code that sends it: the coordinator's
 *    frames are captured by a stand-in worker, the worker's frames come
 *    from shardWorkerMain over pipes,
 *  - one pythia-journal-v1 file (header + record, §11.2),
 *  - snapshotBytes() of a post-warmup 1-core pythia session and a 4-core
 *    spp session one window in (§9.1).
 * The values carry distinct non-zero fields, so swapping any two fields
 * of one width changes the digest. A pin moves only with a deliberate
 * format change, which also bumps that format's version.
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "common/transport.hpp"
#include "harness/session.hpp"
#include "harness/shard.hpp"
#include "service/wire.hpp"
#include "snapshot/codec.hpp"

namespace pythia {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;

struct Pin
{
    std::size_t size;
    std::uint64_t fnv;
};

/** Compare @p bytes against @p pin; a mismatch prints the new pin in
 *  source form. */
void
expectPinned(const Bytes& bytes, Pin pin, const std::string& what)
{
    const std::uint64_t fnv = snap::fnv1a(bytes.data(), bytes.size());
    char actual[64];
    std::snprintf(actual, sizeof actual, "{%zu, 0x%016llxull}",
                  bytes.size(), static_cast<unsigned long long>(fnv));
    EXPECT_TRUE(bytes.size() == pin.size && fnv == pin.fnv)
        << what << " moved: now " << actual;
}

sim::RunResult
sampleResult(std::uint64_t k)
{
    sim::RunResult r;
    r.ipc = {1.25 + static_cast<double>(k), 0.5};
    r.ipc_geomean = 0.75 + static_cast<double>(k);
    r.instructions = 1000 + k;
    r.llc_demand_load_misses = 2000 + k;
    r.llc_read_misses = 3000 + k;
    r.prefetch_issued = 4000 + k;
    r.prefetch_useful = 5000 + k;
    r.prefetch_useless = 6000 + k;
    r.prefetch_late = 7000 + k;
    r.dram_buckets = {0.5, 0.25, 0.125, 0.0625};
    r.dram_utilization = 0.375;
    r.core_cycles = {8000 + k, 9000 + k};
    r.dram_bucket_epochs = {11, 12, 13, 14 + k};
    return r;
}

harness::ExperimentSpec
sampleSpec()
{
    return {.workload = "462.libquantum-1343B",
            .mix = {"429.mcf-184B", "Ligra-BFS"},
            .prefetcher = "pythia:gamma=0.5",
            .l1_prefetcher = "stride",
            .num_cores = 2,
            .mtps = 600,
            .llc_bytes_per_core = 1ull << 20,
            .warmup_instrs = 12'345,
            .sim_instrs = 67'890,
            .workload_seed = 0xABCDEF};
}

// ------------------------------------------------------- pythia-serve-v1

TEST(WirePins, EveryServeFrameType)
{
    service::HelloMsg hello;
    hello.tenant = "tenant-pin";
    hello.spec = sampleSpec();
    hello.window_instrs = 4096;
    expectPinned(service::encodeHello(hello), {205, 0x7568bcc9b36751fcull},
                 "hello");

    service::HelloAckMsg ack;
    ack.resumed = true;
    ack.warm = false;
    ack.instrs_advanced = 11;
    ack.windows_completed = 12;
    ack.records_received = 13;
    ack.records_consumed = 14;
    expectPinned(service::encodeHelloAck(ack), {62, 0x6bc0c27a629ee8e6ull},
                 "hello-ack");

    std::vector<wl::TraceRecord> records(3);
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].pc = 0x400000 + i;
        records[i].addr = 0x10000000 + 64 * i;
        records[i].gap = static_cast<std::uint32_t>(i + 2);
        records[i].is_write = i == 1;
        records[i].depends_on_prev = i == 2;
    }
    expectPinned(service::encodeAccess(records.data(), records.size()),
                 {72, 0xba35514e758ae51eull}, "access");

    service::WindowMsg window;
    window.window.index = 3;
    window.window.instrs_begin = 100;
    window.window.instrs_end = 200;
    window.window.delta = sampleResult(1);
    window.window.cumulative = sampleResult(2);
    window.records_consumed = 321;
    expectPinned(service::encodeWindow(window), {433, 0xd9c5a84c697a1815ull},
                 "window");

    service::RunEndMsg end;
    end.final_result = sampleResult(3);
    end.windows_completed = 7;
    end.records_consumed = 654;
    expectPinned(service::encodeRunEnd(end), {217, 0x4f62ebcd309998e9ull},
                 "run-end");

    expectPinned(service::encodeDetach(), {1, 0xaf63bb4c8601b479ull}, "detach");

    service::DetachAckMsg detached;
    detached.records_received = 21;
    detached.instrs_advanced = 22;
    detached.windows_completed = 23;
    expectPinned(service::encodeDetachAck(detached),
                 {25, 0xc1532d59f6a41012ull}, "detach-ack");

    expectPinned(service::encodeStats(), {1, 0xaf63c54c8601c577ull}, "stats");
    expectPinned(service::encodeStatsAck("{\"pin\": 1}"),
                 {19, 0xc29722161ed0a5c0ull}, "stats-ack");
    expectPinned(service::encodeError(service::kErrSpec, "bad spec"),
                 {21, 0x6324f6df9b4bf0c9ull}, "error");
}

// ------------------------------------------- pythia-shard-v1 + journal

/** Fresh scratch directory under the build tree. */
class ShardPins : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::path("wire_pins_scratch") /
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
        return fs::absolute(dir_ / leaf).string();
    }
    fs::path dir_;
};

void
appendFrame(Bytes& out, const Bytes& payload)
{
    const auto h = transport::encodeFrameHeader(payload.size());
    out.insert(out.end(), h.begin(), h.end());
    out.insert(out.end(), payload.begin(), payload.end());
}

Bytes
readFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(f)),
                 std::istreambuf_iterator<char>());
}

/** The coordinator's Hello, written out field by field (§11.1). */
Bytes
handHello()
{
    snap::Writer w;
    w.u8(1);
    w.str(harness::kWireSchemaName);
    w.u32(harness::kWireVersion);
    w.u32(0); // worker index
    return w.buffer();
}

/** A Job frame, written out field by field (§11.1). */
Bytes
handJob(std::uint64_t job, const harness::ExperimentSpec& s)
{
    snap::Writer w;
    w.u8(3);
    w.u64(job);
    w.str(s.workload);
    w.u64(s.mix.size());
    for (const std::string& m : s.mix)
        w.str(m);
    w.str(s.prefetcher);
    w.str(s.l1_prefetcher);
    w.u32(s.num_cores);
    w.u32(s.mtps);
    w.u64(s.llc_bytes_per_core);
    w.u64(s.warmup_instrs);
    w.u64(s.sim_instrs);
    w.u64(s.workload_seed);
    return w.buffer();
}

/** Every frame an in-process shardWorkerMain writes for @p input. */
std::vector<Bytes>
workerReplies(const Bytes& input)
{
    int to_worker[2];
    int from_worker[2];
    if (::pipe(to_worker) != 0 || ::pipe(from_worker) != 0)
        throw std::system_error(errno, std::generic_category(), "pipe");
    transport::writeAll(to_worker[1], input.data(), input.size());
    ::close(to_worker[1]);
    std::vector<std::string> args = {"sweep_worker",
                                     std::to_string(to_worker[0]),
                                     std::to_string(from_worker[1]), "0",
                                     "0"};
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    EXPECT_EQ(harness::shardWorkerMain(static_cast<int>(argv.size()),
                                       argv.data()),
              0);
    ::close(to_worker[0]);
    ::close(from_worker[1]);
    std::vector<Bytes> frames;
    while (auto f = transport::readFrame(from_worker[0]))
        frames.push_back(std::move(*f));
    ::close(from_worker[0]);
    return frames;
}

/** Small enough to evaluate in well under a second. */
harness::ExperimentSpec
jobSpec()
{
    return {.workload = "470.lbm-164B",
            .prefetcher = "stride",
            .warmup_instrs = 2'000,
            .sim_instrs = 5'000};
}

TEST_F(ShardPins, WireFramesAndJournalRecord)
{
    // Worker side: HelloAck, an ok Result and an error Result.
    harness::ExperimentSpec bad = jobSpec();
    bad.prefetcher = "stride:entries=0";
    Bytes input;
    appendFrame(input, handHello());
    appendFrame(input, handJob(0, jobSpec()));
    appendFrame(input, handJob(1, bad));
    const std::vector<Bytes> replies = workerReplies(input);
    ASSERT_EQ(replies.size(), 3u);
    expectPinned(replies[0], {28, 0x8009b2576fea784full}, "shard hello-ack");
    // The ok Result ends with the worker's wall-clock seconds (f64).
    Bytes ok = replies[1];
    ASSERT_GT(ok.size(), 8u);
    const Bytes measured(ok.begin(), ok.end() - 8);
    expectPinned(measured, {410, 0xf84aed9e7953535aull}, "shard result (ok)");
    expectPinned(replies[2], {56, 0x9ea6f8559606b35eull},
                 "shard result (error)");

    // Coordinator side: a stand-in worker captures the Hello and the Job,
    // then answers with the real HelloAck and the ok Result at a fixed
    // time, which makes the journal record deterministic.
    snap::Writer seconds;
    seconds.f64(0.25);
    std::copy(seconds.buffer().begin(), seconds.buffer().end(),
              ok.end() - 8);
    Bytes reply;
    appendFrame(reply, replies[0]);
    appendFrame(reply, ok);
    {
        std::ofstream f(path("reply.bin"), std::ios::binary);
        f.write(reinterpret_cast<const char*>(reply.data()),
                static_cast<std::streamsize>(reply.size()));
    }
    Bytes expected;
    appendFrame(expected, handHello());
    appendFrame(expected, handJob(0, jobSpec()));
    const std::string worker = path("capture_worker.sh");
    {
        // argv = {in_fd, out_fd, index, generation}. The timeout turns a
        // short capture into a failed comparison instead of a hang.
        std::ofstream sh(worker);
        sh << "#!/bin/sh\n"
           << "timeout 30 head -c " << expected.size() << " <&\"$1\" > '"
           << path("captured.bin") << "'\n"
           << "cat '" << path("reply.bin") << "' >&\"$2\"\n";
    }
    fs::permissions(worker, fs::perms::owner_all);

    harness::ShardOptions opt;
    opt.workers = 1;
    opt.worker_path = worker;
    opt.journal_path = path("pins.journal");
    harness::Runner runner;
    harness::Sweep sweep;
    sweep.add(jobSpec());
    harness::ShardCoordinator(opt).run(runner, sweep);

    const Bytes captured = readFile(path("captured.bin"));
    EXPECT_EQ(captured, expected)
        << "the coordinator's frames differ from the documented layout";
    ASSERT_GE(captured.size(), 4u);
    const std::size_t hello_end = 4 + transport::decodeFrameHeader(
                                          captured.data());
    ASSERT_LE(hello_end + 4, captured.size());
    expectPinned(Bytes(captured.begin() + 4, captured.begin() + hello_end),
                 {32, 0x1cbf085b2f866ef4ull}, "shard hello");
    expectPinned(Bytes(captured.begin() + hello_end + 4, captured.end()),
                 {103, 0x494553e112445a0bull}, "shard job");
    expectPinned(readFile(opt.journal_path), {511, 0xa1439967a2bfb35bull},
                 "journal");
}

// ------------------------------------------------------ pythia-snap-v1

TEST(WirePins, PostWarmupSnapshots)
{
    harness::SimSession one({.workload = "482.sphinx3-417B",
                             .prefetcher = "pythia",
                             .warmup_instrs = 5'000,
                             .sim_instrs = 10'000});
    one.runWarmup();
    expectPinned(one.snapshotBytes(), {1075822, 0x7305176506b65c9bull},
                 "1-core pythia snapshot");

    harness::SimSession four({.mix = {"470.lbm-164B", "429.mcf-184B",
                                      "Ligra-CC", "462.libquantum-1343B"},
                              .prefetcher = "spp",
                              .num_cores = 4,
                              .warmup_instrs = 2'000,
                              .sim_instrs = 6'000});
    four.runWarmup();
    four.advance(2'000); // the session section then holds real results
    expectPinned(four.snapshotBytes(), {4245525, 0x55c719c343def8d1ull},
                 "4-core spp snapshot");
}

} // namespace
} // namespace pythia
