/**
 * @file
 * Tests of the prefetch-as-a-service layer (DESIGN.md §12): the
 * pythia-serve-v1 wire codec, the StreamWorkload contract, and the
 * ServeServer/ServeClient pair over real sockets.
 *
 * The load-bearing claim is the serving determinism rule: the kWindow
 * stream a tenant receives is bit-identical to running the same spec
 * offline through SimSession with the same window size — for every
 * suite workload × {pythia, spp, stride}, under concurrent tenants,
 * under both backpressure caps, and across evict/restore cycles
 * (explicit detach, abrupt disconnect, daemon restart, idle timeout,
 * SIGTERM drain). The adversarial half covers malformed frames,
 * oversized frames, busy tenants, rejected specs and resume-state
 * mismatches: every failure is a typed kError, never a wrong result.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/transport.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "harness/timeseries.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/stream_workload.hpp"
#include "service/warm_pool.hpp"
#include "service/wire.hpp"
#include "snapshot/codec.hpp"
#include "workloads/suites.hpp"
#include "workloads/trace.hpp"

namespace pythia::service {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using transport::FlushResult;
using transport::FrameError;
using transport::FrameReader;
using transport::kMaxFramePayload;
using transport::OutboxRing;
using transport::readFrame;
using transport::writeFrame;

// --------------------------------------------------------------- helpers

harness::ExperimentSpec
makeSpec(const std::string& workload, const std::string& prefetcher,
         std::uint64_t warmup = 2000, std::uint64_t sim = 6000)
{
    harness::ExperimentSpec spec;
    spec.workload = workload;
    spec.prefetcher = prefetcher;
    spec.warmup_instrs = warmup;
    spec.sim_instrs = sim;
    return spec;
}

/** The records the offline run would consume — same seeded generator. */
std::vector<wl::TraceRecord>
captureRecords(const harness::ExperimentSpec& spec)
{
    auto workloads = harness::workloadsFor(spec);
    const std::uint64_t n = recordBudgetFor(spec);
    std::vector<wl::TraceRecord> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out.push_back(workloads[0]->next());
    return out;
}

struct OfflineRun
{
    harness::TimeSeries series;
    sim::RunResult final_result;
};

OfflineRun
runOffline(const harness::ExperimentSpec& spec, std::uint64_t window)
{
    OfflineRun run;
    harness::SimSession session(spec);
    session.addObserver(&run.series);
    while (!session.done())
        session.advance(window);
    run.final_result = session.cumulative();
    return run;
}

std::vector<std::uint8_t>
sampleBits(const harness::WindowSample& s)
{
    snap::Writer w;
    harness::writeWindowSample(w, s);
    return w.buffer();
}

std::vector<std::uint8_t>
resultBits(const sim::RunResult& r)
{
    snap::Writer w;
    harness::writeRunResult(w, r);
    return w.buffer();
}

std::vector<std::uint8_t>
specBits(const harness::ExperimentSpec& s)
{
    snap::Writer w;
    harness::writeSpec(w, s);
    return w.buffer();
}

/** Bit-exact window-by-window comparison (the determinism rule). */
void
expectSeriesEqual(const std::vector<harness::WindowSample>& got,
                  const std::vector<harness::WindowSample>& want,
                  const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(sampleBits(got[i]), sampleBits(want[i]))
            << what << ": window " << i << " diverges";
}

/** Instructions covered by records[0..k): each record retires gap+1. */
std::uint64_t
instrsCovered(const std::vector<wl::TraceRecord>& records,
              std::uint64_t k)
{
    std::uint64_t instrs = 0;
    for (std::uint64_t i = 0; i < k && i < records.size(); ++i)
        instrs += records[i].gap + 1;
    return instrs;
}

/** Smallest record count covering at least @p target instructions. */
std::uint64_t
recordsForInstrs(const std::vector<wl::TraceRecord>& records,
                 std::uint64_t target)
{
    std::uint64_t instrs = 0;
    for (std::uint64_t i = 0; i < records.size(); ++i) {
        instrs += records[i].gap + 1;
        if (instrs >= target)
            return i + 1;
    }
    return records.size();
}

/**
 * A record prefix that guarantees a MID-RUN session: enough records
 * for the pre-warmup gate to release the first window, but covering
 * only about half the sim budget, so the pump must starve long before
 * the run can complete. Tests assert the guarantee (instrsCovered
 * strictly below the budget) so a generator gap-profile change fails
 * loudly instead of silently turning eviction tests into no-ops.
 */
std::uint64_t
midRunPrefix(const harness::ExperimentSpec& spec,
             const std::vector<wl::TraceRecord>& records,
             std::uint64_t window)
{
    const std::uint64_t gate1 =
        spec.warmup_instrs + window + kGateSlack + 256;
    const std::uint64_t half = recordsForInstrs(
        records, spec.warmup_instrs + spec.sim_instrs / 2);
    return std::max(gate1, half);
}

/**
 * Every received window must equal the offline window with the same
 * index, bit for bit. @p require_all additionally demands the union
 * covers every offline window exactly once (clean-handoff paths: an
 * explicit detach or a drain loses nothing).
 */
void
expectWindowsMatchOffline(
    const std::vector<std::vector<harness::WindowSample>>& parts,
    const OfflineRun& off, bool require_all, const std::string& what)
{
    std::vector<int> seen(off.series.size(), 0);
    for (const auto& part : parts)
        for (const auto& s : part) {
            ASSERT_LT(s.index, off.series.size())
                << what << ": window index out of range";
            EXPECT_EQ(sampleBits(s), sampleBits(off.series[s.index]))
                << what << ": window " << s.index << " diverges";
            ++seen[s.index];
        }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_LE(seen[i], 1)
            << what << ": window " << i << " delivered twice";
        if (require_all) {
            EXPECT_EQ(seen[i], 1)
                << what << ": window " << i << " never delivered";
        }
    }
}

bool
waitFor(const std::function<bool()>& pred, std::chrono::milliseconds max)
{
    const auto deadline = std::chrono::steady_clock::now() + max;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(10ms);
    }
    return pred();
}

/** A Hello whose mix count claims 2^62 entries in a body of a few
 *  bytes: the decoder must bound it by the bytes left, not hand it to
 *  reserve(). */
std::vector<std::uint8_t>
hostileMixHello()
{
    snap::Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::kHello));
    w.str(kServeSchemaName);
    w.u32(kServeVersion);
    w.str("hostile-mix");
    w.str("470.lbm-164B");         // ExperimentSpec::workload
    w.u64(std::uint64_t{1} << 62); // ExperimentSpec::mix count
    return w.buffer();
}

/** An Access frame whose record count n = 21^-1 mod 2^64 makes
 *  n * 21 wrap to exactly its 1-byte body. */
std::vector<std::uint8_t>
hostileAccess()
{
    snap::Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::kAccess));
    w.u64(0xcf3cf3cf3cf3cf3dull);
    w.u8(0);
    return w.buffer();
}

/** Fresh per-test scratch dir; servers bind ephemeral loopback ports. */
class ServiceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::path("service_test_scratch") /
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

    ServeOptions baseOptions() const
    {
        ServeOptions opt;
        opt.tcp_port = 0; // ephemeral
        opt.workers = 4;
        opt.state_dir = (dir_ / "state").string();
        return opt;
    }

    /** Evicted-state snapshot path for @p tenant (server layout). */
    std::string snapPath(const std::string& tenant) const
    {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          snap::fnv1a(tenant)));
        return (dir_ / "state" / ("tenant-" + std::string(hex) + ".snap"))
            .string();
    }

    fs::path dir_;
};

// ------------------------------------------------------------ wire codec

TEST_F(ServiceTest, WireHelloRoundTrip)
{
    HelloMsg m;
    m.tenant = "tenant-a";
    m.spec = makeSpec("470.lbm-164B", "pythia");
    m.window_instrs = 1234;
    const HelloMsg got = decodeHello(encodeHello(m));
    EXPECT_EQ(got.tenant, m.tenant);
    EXPECT_EQ(got.window_instrs, m.window_instrs);
    EXPECT_EQ(specBits(got.spec), specBits(m.spec));

    HelloAckMsg a;
    a.resumed = true;
    a.warm = true;
    a.instrs_advanced = 4000;
    a.windows_completed = 2;
    a.records_received = 5524;
    a.records_consumed = 4100;
    const HelloAckMsg ga = decodeHelloAck(encodeHelloAck(a));
    EXPECT_EQ(ga.resumed, a.resumed);
    EXPECT_EQ(ga.warm, a.warm);
    EXPECT_EQ(ga.instrs_advanced, a.instrs_advanced);
    EXPECT_EQ(ga.windows_completed, a.windows_completed);
    EXPECT_EQ(ga.records_received, a.records_received);
    EXPECT_EQ(ga.records_consumed, a.records_consumed);
}

TEST_F(ServiceTest, WireWindowAndRunEndRoundTripBitExact)
{
    // Real samples from a real (tiny) run, not synthetic field values.
    const auto spec = makeSpec("470.lbm-164B", "stride", 500, 1500);
    const OfflineRun off = runOffline(spec, 500);
    ASSERT_GE(off.series.size(), 2u);

    WindowMsg wm;
    wm.window = off.series[1];
    wm.records_consumed = 777;
    const WindowMsg gw = decodeWindow(encodeWindow(wm));
    EXPECT_EQ(sampleBits(gw.window), sampleBits(wm.window));
    EXPECT_EQ(gw.records_consumed, wm.records_consumed);

    RunEndMsg rm;
    rm.final_result = off.final_result;
    rm.windows_completed = off.series.size();
    rm.records_consumed = 2024;
    const RunEndMsg gr = decodeRunEnd(encodeRunEnd(rm));
    EXPECT_EQ(resultBits(gr.final_result), resultBits(rm.final_result));
    EXPECT_EQ(gr.windows_completed, rm.windows_completed);
    EXPECT_EQ(gr.records_consumed, rm.records_consumed);

    DetachAckMsg dm;
    dm.records_received = 10;
    dm.instrs_advanced = 20;
    dm.windows_completed = 30;
    const DetachAckMsg gd = decodeDetachAck(encodeDetachAck(dm));
    EXPECT_EQ(gd.records_received, dm.records_received);
    EXPECT_EQ(gd.instrs_advanced, dm.instrs_advanced);
    EXPECT_EQ(gd.windows_completed, dm.windows_completed);

    EXPECT_EQ(decodeStatsAck(encodeStatsAck("{\"x\": 1}")), "{\"x\": 1}");

    const ErrorMsg ge = decodeError(encodeError(kErrBusy, "busy"));
    EXPECT_EQ(ge.kind, kErrBusy);
    EXPECT_EQ(ge.message, "busy");
}

TEST_F(ServiceTest, WireAccessRoundTripPreservesFlags)
{
    const auto spec = makeSpec("429.mcf-184B", "none", 1000, 4000);
    const auto records = captureRecords(spec);
    ASSERT_GE(records.size(), 2000u);
    const std::vector<wl::TraceRecord> batch(records.begin(),
                                             records.begin() + 2000);
    const auto got = decodeAccess(encodeAccess(batch.data(), batch.size()));
    ASSERT_EQ(got.size(), batch.size());
    bool saw_write = false, saw_dep = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(got[i].pc, batch[i].pc);
        EXPECT_EQ(got[i].addr, batch[i].addr);
        EXPECT_EQ(got[i].gap, batch[i].gap);
        EXPECT_EQ(got[i].is_write, batch[i].is_write);
        EXPECT_EQ(got[i].depends_on_prev, batch[i].depends_on_prev);
        saw_write |= batch[i].is_write;
        saw_dep |= batch[i].depends_on_prev;
    }
    // A flag-free batch would vacuously pass; make sure both bits
    // actually travelled.
    EXPECT_TRUE(saw_write);
    EXPECT_TRUE(saw_dep);
}

TEST_F(ServiceTest, WireRejectsMalformedFrames)
{
    EXPECT_THROW(frameType({}), ServeWireError);
    EXPECT_THROW(frameType({0x63}), ServeWireError);

    HelloMsg m;
    m.tenant = "t";
    m.spec = makeSpec("470.lbm-164B", "pythia");
    m.window_instrs = 100;
    auto hello = encodeHello(m);

    // Wrong frame type for the decoder.
    EXPECT_THROW(decodeHelloAck(hello), ServeWireError);
    // Truncated payload.
    auto truncated = hello;
    truncated.pop_back();
    EXPECT_THROW(decodeHello(truncated), ServeWireError);
    // Trailing garbage.
    auto trailing = hello;
    trailing.push_back(0);
    EXPECT_THROW(decodeHello(trailing), ServeWireError);
    // window_instrs=0 is meaningless.
    HelloMsg zero = m;
    zero.window_instrs = 0;
    EXPECT_THROW(decodeHello(encodeHello(zero)), ServeWireError);
    // Unknown access-record flag bits must be rejected, not ignored —
    // they are the protocol's forward-compat escape hatch.
    wl::TraceRecord rec;
    auto access = encodeAccess(&rec, 1);
    access.back() |= 0x80;
    EXPECT_THROW(decodeAccess(access), ServeWireError);
    // Hostile element counts are malformed frames, not allocation
    // requests.
    EXPECT_THROW(decodeHello(hostileMixHello()), ServeWireError);
    EXPECT_THROW(decodeAccess(hostileAccess()), ServeWireError);

    // Framing: zero and oversized length prefixes are hostile input.
    // Each reader gets its bytes through a pipe, as from a socket.
    const auto readerOver = [](const std::vector<std::uint8_t>& bytes,
                               FrameReader& reader) {
        int p[2];
        ASSERT_EQ(::pipe(p), 0);
        ASSERT_EQ(::write(p[1], bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
        EXPECT_TRUE(reader.fill(p[0]));
        ::close(p[0]);
        ::close(p[1]);
    };
    FrameReader empty;
    readerOver({0, 0, 0, 0}, empty);
    EXPECT_THROW(empty.next(), FrameError);
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::vector<std::uint8_t> buf;
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
    FrameReader oversized;
    readerOver(buf, oversized);
    EXPECT_THROW(oversized.next(), FrameError);
    // A partial frame is not an error — it is "keep reading".
    FrameReader partial;
    readerOver({5, 0, 0, 0, 1, 2}, partial);
    EXPECT_FALSE(partial.next().has_value());
    EXPECT_EQ(partial.buffered(), 6u);
    // The rest of it completes the frame.
    readerOver({3, 4, 5}, partial);
    const auto whole = partial.next();
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(*whole, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(partial.buffered(), 0u);
}

// --------------------------------------------------------- StreamWorkload

TEST_F(ServiceTest, StreamWorkloadRetainsHistoryAndThrowsOnUnderrun)
{
    StreamWorkload s("t");
    EXPECT_THROW(s.next(), StreamUnderrunError);

    const auto spec = makeSpec("602.gcc_s-734B", "none", 100, 400);
    const auto records = captureRecords(spec);
    s.append({records.begin(), records.begin() + 10});
    for (int i = 0; i < 10; ++i)
        s.next();
    EXPECT_EQ(s.consumed(), 10u);
    EXPECT_EQ(s.available(), 0u);
    EXPECT_THROW(s.next(), StreamUnderrunError);

    // Appending more resumes exactly where the stream stopped.
    s.append({records.begin() + 10, records.begin() + 20});
    EXPECT_EQ(s.next().addr, records[10].addr);

    // reset() replays from record zero (the snapshot-restore path).
    s.reset();
    EXPECT_EQ(s.consumed(), 0u);
    EXPECT_EQ(s.next().addr, records[0].addr);

    // clone() keeps the full history, not the cursor.
    auto c = s.clone(0);
    EXPECT_EQ(c->next().addr, records[0].addr);
}

TEST_F(ServiceTest, TraceRecordVectorFileRoundTrip)
{
    const auto spec = makeSpec("Cloudsuite-Cassandra", "none", 100, 400);
    const auto records = captureRecords(spec);
    const std::vector<wl::TraceRecord> sub(records.begin(),
                                           records.begin() + 200);
    const std::string path = (dir_ / "roundtrip.trace").string();
    ASSERT_TRUE(wl::writeTraceFile(path, sub));
    const auto got = wl::readTraceFile(path);
    ASSERT_EQ(got.size(), sub.size());
    for (std::size_t i = 0; i < sub.size(); ++i) {
        EXPECT_EQ(got[i].pc, sub[i].pc);
        EXPECT_EQ(got[i].addr, sub[i].addr);
        EXPECT_EQ(got[i].gap, sub[i].gap);
        EXPECT_EQ(got[i].is_write, sub[i].is_write);
        EXPECT_EQ(got[i].depends_on_prev, sub[i].depends_on_prev);
    }

    // An empty history is a valid evicted state (tenant detached
    // before streaming anything).
    const std::string empty_path = (dir_ / "empty.trace").string();
    ASSERT_TRUE(wl::writeTraceFile(empty_path, {}));
    EXPECT_TRUE(wl::readTraceFile(empty_path).empty());

    // Truncation fails loudly.
    fs::resize_file(path, fs::file_size(path) - 7);
    EXPECT_THROW(wl::readTraceFile(path), std::runtime_error);
}

// ------------------------------------------------- serving determinism

TEST_F(ServiceTest, ServingMatchesOfflineEverySuiteWorkloadAndPrefetcher)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 1000;

    struct Case
    {
        std::string workload;
        std::string prefetcher;
    };
    std::vector<Case> cases;
    for (const auto& w : wl::allWorkloads())
        for (const char* pf : {"pythia", "spp", "stride"})
            cases.push_back({w.name, pf});

    // gtest assertions are not thread-safe: collect failures and
    // assert from the main thread.
    std::mutex fail_mu;
    std::vector<std::string> failures;
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= cases.size())
                return;
            const Case& c = cases[i];
            const std::string what = c.workload + " × " + c.prefetcher;
            try {
                const auto spec =
                    makeSpec(c.workload, c.prefetcher, 1000, 4000);
                const auto records = captureRecords(spec);
                const OfflineRun off = runOffline(spec, kWindow);

                ServeClient client(addr);
                client.open("sweep-" + std::to_string(i), spec, kWindow);
                const auto progress = client.streamRun(records);

                std::string err;
                if (!progress.final_result)
                    err = "no final result";
                else if (resultBits(*progress.final_result) !=
                         resultBits(off.final_result))
                    err = "final RunResult diverges";
                else if (progress.series.size() != off.series.size())
                    err = "window count diverges";
                else
                    for (std::size_t k = 0; k < off.series.size(); ++k)
                        if (sampleBits(progress.series[k]) !=
                            sampleBits(off.series[k])) {
                            err = "window " + std::to_string(k) +
                                  " diverges";
                            break;
                        }
                if (!err.empty()) {
                    std::lock_guard<std::mutex> lk(fail_mu);
                    failures.push_back(what + ": " + err);
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lk(fail_mu);
                failures.push_back(what + ": threw " + e.what());
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back(worker);
    for (auto& t : threads)
        t.join();

    std::string joined;
    for (const auto& f : failures)
        joined += "\n  " + f;
    EXPECT_TRUE(failures.empty())
        << failures.size() << "/" << cases.size()
        << " serving-determinism cases failed:" << joined;
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, ConcurrentTenantsIsolated)
{
    // 8 tenants with DIFFERENT specs live on the daemon at once; each
    // must see exactly its own offline series (no cross-tenant bleed).
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const std::vector<std::string> workloads = {
        "470.lbm-164B", "602.gcc_s-734B", "Ligra-PageRank",
        "Cloudsuite-Cassandra"};

    std::mutex fail_mu;
    std::vector<std::string> failures;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            const std::string wlname = workloads[t % workloads.size()];
            const std::string pf = (t % 2) ? "pythia" : "spp";
            try {
                const auto spec = makeSpec(wlname, pf);
                const auto records = captureRecords(spec);
                const OfflineRun off = runOffline(spec, kWindow);
                ServeClient client(addr);
                client.open("tenant-" + std::to_string(t), spec,
                            kWindow);
                const auto progress = client.streamRun(records);
                if (!progress.final_result ||
                    resultBits(*progress.final_result) !=
                        resultBits(off.final_result) ||
                    progress.series.size() != off.series.size()) {
                    std::lock_guard<std::mutex> lk(fail_mu);
                    failures.push_back("tenant " + std::to_string(t) +
                                       " diverged");
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lk(fail_mu);
                failures.push_back("tenant " + std::to_string(t) +
                                   " threw: " + e.what());
            }
        });
    }
    for (auto& th : threads)
        th.join();
    std::string joined;
    for (const auto& f : failures)
        joined += "\n  " + f;
    EXPECT_TRUE(failures.empty()) << joined;

    const auto s = server.stats();
    EXPECT_GE(s.sessions_opened, 8u);
    EXPECT_GE(s.runs_completed, 8u);
    EXPECT_EQ(server.stop(), 0);
}

// ------------------------------------------------------- evict/restore

TEST_F(ServiceTest, DetachEvictRestoreMidStreamMatchesOffline)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "pythia", 2000, 60000);
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);
    ASSERT_EQ(off.series.size(), 30u);

    // Phase 1: stream a prefix that cannot finish the run, collect the
    // first window, then detach. Windows the pump completed between
    // our stop and the detach ack arrive as strays — a clean handoff
    // loses none of them.
    const std::uint64_t prefix = midRunPrefix(spec, records, kWindow);
    ASSERT_LT(instrsCovered(records, prefix),
              spec.warmup_instrs + spec.sim_instrs - 2 * kWindow)
        << "prefix can complete the run; eviction test is vacuous";
    const std::vector<wl::TraceRecord> part1(records.begin(),
                                             records.begin() + prefix);
    ServeClient client1(addr);
    client1.open("evictee", spec, kWindow);
    const auto progress1 = client1.streamRun(part1, 0, 1);
    ASSERT_GE(progress1.series.size(), 1u);
    EXPECT_FALSE(progress1.final_result.has_value());
    harness::TimeSeries strays;
    const DetachAckMsg ack = client1.detach(&strays);
    EXPECT_GE(ack.windows_completed, 1u);
    EXPECT_LT(ack.windows_completed, off.series.size());
    EXPECT_EQ(ack.windows_completed,
              progress1.series.size() + strays.size());
    client1.close();
    EXPECT_TRUE(fs::exists(snapPath("evictee")));

    // Phase 2: reconnect — transparent restore — and finish the run.
    ServeClient client2(addr);
    const HelloAckMsg hello = client2.open("evictee", spec, kWindow);
    EXPECT_TRUE(hello.resumed);
    EXPECT_EQ(hello.windows_completed, ack.windows_completed);
    EXPECT_EQ(hello.records_received, ack.records_received);
    const auto progress2 =
        client2.streamRun(records, hello.records_received);
    ASSERT_TRUE(progress2.final_result.has_value());
    EXPECT_EQ(progress2.windows_completed, off.series.size());

    // The stitched stream must be bit-identical to offline, with every
    // window delivered exactly once.
    expectWindowsMatchOffline({progress1.series.samples(),
                               strays.samples(),
                               progress2.series.samples()},
                              off, true, "evict/restore");
    EXPECT_EQ(resultBits(*progress2.final_result),
              resultBits(off.final_result));

    // Completion removes the evicted state.
    EXPECT_FALSE(fs::exists(snapPath("evictee")));
    const auto s = server.stats();
    EXPECT_EQ(s.sessions_resumed, 1u);
    EXPECT_GE(s.sessions_evicted, 1u);
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, AbruptDisconnectEvictsAndResumeMatchesOffline)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("602.gcc_s-734B", "spp", 2000, 60000);
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);

    const std::uint64_t prefix = midRunPrefix(spec, records, kWindow);
    ASSERT_LT(instrsCovered(records, prefix),
              spec.warmup_instrs + spec.sim_instrs - 2 * kWindow);
    const std::vector<wl::TraceRecord> part1(records.begin(),
                                             records.begin() + prefix);
    ServeClient client1(addr);
    client1.open("dropper", spec, kWindow);
    const auto progress1 = client1.streamRun(part1, 0, 1);
    ASSERT_GE(progress1.series.size(), 1u);
    client1.close(); // no detach: the daemon must evict on its own

    ASSERT_TRUE(waitFor([&] { return fs::exists(snapPath("dropper")); },
                        5s))
        << "daemon did not evict the dropped tenant";

    ServeClient client2(addr);
    const HelloAckMsg hello = client2.open("dropper", spec, kWindow);
    EXPECT_TRUE(hello.resumed);
    EXPECT_GE(hello.windows_completed, 1u);
    const auto progress2 =
        client2.streamRun(records, hello.records_received);
    ASSERT_TRUE(progress2.final_result.has_value());

    // Windows the daemon emitted after we hung up are lost with the
    // connection (they were staged for a dead socket); the resumed
    // stream covers everything from the eviction point on, and every
    // window anybody received is bit-identical to offline.
    EXPECT_EQ(progress2.series.size(),
              off.series.size() - hello.windows_completed);
    expectWindowsMatchOffline({progress1.series.samples(),
                               progress2.series.samples()},
                              off, false, "abrupt-disconnect resume");
    EXPECT_EQ(resultBits(*progress2.final_result),
              resultBits(off.final_result));
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, DaemonRestartResumesFromStateDir)
{
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("Ligra-PageRank", "pythia", 2000, 60000);
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);
    const std::uint64_t prefix = midRunPrefix(spec, records, kWindow);
    ASSERT_LT(instrsCovered(records, prefix),
              spec.warmup_instrs + spec.sim_instrs - 2 * kWindow);

    harness::TimeSeries part1;
    std::uint64_t resume_from = 0;
    {
        ServeServer server(baseOptions());
        server.start();
        ServeClient client(server.boundAddress());
        client.open("survivor", spec, kWindow);
        const auto progress = client.streamRun(
            {records.begin(), records.begin() + prefix}, 0, 1);
        for (const auto& w : progress.series.samples())
            part1.append(w);
        harness::TimeSeries strays;
        const DetachAckMsg ack = client.detach(&strays);
        for (const auto& w : strays.samples())
            part1.append(w);
        resume_from = ack.records_received;
        EXPECT_EQ(server.stop(), 0); // whole process goes away
    }
    ASSERT_TRUE(fs::exists(snapPath("survivor")));

    // A brand-new daemon over the same state_dir picks the tenant up.
    ServeServer server2(baseOptions());
    server2.start();
    ServeClient client2(server2.boundAddress());
    const HelloAckMsg hello = client2.open("survivor", spec, kWindow);
    EXPECT_TRUE(hello.resumed);
    EXPECT_EQ(hello.records_received, resume_from);
    const auto progress2 =
        client2.streamRun(records, hello.records_received);
    ASSERT_TRUE(progress2.final_result.has_value());

    expectWindowsMatchOffline({part1.samples(),
                               progress2.series.samples()},
                              off, true, "daemon-restart resume");
    EXPECT_EQ(resultBits(*progress2.final_result),
              resultBits(off.final_result));
    EXPECT_EQ(server2.stop(), 0);
}

TEST_F(ServiceTest, IdleSessionEvictedAndRestoredOnReconnect)
{
    auto opt = baseOptions();
    opt.idle_evict_ms = 150;
    ServeServer server(opt);
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec =
        makeSpec("Cloudsuite-Cassandra", "stride", 2000, 60000);
    const auto records = captureRecords(spec);
    const std::uint64_t prefix = midRunPrefix(spec, records, kWindow);
    ASSERT_LT(instrsCovered(records, prefix),
              spec.warmup_instrs + spec.sim_instrs - 2 * kWindow);

    ServeClient client1(addr);
    client1.open("sleeper", spec, kWindow);
    const auto progress1 = client1.streamRun(
        {records.begin(), records.begin() + prefix}, 0, 1);
    ASSERT_GE(progress1.series.size(), 1u);

    // Go quiet; the daemon must snapshot and hang up on its own.
    ASSERT_TRUE(waitFor([&] { return fs::exists(snapPath("sleeper")); },
                        5s))
        << "idle tenant was never evicted";

    ServeClient client2(addr);
    const HelloAckMsg hello = client2.open("sleeper", spec, kWindow);
    EXPECT_TRUE(hello.resumed);
    // The daemon pumps as far as the gate allows from the records the
    // client pushed before going quiet, so it may be several windows
    // ahead of the one the client actually read.
    EXPECT_GE(hello.windows_completed, 1u);
    const auto progress2 =
        client2.streamRun(records, hello.records_received);
    EXPECT_TRUE(progress2.final_result.has_value());
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, DrainEvictsLiveSessionsAndExitsZero)
{
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "spp", 2000, 60000);
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);
    const std::uint64_t prefix = midRunPrefix(spec, records, kWindow);
    ASSERT_LT(instrsCovered(records, prefix),
              spec.warmup_instrs + spec.sim_instrs - 2 * kWindow);

    ServeServer server(baseOptions());
    server.start();
    ServeClient client1(server.boundAddress());
    client1.open("drained", spec, kWindow);
    const auto progress1 = client1.streamRun(
        {records.begin(), records.begin() + prefix}, 0, 1);
    ASSERT_GE(progress1.series.size(), 1u);

    // SIGTERM path: requestDrain() is exactly what the signal handler
    // calls. The daemon must evict the live mid-run session and exit 0.
    server.requestDrain();
    EXPECT_EQ(server.join(), 0);
    EXPECT_TRUE(fs::exists(snapPath("drained")));

    ServeServer server2(baseOptions());
    server2.start();
    ServeClient client2(server2.boundAddress());
    const HelloAckMsg hello = client2.open("drained", spec, kWindow);
    EXPECT_TRUE(hello.resumed);
    EXPECT_GE(hello.windows_completed, 1u);
    const auto progress2 =
        client2.streamRun(records, hello.records_received);
    ASSERT_TRUE(progress2.final_result.has_value());

    // Windows emitted between our stop and the drain may not have been
    // read before the daemon exited; everything received must still be
    // bit-identical to offline, and the resume covers the tail.
    EXPECT_EQ(progress2.series.size(),
              off.series.size() - hello.windows_completed);
    expectWindowsMatchOffline({progress1.series.samples(),
                               progress2.series.samples()},
                              off, false, "drain resume");
    EXPECT_EQ(resultBits(*progress2.final_result),
              resultBits(off.final_result));
    EXPECT_EQ(server2.stop(), 0);
}

TEST_F(ServiceTest, ReopenAfterCompletionStartsFresh)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("602.gcc_s-734B", "stride");
    const auto records = captureRecords(spec);

    ServeClient client1(addr);
    client1.open("phoenix", spec, kWindow);
    const auto progress1 = client1.streamRun(records);
    ASSERT_TRUE(progress1.final_result.has_value());
    client1.close();

    // Completed runs leave no evicted state; the id opens fresh (the
    // busy-retry inside open() absorbs the disconnect race).
    ServeClient client2(addr);
    const HelloAckMsg hello = client2.open("phoenix", spec, kWindow);
    EXPECT_FALSE(hello.resumed);
    EXPECT_EQ(hello.records_received, 0u);
    EXPECT_EQ(hello.instrs_advanced, 0u);
    const auto progress2 = client2.streamRun(records);
    ASSERT_TRUE(progress2.final_result.has_value());
    EXPECT_EQ(resultBits(*progress2.final_result),
              resultBits(*progress1.final_result));
    EXPECT_EQ(server.stop(), 0);
}

// ------------------------------------------------------- resource caps

TEST_F(ServiceTest, InflightCapBackpressureKeepsResultsExact)
{
    auto opt = baseOptions();
    // Small enough to force pause/resume cycles over the ~9k-record
    // budget, large enough for the gate (warmup + window + slack) to
    // ever be satisfiable.
    opt.max_inflight_records = 6144;
    ServeServer server(opt);
    server.start();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "pythia");
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);

    ServeClient client(server.boundAddress());
    client.open("pressured", spec, kWindow);
    const auto progress = client.streamRun(records);
    ASSERT_TRUE(progress.final_result.has_value());
    expectSeriesEqual(progress.series.samples(), off.series.samples(),
                      "inflight backpressure");
    EXPECT_EQ(resultBits(*progress.final_result),
              resultBits(off.final_result));
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, TinyOutboxThrottleKeepsResultsExact)
{
    auto opt = baseOptions();
    // Smaller than one encoded kWindow frame: the pump throttles after
    // every window and must be rescheduled by the loop each time.
    opt.max_outbox_bytes = 256;
    ServeServer server(opt);
    server.start();
    constexpr std::uint64_t kWindow = 500; // 12 throttle cycles
    const auto spec = makeSpec("Ligra-BFS", "spp");
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);

    ServeClient client(server.boundAddress());
    client.open("throttled", spec, kWindow);
    const auto progress = client.streamRun(records);
    ASSERT_TRUE(progress.final_result.has_value());
    expectSeriesEqual(progress.series.samples(), off.series.samples(),
                      "outbox throttle");
    EXPECT_EQ(resultBits(*progress.final_result),
              resultBits(off.final_result));
    EXPECT_EQ(server.stop(), 0);
}

// ------------------------------------------------------ typed failures

TEST_F(ServiceTest, BadServeAddressesFailBeforeAnyConnect)
{
    // A bare loopback listener stands in for the daemon: an address
    // whose port wraps or truncates onto it must still never reach it.
    const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    ASSERT_EQ(::listen(lfd, 8), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(
        ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const unsigned port = ntohs(addr.sin_port);
    const std::string p = std::to_string(port);
    const std::string wrapped = std::to_string(port + 65536);

    for (const std::string& bad : std::vector<std::string>{
             "tcp:127.0.0.1:" + wrapped, "tcp:127.0.0.1:" + p + "abc",
             "tcp:" + wrapped, "tcp:127.0.0.1:", "tcp:127.0.0.1:-1",
             "tcp:10.0.0.1:" + p, "tcp:example.com:" + p, "tcp:",
             "udp:" + p, p}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parseServeAddress(bad), ServeError);
        EXPECT_THROW(connectToServe(bad), ServeError);
        ServeClient client(bad);
        EXPECT_THROW(client.stats(), ServeError);
    }
    EXPECT_LT(::accept(lfd, nullptr, nullptr), 0)
        << "a bad address reached the listener";

    // Every form valid before still parses.
    ServeAddress a = parseServeAddress("unix:/tmp/pythia.sock");
    EXPECT_TRUE(a.is_unix);
    EXPECT_EQ(a.unix_path, "/tmp/pythia.sock");
    a = parseServeAddress("tcp:0");
    EXPECT_FALSE(a.is_unix);
    EXPECT_EQ(a.tcp_port, 0u);
    EXPECT_EQ(parseServeAddress("tcp:localhost:65535").tcp_port, 65535u);
    EXPECT_EQ(parseServeAddress("tcp:127.0.0.1:" + p).tcp_port, port);
    const int fd = connectToServe("tcp:127.0.0.1:" + p);
    EXPECT_GE(fd, 0);
    ::close(fd);
    ::close(lfd);
}

TEST_F(ServiceTest, SecondHelloForLiveTenantIsBusy)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "stride", 2000, 60000);
    const auto records = captureRecords(spec);
    const std::uint64_t prefix = midRunPrefix(spec, records, kWindow);

    ServeClient client(addr);
    client.open("hog", spec, kWindow);
    client.streamRun({records.begin(), records.begin() + prefix}, 0, 1);

    // Raw wire: a second hello must get a typed kErrBusy, immediately
    // (ServeClient::open would hide it behind the retry loop).
    const int fd = connectToServe(addr);
    HelloMsg m;
    m.tenant = "hog";
    m.spec = spec;
    m.window_instrs = kWindow;
    writeFrame(fd, encodeHello(m));
    const auto frame = readFrame(fd);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frameType(*frame), FrameType::kError);
    EXPECT_EQ(decodeError(*frame).kind, kErrBusy);
    EXPECT_FALSE(readFrame(fd).has_value()) << "expected EOF after kError";
    ::close(fd);

    client.detach();
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, MultiCoreSpecRejectedTyped)
{
    ServeServer server(baseOptions());
    server.start();
    auto spec = makeSpec("470.lbm-164B", "pythia");
    spec.num_cores = 2;
    ServeClient client(server.boundAddress());
    try {
        client.open("multicore", spec, 2000);
        FAIL() << "multi-core spec was accepted";
    } catch (const ServeRemoteError& e) {
        EXPECT_EQ(e.kind(), kErrSpec);
    }
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, MalformedPrefetcherParamsGetSpecErrorNeighbourUnharmed)
{
    // One worker: a tenant whose prefetcher would crash on construction
    // must cost only its own open (a typed kErrSpec), never the daemon
    // and the tenant sharing it.
    ServeOptions opt = baseOptions();
    opt.workers = 1;
    ServeServer server(opt);
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "pythia", 2000, 30000);
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);

    ServeClient neighbour(addr);
    neighbour.open("neighbour", spec, kWindow);
    ServeClient::RunProgress progress;
    std::string neighbour_error;
    std::thread streamer([&] {
        try {
            progress = neighbour.streamRun(records);
        } catch (const std::exception& e) {
            neighbour_error = e.what();
        }
    });

    for (const char* bad :
         {"pythia:degree=0", "pythia:planes=0", "pythia:planes=9",
          "pythia:eq_size=0", "pythia:plane_index_bits=32",
          "bingo:at_entries=0", "bingo:pht_sets=0", "dspatch:spt_entries=0",
          "spp:pt_ways=0", "spp_ppf:spp_st_entries=0", "stride:entries=0",
          "streamer:streams=0", "ipcp:cspt_entries=0", "mlop:amt_entries=0",
          "cp_hw:table_entries=0"}) {
        ServeClient client(addr);
        try {
            client.open(std::string("bad-") + bad,
                        makeSpec("470.lbm-164B", bad), kWindow);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const ServeRemoteError& e) {
            EXPECT_EQ(e.kind(), kErrSpec) << bad;
        }
    }

    streamer.join();
    ASSERT_TRUE(neighbour_error.empty()) << neighbour_error;
    ASSERT_TRUE(progress.final_result.has_value());
    EXPECT_EQ(resultBits(*progress.final_result),
              resultBits(off.final_result));
    expectSeriesEqual(progress.series.samples(), off.series.samples(),
                      "neighbour of rejected specs");
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, ResumeWithDifferentSpecFailsTyped)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "pythia", 2000, 60000);
    const auto records = captureRecords(spec);
    const std::uint64_t prefix = midRunPrefix(spec, records, kWindow);
    ASSERT_LT(instrsCovered(records, prefix),
              spec.warmup_instrs + spec.sim_instrs - 2 * kWindow);

    ServeClient client1(addr);
    client1.open("turncoat", spec, kWindow);
    client1.streamRun({records.begin(), records.begin() + prefix}, 0, 1);
    client1.detach();
    ASSERT_TRUE(fs::exists(snapPath("turncoat")));

    // Same tenant id, different prefetcher: the snapshot fingerprint
    // must refuse the restore with a typed kErrResume — never silently
    // splice incompatible state.
    ServeClient client2(addr);
    try {
        client2.open("turncoat", makeSpec("470.lbm-164B", "spp"),
                     kWindow);
        FAIL() << "mismatched resume was accepted";
    } catch (const ServeRemoteError& e) {
        EXPECT_EQ(e.kind(), kErrResume);
    }
    EXPECT_EQ(server.stop(), 0);
}

/** The next frame on @p fd must be a typed kErrProtocol, then EOF. */
void
expectProtocolErrorAndClose(int fd, const std::string& what)
{
    const auto frame = readFrame(fd);
    ASSERT_TRUE(frame.has_value()) << what;
    ASSERT_EQ(frameType(*frame), FrameType::kError) << what;
    EXPECT_EQ(decodeError(*frame).kind, kErrProtocol) << what;
    EXPECT_FALSE(readFrame(fd).has_value())
        << what << ": expected EOF after kError";
}

TEST_F(ServiceTest, MalformedFirstFrameGetsProtocolErrorAndClose)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        hostile = {{"unknown frame type", {0x63}},
                   {"hello with huge mix count", hostileMixHello()}};
    for (const auto& [what, payload] : hostile) {
        const int fd = connectToServe(addr);
        writeFrame(fd, payload);
        expectProtocolErrorAndClose(fd, what);
        ::close(fd);
    }

    // An access frame whose record count wraps, after a valid hello.
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "pythia");
    {
        const int fd = connectToServe(addr);
        HelloMsg m;
        m.tenant = "wrapping-access";
        m.spec = spec;
        m.window_instrs = kWindow;
        writeFrame(fd, encodeHello(m));
        const auto ack = readFrame(fd);
        ASSERT_TRUE(ack.has_value());
        ASSERT_EQ(frameType(*ack), FrameType::kHelloAck);
        writeFrame(fd, hostileAccess());
        expectProtocolErrorAndClose(fd, "access with wrapping count");
        ::close(fd);
    }
    EXPECT_GE(server.stats().frames_rejected, hostile.size() + 1);

    // The daemon is still up and serves the next tenant bit-exactly.
    const OfflineRun off = runOffline(spec, kWindow);
    ServeClient client(addr);
    client.open("after-hostile", spec, kWindow);
    const auto progress = client.streamRun(captureRecords(spec));
    ASSERT_TRUE(progress.final_result.has_value());
    EXPECT_EQ(resultBits(*progress.final_result),
              resultBits(off.final_result));
    expectSeriesEqual(progress.series.samples(), off.series.samples(),
                      "after hostile frames");
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, OversizedFrameLengthRejected)
{
    ServeServer server(baseOptions());
    server.start();
    const int fd = connectToServe(server.boundAddress());
    // Hand-rolled hostile header: length beyond kMaxFramePayload. The
    // daemon must answer with a typed error and hang up, NOT allocate.
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::uint8_t header[4];
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    ASSERT_EQ(::write(fd, header, 4), 4);
    const auto frame = readFrame(fd);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frameType(*frame), FrameType::kError);
    EXPECT_EQ(decodeError(*frame).kind, kErrProtocol);
    EXPECT_FALSE(readFrame(fd).has_value()) << "expected EOF after kError";
    ::close(fd);
    EXPECT_EQ(server.stop(), 0);
}

// -------------------------------------------------------------- stats

TEST_F(ServiceTest, StatsEndpointAggregatesAcrossTenants)
{
    ServeServer server(baseOptions());
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "pythia");
    const auto records = captureRecords(spec);

    ServeClient client(addr);
    client.open("counted", spec, kWindow);
    const auto progress = client.streamRun(records);
    ASSERT_TRUE(progress.final_result.has_value());

    // The kStats endpoint works from a fresh connection, no hello.
    ServeClient probe(addr);
    const std::string json = probe.stats();
    EXPECT_NE(json.find("\"schema\": \"pythia-serve-stats-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"runs_completed\": 1"), std::string::npos);
    EXPECT_NE(json.find("pythia-timeseries-v1"), std::string::npos);

    const auto s = server.stats();
    EXPECT_EQ(s.sessions_opened, 1u);
    EXPECT_EQ(s.runs_completed, 1u);
    EXPECT_EQ(s.windows_emitted, progress.series.size());
    // The client stops streaming once the run ends, so the daemon saw
    // at most the full budget — and at least what the gate demanded.
    EXPECT_LE(s.records_received, records.size());
    EXPECT_GT(s.records_received, 0u);
    EXPECT_GE(s.connections_accepted, 2u);
    EXPECT_EQ(server.stop(), 0);
}

// ---------------------------------------------------------- outbox ring

TEST_F(ServiceTest, OutboxRingGatherResumesFromPartialOffset)
{
    // Frames small enough that a 7-byte consume step lands inside
    // headers as well as payloads — every partial-write resume point
    // the flush path can hit.
    OutboxRing ring;
    EXPECT_THROW(ring.push({}), FrameError); // empty frames are invalid
    std::vector<std::uint8_t> expected; // exact wire stream
    for (std::size_t f = 0; f < 64; ++f) {
        // Built by push_back: a sized vector filled by index trips a
        // gcc 12 -Wstringop-overflow false positive at -O3.
        std::vector<std::uint8_t> payload; // 1..6 bytes
        for (std::size_t i = 0; i <= f % 6; ++i)
            payload.push_back(static_cast<std::uint8_t>(f * 31 + i));
        const auto len = static_cast<std::uint32_t>(payload.size());
        for (int b = 0; b < 4; ++b)
            expected.push_back(
                static_cast<std::uint8_t>(len >> (8 * b)));
        expected.insert(expected.end(), payload.begin(), payload.end());
        ring.push(std::move(payload));
    }
    ASSERT_EQ(ring.bytes(), expected.size());
    ASSERT_EQ(ring.frames(), 64u);

    std::size_t off = 0;
    while (!ring.empty()) {
        struct iovec iov[4];
        const std::size_t n = ring.gather(iov, 4);
        ASSERT_GT(n, 0u);
        std::vector<std::uint8_t> flat;
        for (std::size_t i = 0; i < n; ++i)
            flat.insert(flat.end(),
                        static_cast<const std::uint8_t*>(iov[i].iov_base),
                        static_cast<const std::uint8_t*>(iov[i].iov_base) +
                            iov[i].iov_len);
        ASSERT_LE(flat.size(), expected.size() - off);
        EXPECT_TRUE(std::equal(flat.begin(), flat.end(),
                               expected.begin() + off))
            << "gather diverges from the wire stream at offset " << off;
        const std::size_t step = std::min<std::size_t>(7, ring.bytes());
        ring.consume(step);
        off += step;
        EXPECT_EQ(ring.bytes(), expected.size() - off);
    }
    EXPECT_EQ(off, expected.size());
    EXPECT_EQ(ring.frames(), 0u);
}

TEST_F(ServiceTest, OutboxRingShortWritesPreserveFramesAndByteCount)
{
    // Socket-pair harness from the issue: shrink SO_SNDBUF so
    // flushOutbox() hits EAGAIN/short-write repeatedly, then assert
    // the receiver sees the exact framed byte stream and that bytes()
    // dropped by precisely what the kernel accepted each call — the
    // accounting max_outbox_bytes backpressure relies on.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    int snd = 4096;
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &snd, sizeof snd);
    const int flags = ::fcntl(sv[0], F_GETFL, 0);
    ASSERT_EQ(::fcntl(sv[0], F_SETFL, flags | O_NONBLOCK), 0);

    OutboxRing ring;
    std::vector<std::uint8_t> expected;
    for (std::size_t f = 0; f < 512; ++f) {
        std::vector<std::uint8_t> payload(1 + (f * 37) % 900);
        for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = static_cast<std::uint8_t>(f + i);
        const auto len = static_cast<std::uint32_t>(payload.size());
        for (int b = 0; b < 4; ++b)
            expected.push_back(
                static_cast<std::uint8_t>(len >> (8 * b)));
        expected.insert(expected.end(), payload.begin(), payload.end());
        ring.push(std::move(payload));
    }
    ASSERT_EQ(ring.bytes(), expected.size());

    std::vector<std::uint8_t> received;
    auto drain = [&] {
        std::uint8_t buf[8192];
        ssize_t n;
        while ((n = ::recv(sv[1], buf, sizeof buf, MSG_DONTWAIT)) > 0)
            received.insert(received.end(), buf, buf + n);
    };

    bool blocked = false;
    std::size_t written = 0;
    while (!ring.empty()) {
        const std::size_t before = ring.bytes();
        const FlushResult r = flushOutbox(sv[0], ring);
        ASSERT_NE(r, FlushResult::kDead);
        written += before - ring.bytes();
        if (r == FlushResult::kBlocked) {
            blocked = true;
            drain();
        }
    }
    drain();
    ::close(sv[0]);
    ::close(sv[1]);

    EXPECT_TRUE(blocked)
        << "SO_SNDBUF shrink never forced a short write — harness is "
           "not exercising the partial-write path";
    EXPECT_EQ(written, expected.size());
    EXPECT_EQ(ring.bytes(), 0u);
    ASSERT_EQ(received.size(), expected.size());
    EXPECT_EQ(received, expected)
        << "reassembled stream diverges: frame integrity lost across "
           "partial writes";
}

// ------------------------------------------------------------ warm pool

namespace {

/** A pool entry forked the way the server publishes one, holding
 *  @p prefix_records records. Entries of one spec share a footprint. */
WarmPool::Snapshot
fakeSnap(std::size_t prefix_records)
{
    const harness::SimSession leader(makeSpec("470.lbm-164B", "stride"));
    return forkWarmSnapshot(
        leader, std::vector<wl::TraceRecord>(prefix_records),
        prefix_records);
}

} // namespace

TEST_F(ServiceTest, WarmPoolSingleFlightPublishAbandonAndLru)
{
    const WarmPool::Snapshot proto = fakeSnap(8);
    const std::size_t sz = warmSnapshotBytes(proto);
    ASSERT_GT(sz, 0u);
    WarmPool pool(2 * sz); // room for exactly two ready entries
    ASSERT_TRUE(pool.enabled());

    // Single-flight: first acquire leads, second parks, and the
    // callback fires only when the leader settles.
    WarmPool::Snapshot out;
    int woken = 0;
    ASSERT_EQ(pool.acquire("a", &out, {}), WarmPool::Role::kLeader);
    ASSERT_EQ(pool.acquire("a", &out, [&] { ++woken; }),
              WarmPool::Role::kWaiter);
    EXPECT_EQ(woken, 0);
    pool.publish("a", fakeSnap(8));
    EXPECT_EQ(woken, 1);
    ASSERT_EQ(pool.acquire("a", &out, {}), WarmPool::Role::kHit);
    ASSERT_TRUE(out.session && out.prefix);
    EXPECT_EQ(out.prefix->size(), 8u);

    // Abandon wakes waiters too, and the re-acquire takes over as the
    // new leader instead of hitting a dead entry.
    ASSERT_EQ(pool.acquire("b", &out, {}), WarmPool::Role::kLeader);
    ASSERT_EQ(pool.acquire("b", &out, [&] { ++woken; }),
              WarmPool::Role::kWaiter);
    pool.abandon("b");
    EXPECT_EQ(woken, 2);
    ASSERT_EQ(pool.acquire("b", &out, {}), WarmPool::Role::kLeader);
    pool.publish("b", fakeSnap(8));

    // LRU: touch "a" so "b" is the eviction victim when "c" lands.
    ASSERT_EQ(pool.acquire("a", &out, {}), WarmPool::Role::kHit);
    ASSERT_EQ(pool.acquire("c", &out, {}), WarmPool::Role::kLeader);
    pool.publish("c", fakeSnap(8));
    EXPECT_EQ(pool.acquire("b", &out, {}), WarmPool::Role::kLeader)
        << "LRU should have evicted b, the least recently used entry";
    pool.abandon("b");
    EXPECT_EQ(pool.acquire("a", &out, {}), WarmPool::Role::kHit);
    EXPECT_EQ(pool.acquire("c", &out, {}), WarmPool::Role::kHit);

    const auto s = pool.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.inserts, 3u);
    EXPECT_EQ(s.waits, 2u);
    EXPECT_LE(s.bytes, 2 * sz);

    // Budget 0 disables the pool: every acquire leads, publish no-ops.
    WarmPool off(0);
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.acquire("a", &out, {}), WarmPool::Role::kLeader);
    off.publish("a", fakeSnap(1));
    EXPECT_EQ(off.acquire("a", &out, {}), WarmPool::Role::kLeader);
}

TEST_F(ServiceTest, WarmPoolEntryIsAForkChargedItsFootprint)
{
    // A published entry is a copy of the leader's post-warmup machine:
    // a session forked from it serializes like the leader. Its charge
    // is never below what the snapshot image plus prefix cost, so a
    // byte budget sized in images cannot hold more machines.
    const auto spec = makeSpec("470.lbm-164B", "pythia");
    const auto records = captureRecords(spec);
    std::vector<std::unique_ptr<wl::Workload>> workloads;
    auto stream = std::make_unique<StreamWorkload>("leader", records);
    const StreamWorkload* leader_stream = stream.get();
    workloads.push_back(std::move(stream));
    harness::SimSession leader(spec, std::move(workloads));
    leader.runWarmup();

    const std::size_t consumed = leader_stream->consumed();
    const WarmPool::Snapshot entry =
        forkWarmSnapshot(leader, records, consumed);
    ASSERT_EQ(entry.prefix->size(), consumed);
    const std::vector<std::uint8_t> image = leader.snapshotBytes();
    EXPECT_EQ(entry.session->snapshotBytes(), image);
    EXPECT_GE(warmSnapshotBytes(entry),
              image.size() + consumed * sizeof(wl::TraceRecord));

    std::vector<std::unique_ptr<wl::Workload>> hit;
    hit.push_back(std::make_unique<StreamWorkload>(
        "hit", entry.prefix->records()));
    const harness::SimSession tenant =
        entry.session->fork(std::move(hit));
    EXPECT_EQ(tenant.snapshotBytes(), image);
}

TEST_F(ServiceTest, WarmPoolHitRestoresBitExact)
{
    // Second open of an identical spec must skip warmup (warm ack,
    // nonzero resume index) yet produce the byte-identical window
    // series and final result — the determinism bar of DESIGN.md §12
    // extended across warm-pool restores.
    auto opt = baseOptions();
    opt.warm_pool_bytes = 64u << 20;
    ServeServer server(opt);
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("470.lbm-164B", "pythia");
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);

    ServeClient cold(addr);
    const HelloAckMsg cold_ack = cold.open("warm-cold", spec, kWindow);
    EXPECT_FALSE(cold_ack.warm);
    EXPECT_EQ(cold_ack.records_received, 0u);
    const auto cold_run = cold.streamRun(records);
    ASSERT_TRUE(cold_run.final_result.has_value());
    expectSeriesEqual(cold_run.series.samples(), off.series.samples(),
                      "cold open");

    ServeClient warm(addr);
    const HelloAckMsg warm_ack = warm.open("warm-hit", spec, kWindow);
    EXPECT_TRUE(warm_ack.warm) << "second identical open should hit";
    EXPECT_GT(warm_ack.records_received, 0u)
        << "a warm hit resumes past the pooled warmup prefix";
    const auto warm_run =
        warm.streamRun(records, warm_ack.records_received);
    ASSERT_TRUE(warm_run.final_result.has_value());
    EXPECT_EQ(resultBits(*warm_run.final_result),
              resultBits(off.final_result));
    expectSeriesEqual(warm_run.series.samples(), off.series.samples(),
                      "warm-pool restore");
    EXPECT_LT(warm_run.records_streamed, cold_run.records_streamed)
        << "warm hit should stream fewer records (warmup skipped)";

    const auto s = server.stats();
    EXPECT_EQ(s.warm_misses, 1u);
    EXPECT_EQ(s.warm_hits, 1u);
    EXPECT_GT(s.warm_bytes, 0u);

    ServeClient probe(addr);
    const std::string json = probe.stats();
    EXPECT_NE(json.find("\"warm_pool\""), std::string::npos);
    EXPECT_NE(json.find("\"hits\": 1"), std::string::npos) << json;
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, WarmPoolSingleFlightWarmsOnceUnderRacingOpens)
{
    // Six racing opens of the same spec: exactly one leader warms,
    // everyone else eventually restores from the pool, and every
    // stream stays bit-exact against the offline run.
    auto opt = baseOptions();
    opt.warm_pool_bytes = 64u << 20;
    ServeServer server(opt);
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("602.gcc_s-734B", "spp");
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);

    std::mutex fail_mu;
    std::vector<std::string> failures;
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&, t] {
            try {
                ServeClient client(addr);
                const auto ack = client.open(
                    "race-" + std::to_string(t), spec, kWindow);
                const auto run =
                    client.streamRun(records, ack.records_received);
                std::string err;
                if (!run.final_result)
                    err = "no final result";
                else if (resultBits(*run.final_result) !=
                         resultBits(off.final_result))
                    err = "final result diverges";
                else if (run.series.size() != off.series.size())
                    err = "window count diverges";
                else
                    for (std::size_t k = 0; k < off.series.size(); ++k)
                        if (sampleBits(run.series[k]) !=
                            sampleBits(off.series[k])) {
                            err = "window " + std::to_string(k) +
                                  " diverges";
                            break;
                        }
                if (!err.empty()) {
                    std::lock_guard<std::mutex> lk(fail_mu);
                    failures.push_back("open " + std::to_string(t) +
                                       ": " + err);
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lk(fail_mu);
                failures.push_back("open " + std::to_string(t) +
                                   " threw: " + e.what());
            }
        });
    }
    for (auto& th : threads)
        th.join();
    std::string joined;
    for (const auto& f : failures)
        joined += "\n  " + f;
    EXPECT_TRUE(failures.empty()) << joined;

    const auto s = server.stats();
    EXPECT_EQ(s.warm_misses, 1u)
        << "single-flight: exactly one open warms per fingerprint";
    EXPECT_EQ(s.warm_hits, 5u);
    EXPECT_EQ(server.stop(), 0);
}

TEST_F(ServiceTest, WarmPoolTinyBudgetEvictsInsteadOfServing)
{
    // A 1-byte budget keeps the pool enabled but every publish blows
    // the budget and is LRU-evicted immediately: both opens must warm
    // themselves (no hit ever), results stay exact, evictions tick.
    auto opt = baseOptions();
    opt.warm_pool_bytes = 1;
    ServeServer server(opt);
    server.start();
    const std::string addr = server.boundAddress();
    constexpr std::uint64_t kWindow = 2000;
    const auto spec = makeSpec("Ligra-PageRank", "pythia");
    const auto records = captureRecords(spec);
    const OfflineRun off = runOffline(spec, kWindow);

    for (int i = 0; i < 2; ++i) {
        ServeClient client(addr);
        const auto ack =
            client.open("tiny-" + std::to_string(i), spec, kWindow);
        EXPECT_FALSE(ack.warm) << "open " << i;
        const auto run = client.streamRun(records);
        ASSERT_TRUE(run.final_result.has_value()) << "open " << i;
        expectSeriesEqual(run.series.samples(), off.series.samples(),
                          "tiny-budget open " + std::to_string(i));
    }

    const auto s = server.stats();
    EXPECT_EQ(s.warm_hits, 0u);
    EXPECT_EQ(s.warm_misses, 2u);
    EXPECT_GE(s.warm_evictions, 1u);
    EXPECT_EQ(server.stop(), 0);
}

} // namespace
} // namespace pythia::service
