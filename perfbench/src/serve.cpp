#include "serve.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "harness/timeseries.hpp"
#include "service/client.hpp"
#include "snapshot/codec.hpp"

extern char** environ;

namespace perfbench {

using namespace pythia;

// ------------------------------------------------------------- Daemon

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args)
{
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
    std::vector<std::string> argv_s = {exe, "listen=tcp:0", "quiet=1"};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(out[1]);
    if (rc != 0) {
        ::close(out[0]);
        pid_ = -1;
        throw std::runtime_error("spawn " + exe + ": " +
                                 std::strerror(rc));
    }

    // Scrape "listening on <address>" from the daemon's stdout.
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (line.find('\n') == std::string::npos) {
        const auto left = std::chrono::duration_cast<
                              std::chrono::milliseconds>(deadline -
                                                         Clock::now())
                              .count();
        pollfd p{out[0], POLLIN, 0};
        if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0)
            break;
        char buf[256];
        const ssize_t n = ::read(out[0], buf, sizeof buf);
        if (n <= 0)
            break;
        line.append(buf, static_cast<std::size_t>(n));
    }
    // Keep the read end open until the daemon has exited: it prints a
    // summary line on shutdown, which must not hit a closed pipe.
    out_fd_ = out[0];
    const std::string prefix = "listening on ";
    const std::size_t at = line.find(prefix);
    const std::size_t nl = line.find('\n');
    if (at == std::string::npos || nl == std::string::npos) {
        stop();
        throw std::runtime_error("pythia_serve did not report its "
                                 "listening address");
    }
    address_ = line.substr(at + prefix.size(), nl - at - prefix.size());
}

Daemon::~Daemon()
{
    stop();
}

double
Daemon::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos)
        throw std::runtime_error("cannot read /proc/<pid>/stat of "
                                 "pythia_serve");
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int
Daemon::stop()
{
    if (pid_ <= 0)
        return 0;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno != EINTR))
            break;
        if (Clock::now() > deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            status = -1;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    return status;
}

// ------------------------------------------------------ cases, digests

ServeCase
captureCase(const harness::ExperimentSpec& spec)
{
    ServeCase c;
    c.spec = spec;
    auto workloads = harness::workloadsFor(spec);
    const std::uint64_t budget = service::recordBudgetFor(spec);
    c.records.reserve(budget);
    for (std::uint64_t i = 0; i < budget; ++i)
        c.records.push_back(workloads[0]->next());
    return c;
}

std::uint64_t
seriesDigest(const std::vector<harness::WindowSample>& windows,
             const sim::RunResult& final_result)
{
    snap::Writer w;
    w.u64(windows.size());
    for (const harness::WindowSample& s : windows)
        harness::writeWindowSample(w, s);
    harness::writeRunResult(w, final_result);
    return snap::fnv1a(w.buffer().data(), w.buffer().size());
}

std::uint64_t
offlineDigest(const harness::ExperimentSpec& spec, std::uint64_t window)
{
    harness::TimeSeries series;
    harness::SimSession session(spec);
    session.addObserver(&series);
    while (!session.done())
        session.advance(window);
    return seriesDigest(series.samples(), session.cumulative());
}

// --------------------------------------------------------- closed loop

namespace {

/** Frame bytes of one replay, computed through the public codec: the
 *  Hello/HelloAck pair, the Access frames at the client's batch size,
 *  every Window frame and the RunEnd frame (4-byte length prefix
 *  each). */
std::uint64_t
replayBytes(const service::HelloMsg& hello,
            const service::HelloAckMsg& ack,
            const service::ServeClient::RunProgress& p)
{
    constexpr std::uint64_t kPrefix = 4;
    constexpr std::uint64_t kBatch = 4096; // ServeClient's batch size
    static const std::uint64_t access_per = [] {
        const wl::TraceRecord two[2] = {};
        return service::encodeAccess(two, 2).size() -
               service::encodeAccess(two, 1).size();
    }();
    static const std::uint64_t access_base = [] {
        const wl::TraceRecord one{};
        return service::encodeAccess(&one, 1).size() - access_per;
    }();
    std::uint64_t bytes = kPrefix + service::encodeHello(hello).size() +
                          kPrefix + service::encodeHelloAck(ack).size();
    const std::uint64_t batches = (p.records_streamed + kBatch - 1) / kBatch;
    bytes += batches * (kPrefix + access_base) +
             p.records_streamed * access_per;
    for (const harness::WindowSample& s : p.series.samples()) {
        service::WindowMsg m;
        m.window = s;
        bytes += kPrefix + service::encodeWindow(m).size();
    }
    service::RunEndMsg end;
    end.final_result = p.final_result.value_or(sim::RunResult{});
    bytes += kPrefix + service::encodeRunEnd(end).size();
    return bytes;
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

std::vector<Replay>
closedLoop(const std::string& address, const std::vector<ServeCase>& cases,
           std::uint64_t window, unsigned clients, double seconds,
           std::size_t min_replays, double max_seconds,
           std::vector<Tracer>* tracers, double* wall_s)
{
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex mu;
    std::vector<Replay> replays;
    const auto t0 = Clock::now();
    auto keep_going = [&] {
        const double t = since(t0);
        if (t >= max_seconds)
            return false;
        return t < seconds || completed.load() < min_replays;
    };

    // jthreads join on every exit path, exceptions included.
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Tracer* tr = tracers ? &(*tracers)[c] : nullptr;
            while (keep_going()) {
                const std::size_t r = next.fetch_add(1);
                Replay rep;
                rep.case_index = r % cases.size();
                const ServeCase& sc = cases[rep.case_index];
                try {
                    ScopedSpan replay_span(tr, "serve.replay", r);
                    const auto start = Clock::now();
                    service::ServeClient client(address);
                    service::HelloMsg hello;
                    hello.tenant =
                        "pb-" + std::to_string(c) + "-" + std::to_string(r);
                    hello.spec = sc.spec;
                    hello.window_instrs = window;
                    service::HelloAckMsg ack;
                    {
                        ScopedSpan s(tr, "service.open", r);
                        ack = client.open(hello.tenant, sc.spec, window);
                    }
                    rep.open_s = since(start);
                    rep.warm = ack.warm;
                    service::ServeClient::RunProgress p;
                    {
                        ScopedSpan s(tr, "service.stream", r);
                        p = client.streamRun(sc.records,
                                             ack.records_received);
                    }
                    rep.replay_s = since(start);
                    if (!p.final_result)
                        throw std::runtime_error("no run end");
                    // window_gaps_s[0] runs from the start of
                    // streamRun, i.e. from the HelloAck.
                    if (!p.window_gaps_s.empty()) {
                        rep.first_window_s =
                            rep.open_s + p.window_gaps_s.front();
                        rep.gaps_s.assign(p.window_gaps_s.begin() + 1,
                                          p.window_gaps_s.end());
                    }
                    rep.digest =
                        seriesDigest(p.series.samples(), *p.final_result);
                    rep.bytes = replayBytes(hello, ack, p);
                    rep.ok = true;
                    ++completed;
                } catch (const std::exception& e) {
                    rep.error = e.what();
                }
                std::lock_guard<std::mutex> lk(mu);
                replays.push_back(std::move(rep));
            }
        });
    }
    for (std::jthread& t : threads)
        t.join();
    if (wall_s)
        *wall_s = since(t0);
    return replays;
}

double
statsValue(const std::string& json, const std::string& key, bool in_pool)
{
    std::size_t from = 0;
    if (in_pool) {
        from = json.find("\"warm_pool\"");
        if (from == std::string::npos)
            throw std::runtime_error("stats JSON has no warm_pool");
    }
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = json.find(needle, from);
    if (at == std::string::npos)
        throw std::runtime_error("stats JSON has no " + key);
    return std::stod(json.substr(at + needle.size()));
}

} // namespace perfbench
