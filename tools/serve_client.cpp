/**
 * @file
 * serve_client — synthetic load generator for pythia_serve
 * (DESIGN.md §12).
 *
 * Replays registry workloads from N concurrent synthetic clients: each
 * replay opens a fresh tenant, captures the workload generator's
 * record stream (exactly what the offline SimSession would consume)
 * and streams it through the daemon, collecting windowed metrics until
 * run end. Emits a latency-percentile pythia-perf-v1 artifact
 * (BENCH_service.json): p50/p95/p99 per-replay latency, window
 * inter-arrival percentiles, and aggregate streams/sec.
 *
 * Usage:
 *   serve_client server=tcp:127.0.0.1:7421 [clients=8] [replays=64]
 *                [workloads=470.lbm-164B;602.gcc_s-734B] [prefetcher=pythia]
 *                [warmup=2000] [sim_instrs=6000] [window=2000]
 *                [perf_out=BENCH_service.json] [series_dir=]
 *                [reference_dir=] [stats=0] [quiet=0]
 *
 * workloads= is a ';'-separated list of catalog names or registry specs
 * (',' belongs to spec parameters: "stream:streams=2,mem_ratio=0.4").
 * Arguments are strict key=value (common/params.hpp): an unknown key, a
 * malformed token, an ill-typed or out-of-range value, or an unknown
 * workload or prefetcher name prints one line to stderr and exits 2
 * before any thread or socket exists.
 *
 * series_dir= writes each distinct spec's streamed windowed metrics as
 * CSV; reference_dir= writes the offline SimSession reference for the
 * same specs. CI byte-diffs the two directories — the serving
 * determinism rule, enforced end-to-end over real sockets.
 *
 * High-tenant mode is just big numbers: clients=1024 replays=2048
 * opens 1024 concurrent tenants with open/close churn as each thread
 * replays the next stream. Against a daemon with warm_pool_bytes>0
 * and one shared spec, every open after the first is a warm-pool hit
 * (reported as warm_hits/warm_misses in the service block): the
 * client streams from ack.records_received, past the pooled warmup
 * prefix the daemon already holds.
 *
 * A replay also fails when it streamed more than its read-ahead bound
 * (2·kGateSlack + 3·(largest record's instructions)) plus one
 * 4096-record send batch past the records its run consumed, so the CI
 * smoke and soak steps exit 1 if streaming ever counts records where
 * the daemon counts instructions.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/params.hpp"
#include "common/spec.hpp"
#include "harness/perf.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "harness/timeseries.hpp"
#include "service/client.hpp"
#include "service/wire.hpp"
#include "sim/prefetcher_registry.hpp"
#include "workloads/suites.hpp"

using namespace pythia;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

struct SpecCase
{
    harness::ExperimentSpec spec;
    std::vector<wl::TraceRecord> records; ///< exactly what offline runs
    std::uint64_t read_ahead_bound = 0;   ///< service::readAheadBound
};

} // namespace

int
main(int argc, char** argv)
{
    std::string server, prefetcher, perf_out, series_dir, reference_dir;
    unsigned clients = 0;
    std::size_t replays = 0;
    std::uint64_t warmup = 0, sim_instrs = 0, window = 0;
    bool print_stats = false, quiet = false;
    std::vector<std::string> names;
    try {
        const SpecParams cli = SpecParams::fromArgs(
            argc, argv,
            {"server", "clients", "replays", "workloads", "prefetcher",
             "warmup", "sim_instrs", "window", "perf_out", "series_dir",
             "reference_dir", "stats", "quiet"});
        server = cli.getString("server");
        clients = cli.getU32("clients", 8, kMaxParallelism);
        replays = cli.getU64("replays", 64);
        prefetcher = cli.getString("prefetcher", "pythia");
        warmup = cli.getU64("warmup", 2000);
        sim_instrs = cli.getU64("sim_instrs", 6000);
        window = cli.getU64("window", 2000);
        perf_out = cli.getString("perf_out", "BENCH_service.json");
        series_dir = cli.getString("series_dir");
        reference_dir = cli.getString("reference_dir");
        print_stats = cli.getBool("stats", false);
        quiet = cli.getBool("quiet", false);
        names = splitSpecs(cli.getString("workloads"));
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (server.empty()) {
        std::cerr << "serve_client: server=<address> is required "
                     "(the address pythia_serve printed)\n";
        return 2;
    }
    if (window == 0) {
        std::cerr << "serve_client: window must be > 0\n";
        return 2;
    }
    if (names.empty())
        names = {"470.lbm-164B", "602.gcc_s-734B", "Ligra-PageRank",
                 "Cloudsuite-Cassandra"};

    // Capture each spec's record stream once, shared read-only by every
    // replay thread — identical by construction to what the offline
    // SimSession consumes (workloadsFor derives the same seeded
    // generator). Resolving every name here, before any socket, thread
    // or file exists, makes an unknown workload or prefetcher a usage
    // error; an unreadable trace:file= workload exits 1.
    std::vector<SpecCase> cases;
    try {
        (void)sim::makePrefetcher(prefetcher);
        for (const std::string& name : names) {
            SpecCase c;
            c.spec.workload = name;
            c.spec.prefetcher = prefetcher;
            c.spec.warmup_instrs = warmup;
            c.spec.sim_instrs = sim_instrs;
            auto workloads = harness::workloadsFor(c.spec);
            const std::uint64_t budget =
                service::recordBudgetFor(c.spec);
            c.records.reserve(budget);
            for (std::uint64_t i = 0; i < budget; ++i)
                c.records.push_back(workloads[0]->next());
            c.read_ahead_bound = service::readAheadBound(c.records);
            cases.push_back(std::move(c));
        }
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "serve_client: " << e.what() << "\n";
        return 1;
    }

    try {
        if (!reference_dir.empty()) {
            fs::create_directories(reference_dir);
            for (std::size_t i = 0; i < cases.size(); ++i) {
                harness::TimeSeries series;
                harness::SimSession session(cases[i].spec);
                session.addObserver(&series);
                while (!session.done())
                    session.advance(window);
                series.writeCsv(reference_dir + "/spec" +
                                std::to_string(i) + ".csv");
            }
        }
        if (!series_dir.empty())
            fs::create_directories(series_dir);

        std::atomic<std::size_t> next_replay{0};
        std::atomic<std::size_t> failures{0};
        std::atomic<std::uint64_t> records_streamed{0};
        std::atomic<std::uint64_t> windows_received{0};
        std::atomic<std::uint64_t> warm_hits{0};
        std::atomic<std::uint64_t> warm_misses{0};
        std::mutex agg_mu;
        std::vector<double> replay_latency_s;
        std::vector<double> window_gap_s;

        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                for (;;) {
                    const std::size_t r = next_replay.fetch_add(1);
                    if (r >= replays)
                        return;
                    const std::size_t s = r % cases.size();
                    const SpecCase& sc = cases[s];
                    try {
                        const auto start = Clock::now();
                        service::ServeClient client(server);
                        const auto ack = client.open(
                            "load-" + std::to_string(c) + "-" +
                                std::to_string(r),
                            sc.spec, window);
                        (ack.warm ? warm_hits : warm_misses) += 1;
                        // A warm-pool hit already holds the warmup
                        // prefix — stream from the daemon's resume
                        // index (0 on a cold open).
                        auto progress = client.streamRun(
                            sc.records, ack.records_received);
                        const double secs =
                            std::chrono::duration<double>(Clock::now() -
                                                          start)
                                .count();
                        records_streamed += progress.records_streamed;
                        windows_received += progress.series.size();
                        const std::uint64_t sent =
                            ack.records_received +
                            progress.records_streamed;
                        if (sent > progress.records_consumed +
                                       sc.read_ahead_bound +
                                       service::kSendBatch)
                            throw std::runtime_error(
                                "streamed to record " +
                                std::to_string(sent) + " but the run "
                                "consumed " +
                                std::to_string(
                                    progress.records_consumed) +
                                " (read-ahead bound " +
                                std::to_string(sc.read_ahead_bound) +
                                " + one batch)");
                        {
                            std::lock_guard<std::mutex> lk(agg_mu);
                            replay_latency_s.push_back(secs);
                            window_gap_s.insert(
                                window_gap_s.end(),
                                progress.window_gaps_s.begin(),
                                progress.window_gaps_s.end());
                        }
                        // All replays of one spec are bit-identical
                        // (serving determinism), so the overwrite race
                        // between threads is benign.
                        if (!series_dir.empty())
                            progress.series.writeCsv(
                                series_dir + "/spec" +
                                std::to_string(s) + ".csv");
                    } catch (const std::exception& e) {
                        ++failures;
                        std::lock_guard<std::mutex> lk(agg_mu);
                        std::cerr << "serve_client: replay " << r
                                  << " failed: " << e.what() << "\n";
                    }
                }
            });
        }
        for (auto& th : threads)
            th.join();
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0).count();

        if (print_stats) {
            service::ServeClient client(server);
            std::cout << client.stats() << "\n";
        }

        const double streams_per_sec =
            wall > 0 ? static_cast<double>(replays - failures) / wall
                     : 0.0;
        // Sort once, extract every percentile from the sorted vector
        // (harness::percentileSorted — the unit-tested nearest-rank
        // core) instead of re-sorting per percentile.
        std::sort(replay_latency_s.begin(), replay_latency_s.end());
        std::sort(window_gap_s.begin(), window_gap_s.end());
        if (!quiet) {
            std::printf("serve_client: %zu replays (%zu failed), %u "
                        "clients, %.2fs wall, %.2f streams/sec\n",
                        replays, failures.load(), clients, wall,
                        streams_per_sec);
            std::printf("  replay latency p50=%.4fs p95=%.4fs "
                        "p99=%.4fs, warm pool %llu hits / %llu "
                        "misses\n",
                        harness::percentileSorted(replay_latency_s, 50),
                        harness::percentileSorted(replay_latency_s, 95),
                        harness::percentileSorted(replay_latency_s, 99),
                        static_cast<unsigned long long>(
                            warm_hits.load()),
                        static_cast<unsigned long long>(
                            warm_misses.load()));
        }

        if (!perf_out.empty()) {
            // pythia-perf-v1 with a "service" extension block:
            // consumers ignore unknown keys (DESIGN.md §7).
            std::ostringstream os;
            os.setf(std::ios::fmtflags(0), std::ios::floatfield);
            os.precision(9);
            os << "{\n  \"schema\": \"pythia-perf-v1\",\n"
               << "  \"bench\": \"serve_client\",\n"
               << "  \"jobs\": " << clients << ",\n"
               << "  \"sweeps\": [],\n"
               << "  \"total\": {\"experiments\": "
               << (replays - failures) << ", \"seconds\": " << wall
               << ", \"sims_per_sec\": " << streams_per_sec << "},\n"
               << "  \"service\": {\n"
               << "    \"clients\": " << clients << ",\n"
               << "    \"replays\": " << replays << ",\n"
               << "    \"failures\": " << failures << ",\n"
               << "    \"streams_per_sec\": " << streams_per_sec
               << ",\n"
               << "    \"records_streamed\": " << records_streamed
               << ",\n"
               << "    \"windows\": " << windows_received << ",\n"
               << "    \"warm_hits\": " << warm_hits << ",\n"
               << "    \"warm_misses\": " << warm_misses << ",\n"
               << "    \"latency_s\": {\"p50\": "
               << harness::percentileSorted(replay_latency_s, 50)
               << ", \"p95\": "
               << harness::percentileSorted(replay_latency_s, 95)
               << ", \"p99\": "
               << harness::percentileSorted(replay_latency_s, 99)
               << "},\n"
               << "    \"window_latency_s\": {\"p50\": "
               << harness::percentileSorted(window_gap_s, 50)
               << ", \"p95\": "
               << harness::percentileSorted(window_gap_s, 95)
               << ", \"p99\": "
               << harness::percentileSorted(window_gap_s, 99)
               << "}\n  }\n}\n";
            std::ofstream out(perf_out);
            out << os.str();
            if (!out) {
                std::cerr << "serve_client: cannot write " << perf_out
                          << "\n";
                return 1;
            }
        }
        return failures.load() == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "serve_client: " << e.what() << "\n";
        return 1;
    }
}
