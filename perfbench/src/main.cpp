/**
 * @file
 * perfbench — the repository benchmark's measuring program.
 *
 *   perfbench --workload <sim_1c|sweep_4c_lowbw|serve_warm|serve_cold>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --bin-dir <dir with pythia_serve and sweep_worker>
 *             --ref-dir <kept reference digests> --out-dir <scratch>
 *
 *   perfbench --write-reference <sim_1c|sweep_4c_lowbw> --seeds <a>-<b>
 *             --ref-dir <dir>
 *
 * The last line of standard output is the result line (stats.hpp);
 * everything else goes to standard error. perfbench/README.md defines
 * the workloads and metrics.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/hashing.hpp"
#include "core/eq.hpp"
#include "core/feature.hpp"
#include "core/qvstore.hpp"
#include "grids.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "harness/shard.hpp"
#include "harness/sweep.hpp"
#include "procfs.hpp"
#include "serve.hpp"
#include "service/client.hpp"
#include "sim/prefetcher_registry.hpp"
#include "service/wire.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace pythia;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------- options

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0; ///< required for a run; run.py passes it
    bool trace = false;
    std::string bin_dir = ".";
    std::string ref_dir = "perfbench/reference";
    std::string out_dir = ".";
    std::string write_reference; ///< workload whose references to write
    std::uint64_t seeds_from = 0, seeds_to = 0;
    bool stamp = false; ///< print the build stamp and exit
};

const std::vector<std::string> kWorkloads = {"sim_1c", "sweep_4c_lowbw",
                                             "serve_warm", "serve_cold"};

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::stoull(v);
        else if (k == "--seconds")
            o.seconds = std::stod(v);
        else if (k == "--trace")
            o.trace = v == "1";
        else if (k == "--bin-dir")
            o.bin_dir = v;
        else if (k == "--ref-dir")
            o.ref_dir = v;
        else if (k == "--out-dir")
            o.out_dir = v;
        else if (k == "--stamp")
            o.stamp = v == "1";
        else if (k == "--write-reference")
            o.write_reference = v;
        else if (k == "--seeds") {
            const std::size_t dash = v.find('-');
            o.seeds_from = std::stoull(v.substr(0, dash));
            o.seeds_to = dash == std::string::npos
                             ? o.seeds_from
                             : std::stoull(v.substr(dash + 1));
        } else
            throw std::invalid_argument("unknown option " + k);
    }
    if (!o.write_reference.empty() || o.stamp)
        return o;
    if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
        kWorkloads.end())
        throw std::invalid_argument("--workload must be one of sim_1c, "
                                    "sweep_4c_lowbw, serve_warm, "
                                    "serve_cold");
    if (!(o.seconds > 0))
        throw std::invalid_argument("--seconds must be given and positive");
    return o;
}

unsigned
hostCpus()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** sim_1c streams, clients of the serve loops, daemon workers and
 *  sweep workers: half the host's CPUs (at least 1, at most 4). Leaving the other half
 *  free keeps the figures steady on a shared host, where other
 *  tenants' threads would otherwise preempt a worker and stretch the
 *  whole sweep or loop behind it. */
unsigned
parallelism()
{
    return std::clamp(hostCpus() / 2, 1u, 4u);
}

double
secondsSince(std::int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

/** Run @p f @p reps times and return the median of its durations. */
template <typename F>
double
medianSeconds(int reps, F&& f)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        const std::int64_t t0 = nowNs();
        f();
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

/** Result of one run: counts plus named metrics. */
struct RunOutput
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void check(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
    }
};

// The p95 tail needs ten samples beyond it.
const std::size_t kMinSamples = minSamplesFor(95);

/** Set-ups per run; setup_s is their median. One set-up takes a few to
 *  a few tens of milliseconds, so many of them cost little. Half run
 *  before the measured phase and half after it, so the median spans the
 *  run rather than following one short slow phase of the host. */
constexpr int kSetupReps = 50;
/** sweep_4c_lowbw's set-ups before each of its sweeps instead (8 to 13
 *  sweeps run in 20 s). */
constexpr int kSetupsPerSweep = 6;

/** Run @p setup kSetupReps / 2 times, appending the seconds each call
 *  returns to @p seconds: one half of a run's set-ups. */
template <typename F>
void
setUpHalf(std::vector<double>& seconds, F&& setup)
{
    for (int i = 0; i < kSetupReps / 2; ++i)
        seconds.push_back(setup());
}

// ---------------------------------------------------------- references

std::string
refPath(const Options& o, const std::string& workload)
{
    return o.ref_dir + "/" + workload + ".txt";
}

/** Kept digests of @p workload for @p seed, empty when not kept. */
std::vector<std::uint64_t>
loadReference(const Options& o, const std::string& workload,
              std::uint64_t seed)
{
    std::ifstream in(refPath(o, workload));
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        std::uint64_t s = 0;
        if (!(ls >> tag >> s) || tag != "seed" || s != seed)
            continue;
        std::vector<std::uint64_t> d;
        std::string hex;
        while (ls >> hex)
            d.push_back(std::stoull(hex, nullptr, 16));
        return d;
    }
    return {};
}

/** Digests of the sim_1c grid through harness::simulate. */
std::vector<std::uint64_t>
computeSim1cReference(std::uint64_t seed)
{
    const auto grid = sim1cGrid(seed);
    std::vector<std::uint64_t> d(grid.size());
    harness::Sweep sweep;
    for (std::size_t i = 0; i < grid.size(); ++i)
        sweep.addTask([&, i](harness::Runner&) {
            d[i] = digest(harness::simulate(grid[i]));
            return harness::Runner::Outcome{};
        });
    harness::Runner runner;
    harness::ParallelRunner(hostCpus()).run(runner, sweep);
    return d;
}

/** Digests of the sweep_4c_lowbw grid through the in-process thread
 *  pool (no shard layer). */
std::vector<std::uint64_t>
computeSweepReference(std::uint64_t seed)
{
    harness::Sweep sweep;
    for (const auto& s : sweep4cGrid(seed))
        sweep.add(s);
    harness::Runner runner;
    const auto outcomes =
        harness::ParallelRunner(hostCpus()).run(runner, sweep);
    std::vector<std::uint64_t> d;
    for (const auto& o : outcomes)
        d.push_back(digest(o));
    return d;
}

std::vector<std::uint64_t>
referenceFor(const Options& o, const std::string& workload,
             std::uint64_t seed)
{
    std::vector<std::uint64_t> d = loadReference(o, workload, seed);
    if (!d.empty())
        return d;
    std::cerr << "perfbench: no kept reference for " << workload
              << " seed " << seed
              << "; computing it through the library path\n";
    return workload == "sim_1c" ? computeSim1cReference(seed)
                                : computeSweepReference(seed);
}

int
writeReference(const Options& o)
{
    if (o.write_reference != "sim_1c" &&
        o.write_reference != "sweep_4c_lowbw")
        throw std::invalid_argument(
            "--write-reference takes sim_1c or sweep_4c_lowbw");
    fs::create_directories(o.ref_dir);
    std::ofstream out(refPath(o, o.write_reference));
    out << "# " << o.write_reference
        << " result digests (FNV-1a of the wire-encoded RunResult"
        << (o.write_reference == "sim_1c" ? "" : "s, run then baseline")
        << "), one line per seed, cells in grid order\n";
    for (std::uint64_t s = o.seeds_from; s <= o.seeds_to; ++s) {
        const auto d = o.write_reference == "sim_1c"
                           ? computeSim1cReference(s)
                           : computeSweepReference(s);
        out << "seed " << s;
        for (std::uint64_t x : d)
            out << ' ' << std::hex << std::setw(16) << std::setfill('0')
                << x << std::dec;
        out << "\n";
        std::cerr << "perfbench: reference " << o.write_reference
                  << " seed " << s << " written\n";
    }
    return out ? 0 : 1;
}

// -------------------------------------------------------------- sim_1c

/** Build every machine of a grid, one at a time: the set-up of one
 *  pass. Each machine is dropped, untimed, before the next is built, so
 *  the probe never holds more machines than a measured stream does and
 *  the peak RSS stays the measured phase's. Successive machines are
 *  built on the process's CPUs in turn: on a shared host each CPU's
 *  speed wanders on its own, and a pass built on one CPU would follow
 *  that CPU's. */
double
buildGridSeconds(const std::vector<harness::ExperimentSpec>& grid)
{
    cpu_set_t own;
    if (::sched_getaffinity(0, sizeof own, &own) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &own))
            cpus.push_back(c);
    double seconds = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i % cpus.size()], &one);
        ::sched_setaffinity(0, sizeof one, &one);
        const harness::ExperimentSpec& spec = grid[i];
        const std::int64_t t0 = nowNs();
        auto sys = std::make_unique<sim::System>(
            harness::systemConfigFor(spec), harness::workloadsFor(spec));
        for (std::uint32_t c = 0; c < spec.num_cores; ++c)
            if (auto pf = sim::makePrefetcher(spec.prefetcher))
                sys->attachL2Prefetcher(c, std::move(pf));
        seconds += secondsSince(t0);
    }
    ::sched_setaffinity(0, sizeof own, &own);
    return seconds;
}

/** One pass over a grid; digests and per-cell seconds are appended. */
struct PassResult
{
    double seconds = 0.0;
    std::vector<CellOutcome> cells;
};

struct GridTimers
{
    LayerTimer next;
    std::map<std::string, LayerTimer> train, feedback; // by prefetcher
};

PassResult
runPass(const std::vector<harness::ExperimentSpec>& grid,
        std::uint64_t pass, Tracer* tracer, GridTimers* timers)
{
    PassResult p;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        CellTimers t;
        if (timers) {
            t.next = &timers->next;
            t.train = &timers->train[grid[i].prefetcher];
            t.feedback = &timers->feedback[grid[i].prefetcher];
        }
        p.cells.push_back(
            runCell(grid[i], pass * grid.size() + i, tracer, t));
    }
    p.seconds = secondsSince(t0);
    return p;
}

std::uint64_t
gridInstrs(const std::vector<harness::ExperimentSpec>& grid)
{
    std::uint64_t n = 0;
    for (const auto& s : grid)
        n += simulatedInstrs(s);
    return n;
}

void
runSim1c(const Options& o, RunOutput& out)
{
    RssWatcher rss;
    const auto grid = sim1cGrid(o.seed);
    std::vector<double> setups;
    const auto setup = [&] { return buildGridSeconds(grid); };
    setUpHalf(setups, setup);

    // The host's speed wanders in phases that last from seconds to
    // minutes, and differs between CPUs at any moment. The rate is
    // taken over the whole measured phase rather than as a median of
    // passes, which would jump between the phases' modes, and from
    // parallelism() independent single-threaded streams of passes,
    // which average over as many CPUs (one stream spread 0.197 where
    // two spread 0.109, in the same ten-run period).
    const unsigned streams = parallelism();
    std::vector<double> stream_instrs(streams, 0);
    std::vector<std::vector<std::vector<std::uint64_t>>> stream_digests(
        streams);
    const std::int64_t t0 = nowNs();
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < streams; ++t)
            threads.emplace_back([&, t] {
                for (std::uint64_t pass = 0;
                     pass == 0 || secondsSince(t0) < o.seconds; ++pass) {
                    const PassResult p =
                        runPass(grid, pass, nullptr, nullptr);
                    stream_instrs[t] += static_cast<double>(gridInstrs(grid));
                    std::vector<std::uint64_t> d;
                    for (const CellOutcome& c : p.cells)
                        d.push_back(digest(c.result));
                    stream_digests[t].push_back(std::move(d));
                }
            });
    }
    const double wall_s = secondsSince(t0);
    double instrs = 0;
    std::vector<std::vector<std::uint64_t>> digests;
    for (unsigned t = 0; t < streams; ++t) {
        instrs += stream_instrs[t];
        for (auto& d : stream_digests[t])
            digests.push_back(std::move(d));
    }
    out.set("peak_rss_mb", rss.peakMb(), "MB");
    rss.stop();
    setUpHalf(setups, setup);

    const auto ref = referenceFor(o, "sim_1c", o.seed);
    for (const auto& pass : digests)
        for (std::size_t i = 0; i < pass.size(); ++i)
            out.check(i < ref.size() && pass[i] == ref[i],
                      "sim_1c cell " + std::to_string(i) +
                          " differs from its reference");
    out.set("setup_s", median(setups), "s");
    out.set("sim_kips", instrs / wall_s / 1e3, "kinstr/s");
}

// ------------------------------------------------------ sweep_4c_lowbw

harness::ShardOptions
shardOptions(const Options& o)
{
    harness::ShardOptions so;
    so.workers = parallelism();
    so.worker_path = o.bin_dir + "/sweep_worker";
    return so;
}

/** Simulations one sweep of @p grid delivers: every job's run plus
 *  each distinct no-prefetch baseline once. */
std::uint64_t
sweepInstrs(const std::vector<harness::ExperimentSpec>& grid)
{
    std::map<std::string, std::uint64_t> baselines;
    std::uint64_t n = 0;
    for (const auto& s : grid) {
        n += simulatedInstrs(s);
        baselines[harness::Runner::baselineKey(s)] = simulatedInstrs(s);
    }
    for (const auto& [key, instrs] : baselines)
        n += instrs;
    return n;
}

struct SweepRun
{
    double seconds = 0.0;
    std::vector<std::uint64_t> digests;
    harness::ShardReport report;
};

SweepRun
runSweep(const Options& o, const std::vector<harness::ExperimentSpec>& grid)
{
    harness::Sweep sweep;
    for (const auto& s : grid)
        sweep.add(s);
    harness::Runner runner;
    harness::ShardCoordinator coord(shardOptions(o));
    SweepRun r;
    const std::int64_t t0 = nowNs();
    const auto outcomes = coord.run(runner, sweep);
    r.seconds = secondsSince(t0);
    for (const auto& oc : outcomes)
        r.digests.push_back(digest(oc));
    r.report = coord.lastReport();
    return r;
}

/** Set-up of the sharded sweep: spawn the workers, hand each one
 *  minimal 4-core job (machine built, 1000 instructions) and collect
 *  the results. */
double
sweepSetupSeconds(const Options& o,
                  const std::vector<harness::ExperimentSpec>& grid)
{
    std::vector<harness::ExperimentSpec> probe;
    for (unsigned w = 0; w < parallelism(); ++w) {
        harness::ExperimentSpec s = grid[w % grid.size()];
        s.warmup_instrs = 0;
        s.sim_instrs = 1000;
        probe.push_back(s);
    }
    return runSweep(o, probe).seconds;
}

void
runSweep4c(const Options& o, RunOutput& out)
{
    RssWatcher rss;
    const auto grid = sweep4cGrid(o.seed);
    std::vector<double> setups;
    double instrs = 0, busy_s = 0;
    std::vector<std::vector<std::uint64_t>> digests;
    const std::int64_t t0 = nowNs();
    do {
        // Set-ups run between the sweeps, so they sample the whole run:
        // interleaved, setup_s spread 0.104 over nine runs where set-ups
        // before and after the sweeps spread 0.216. sim_kips counts
        // sweep time only.
        for (int i = 0; i < kSetupsPerSweep; ++i)
            setups.push_back(sweepSetupSeconds(o, grid));
        SweepRun r = runSweep(o, grid);
        instrs += static_cast<double>(sweepInstrs(grid));
        busy_s += r.seconds;
        digests.push_back(std::move(r.digests));
    } while (secondsSince(t0) < o.seconds);
    out.set("peak_rss_mb", rss.peakMb(), "MB");
    rss.stop();

    const auto ref = referenceFor(o, "sweep_4c_lowbw", o.seed);
    for (const auto& sweep : digests)
        for (std::size_t i = 0; i < sweep.size(); ++i)
            out.check(i < ref.size() && sweep[i] == ref[i],
                      "sweep_4c_lowbw job " + std::to_string(i) +
                          " differs from its reference");
    out.set("setup_s", median(setups), "s");
    out.set("sim_kips", instrs / busy_s / 1e3, "kinstr/s");
}

// --------------------------------------------------------------- serve

constexpr std::uint64_t kServeWindow = 1000;
/** Distinct per-replay seeds serve_cold cycles through. */
constexpr std::size_t kColdSeeds = 16;
/** serve_cold's pool budget: room for a few warm entries, far fewer
 *  than kColdSeeds, so round-robin replays always miss. */
constexpr std::size_t kColdPoolBytes = 8u << 20;

harness::ExperimentSpec
serveSpec(std::uint64_t workload_seed)
{
    harness::ExperimentSpec s;
    s.workload = "482.sphinx3-417B";
    s.prefetcher = "pythia";
    s.warmup_instrs = 50'000;
    s.sim_instrs = 20'000;
    s.workload_seed = workload_seed;
    return s;
}

std::vector<harness::ExperimentSpec>
serveSpecs(bool cold, std::uint64_t seed)
{
    if (!cold)
        return {serveSpec(seed)};
    std::vector<harness::ExperimentSpec> v;
    for (std::size_t i = 0; i < kColdSeeds; ++i)
        v.push_back(serveSpec(mix64(seed * kColdSeeds + i) | 1));
    return v;
}

struct ServeRun
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    double daemon_cpu_s = 0.0;
    double self_cpu_s = 0.0;
    std::vector<Replay> replays;
    std::string stats_json;
    int daemon_exit = 0;
    double peak_rss_mb = 0.0;
};

ServeRun
runServe(const Options& o, bool cold, double seconds,
         std::vector<Tracer>* tracers, Tracer* tracer)
{
    RssWatcher rss;
    std::vector<ServeCase> cases;
    for (const auto& spec : serveSpecs(cold, o.seed))
        cases.push_back(captureCase(spec));

    const fs::path state = fs::path(o.out_dir) /
                           (cold ? "serve_state_cold" : "serve_state_warm");
    const std::vector<std::string> args = {
        "workers=" + std::to_string(parallelism()),
        "state_dir=" + state.string(),
        "warm_pool_bytes=" +
            std::to_string(cold ? kColdPoolBytes : std::size_t{64} << 20)};

    // Set-up: launch to listening and first connection answered. The
    // last daemon launched before the loop serves it.
    ServeRun r;
    std::unique_ptr<Daemon> daemon;
    std::vector<double> setups;
    const auto setup = [&] {
        if (daemon)
            daemon->stop();
        ScopedSpan span(tracer, "serve.setup", setups.size());
        const std::int64_t t0 = nowNs();
        daemon = std::make_unique<Daemon>(o.bin_dir + "/pythia_serve", args);
        service::ServeClient(daemon->address()).stats();
        return secondsSince(t0);
    };
    setUpHalf(setups, setup);

    const unsigned clients = parallelism();
    const double cpu0 = daemon->cpuSeconds();
    const double self0 = selfCpuSeconds();
    // A traced slice reports tails, so it needs the samples for them.
    r.replays = closedLoop(daemon->address(), cases, kServeWindow, clients,
                           seconds, tracers ? kMinSamples : 1,
                           4 * seconds + 30, tracers, &r.wall_s);
    r.self_cpu_s = selfCpuSeconds() - self0;
    r.daemon_cpu_s = daemon->cpuSeconds() - cpu0;
    r.stats_json = service::ServeClient(daemon->address()).stats();
    r.peak_rss_mb = rss.peakMb();
    r.daemon_exit = daemon->stop();
    rss.stop();
    setUpHalf(setups, setup);
    daemon->stop();
    r.setup_s = median(setups);
    fs::remove_all(state);
    std::cerr << "perfbench: " << (cold ? "serve_cold" : "serve_warm")
              << " closed loop, " << clients << " clients, "
              << r.replays.size() << " replays in " << r.wall_s << " s\n";
    return r;
}

/** Check every replay against the offline series of its case, and
 *  that it used the warm pool as its workload claims: no serve_cold
 *  open may hit, and every serve_warm open after the single-flight
 *  leader's must. */
void
checkServe(const Options& o, bool cold, const ServeRun& r, RunOutput& out)
{
    const auto specs = serveSpecs(cold, o.seed);
    std::vector<std::optional<std::uint64_t>> offline(specs.size());
    std::size_t warm_misses = 0;
    for (const Replay& rep : r.replays) {
        if (!rep.ok) {
            out.check(false, "replay failed: " + rep.error);
            continue;
        }
        auto& ref = offline[rep.case_index];
        if (!ref)
            ref = offlineDigest(specs[rep.case_index], kServeWindow);
        const std::string what =
            "replay of case " + std::to_string(rep.case_index);
        if (rep.digest != *ref)
            out.check(false, what + ": served series differs from the "
                                    "offline SimSession series");
        else if (cold && rep.warm)
            out.check(false, what + ": serve_cold open hit the warm pool");
        else if (!cold && !rep.warm && ++warm_misses > 1)
            out.check(false, what + ": serve_warm open missed the warm "
                                    "pool after its leader published");
        else
            out.check(true, what);
    }
    out.check(r.daemon_exit == 0, "pythia_serve did not drain cleanly");
}

/** Simulated kilo-instructions per second the loop delivered: the
 *  measured windows of every completed replay, plus the warmup the
 *  daemon simulated for it when the open missed the warm pool. */
double
serveKips(const ServeRun& r)
{
    const harness::ExperimentSpec spec = serveSpec(0);
    double instrs = 0;
    for (const Replay& rep : r.replays)
        if (rep.ok)
            instrs += static_cast<double>(spec.sim_instrs) +
                      (rep.warm ? 0.0
                                : static_cast<double>(spec.warmup_instrs));
    return instrs / r.wall_s / 1e3;
}

void
runServeWorkload(const Options& o, bool cold, RunOutput& out)
{
    const ServeRun r = runServe(o, cold, o.seconds, nullptr, nullptr);
    checkServe(o, cold, r, out);
    out.set("setup_s", r.setup_s, "s");
    out.set("peak_rss_mb", r.peak_rss_mb, "MB");
    out.set("sim_kips", serveKips(r), "kinstr/s");
}

// ---------------------------------------------------------- traced run

/** Simulated per-layer counters of a set of cells. */
void
setSimCounters(RunOutput& out, const std::string& suffix,
               const std::vector<CellOutcome>& cells)
{
    CellCounters t;
    double util = 0;
    for (const CellOutcome& c : cells) {
        t.instructions += c.counters.instructions;
        t.l2_misses += c.counters.l2_misses;
        t.llc_misses += c.counters.llc_misses;
        t.llc_mshr_stalls += c.counters.llc_mshr_stalls;
        t.dram_row_hits += c.counters.dram_row_hits;
        t.dram_row_misses += c.counters.dram_row_misses;
        util += c.result.dram_utilization;
    }
    const double ki = static_cast<double>(t.instructions) / 1e3;
    out.set("sim.l2_mpki." + suffix, t.l2_misses / ki, "1/kinstr");
    out.set("sim.llc_mpki." + suffix, t.llc_misses / ki, "1/kinstr");
    out.set("sim.llc_mshr_stalls_pki." + suffix, t.llc_mshr_stalls / ki,
            "1/kinstr");
    out.set("sim.dram_row_hit_ratio." + suffix,
            static_cast<double>(t.dram_row_hits) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, t.dram_row_hits +
                                                   t.dram_row_misses)),
            "ratio");
    out.set("sim.dram_utilization." + suffix, util / cells.size(),
            "ratio");
}

/**
 * Usefulness of one prefetcher's cells against the no-prefetch cell of
 * the same workload: accuracy = useful / issued, coverage = baseline
 * LLC demand misses removed / baseline LLC demand misses, late =
 * late / useful, all summed over the grid.
 */
void
setUsefulness(RunOutput& out, const std::string& prefix,
              const std::string& suffix,
              const std::vector<harness::ExperimentSpec>& grid,
              const std::vector<CellOutcome>& cells, const std::string& pf)
{
    std::map<std::string, const sim::RunResult*> base;
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].prefetcher == "none")
            base[harness::Runner::baselineKey(grid[i])] = &cells[i].result;
    double issued = 0, useful = 0, late = 0, base_miss = 0, miss = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].prefetcher != pf)
            continue;
        const sim::RunResult& r = cells[i].result;
        issued += r.prefetch_issued;
        useful += r.prefetch_useful;
        late += r.prefetch_late;
        miss += r.llc_demand_load_misses;
        base_miss +=
            base.at(harness::Runner::baselineKey(grid[i]))
                ->llc_demand_load_misses;
    }
    out.set(prefix + ".accuracy" + suffix, useful / std::max(1.0, issued),
            "ratio");
    out.set(prefix + ".coverage" + suffix,
            (base_miss - miss) / std::max(1.0, base_miss), "ratio");
    if (prefix == "core")
        out.set(prefix + ".late_ratio" + suffix,
                late / std::max(1.0, useful), "ratio");
}

/** sim.self_ns_per_instr: warmup and run self time (workload and
 *  prefetcher calls excluded) per simulated instruction. */
double
simSelfNsPerInstr(const Tracer& tr, std::uint64_t instrs)
{
    return static_cast<double>(tr.selfNs("sim.warmup") +
                               tr.selfNs("sim.run")) /
           static_cast<double>(instrs);
}

/** Register @p timers' leaf timers with @p tracer (which keeps their
 *  addresses: @p timers must outlive it). */
void
watchTimers(Tracer& tracer, GridTimers& timers)
{
    tracer.watch(&timers.next);
    for (const char* pf : {"pythia", "spp", "bingo"}) {
        tracer.watch(&timers.train[pf]);
        tracer.watch(&timers.feedback[pf]);
    }
}

void
traceSim1c(const Options& o, double seconds, RunOutput& out,
           Tracer& tracer, GridTimers& timers)
{
    const auto grid = sim1cGrid(o.seed);
    const auto ref = referenceFor(o, "sim_1c", o.seed);

    // Untraced and traced passes alternate, so host drift hits both.
    double instrs[2] = {0, 0}, busy_s[2] = {0, 0}; // untraced, traced
    std::vector<CellOutcome> traced_cells;
    std::vector<double> plain_cell_s;
    std::uint64_t traced_instrs = 0;
    const std::int64_t t0 = nowNs();
    for (std::uint64_t pass = 0; pass < 4 || secondsSince(t0) < seconds ||
                                 plain_cell_s.size() < kMinSamples;
         ++pass) {
        const bool traced = pass % 2 == 1;
        const PassResult p = runPass(grid, pass, traced ? &tracer : nullptr,
                                     traced ? &timers : nullptr);
        instrs[traced] += static_cast<double>(gridInstrs(grid));
        busy_s[traced] += p.seconds;
        for (std::size_t i = 0; i < p.cells.size(); ++i)
            out.check(i < ref.size() && digest(p.cells[i].result) == ref[i],
                      std::string(traced ? "traced" : "untraced") +
                          " sim_1c cell " + std::to_string(i) +
                          " differs from its reference");
        if (traced) {
            traced_instrs += gridInstrs(grid);
            traced_cells = p.cells;
        } else {
            for (const CellOutcome& c : p.cells)
                plain_cell_s.push_back(c.seconds);
        }
        if (secondsSince(t0) > 4 * seconds + 30)
            break;
    }
    out.set("trace.overhead_pct",
            ((instrs[0] / busy_s[0]) / (instrs[1] / busy_s[1]) - 1.0) *
                100.0,
            "%");
    out.set("result_p50_ms.sim_1c", percentile(plain_cell_s, 50) * 1e3,
            "ms");
    out.set("result_p95_ms.sim_1c", percentile(plain_cell_s, 95) * 1e3,
            "ms");
    out.set("workloads.next_ns", timers.next.nsPerCall(), "ns");
    out.set("sim.self_ns_per_instr.sim_1c",
            simSelfNsPerInstr(tracer, traced_instrs), "ns");
    out.set("sim.construct_ms",
            static_cast<double>(tracer.totalNs("sim.construct")) /
                static_cast<double>(tracer.count("sim.construct")) / 1e6,
            "ms");
    out.set("core.train_ns.sim_1c", timers.train["pythia"].nsPerCall(),
            "ns");
    out.set("core.feedback_ns.sim_1c", timers.feedback["pythia"].nsPerCall(),
            "ns");
    out.set("prefetchers.spp.train_ns", timers.train["spp"].nsPerCall(),
            "ns");
    out.set("prefetchers.bingo.train_ns", timers.train["bingo"].nsPerCall(),
            "ns");
    setSimCounters(out, "sim_1c", traced_cells);
    setUsefulness(out, "core", ".sim_1c", grid, traced_cells, "pythia");
    setUsefulness(out, "prefetchers.spp", "", grid, traced_cells, "spp");
    setUsefulness(out, "prefetchers.bingo", "", grid, traced_cells, "bingo");
}

void
traceSweep(const Options& o, RunOutput& out, Tracer& tracer,
           GridTimers& timers)
{
    const auto grid = sweep4cGrid(o.seed);
    const auto ref = referenceFor(o, "sweep_4c_lowbw", o.seed);

    SweepRun r;
    {
        ScopedSpan span(&tracer, "harness.sweep", 0);
        r = runSweep(o, grid);
    }
    for (std::size_t i = 0; i < r.digests.size(); ++i)
        out.check(i < ref.size() && r.digests[i] == ref[i],
                  "sweep_4c_lowbw job " + std::to_string(i) +
                      " differs from its reference");
    const auto& js = r.report.sweep.job_seconds;
    double busy = 0;
    for (double s : js)
        busy += s;
    const unsigned workers =
        std::min<unsigned>(parallelism(), static_cast<unsigned>(grid.size()));
    out.set("harness.shard.sweep_s", r.seconds, "s");
    out.set("harness.shard.busy_share", busy / (r.seconds * workers),
            "ratio");
    out.set("harness.shard.stolen_jobs",
            static_cast<double>(r.report.stolen_jobs), "count");
    out.set("harness.shard.job_p50_s", percentile(js, 50), "s");
    out.set("harness.shard.job_max_s", percentile(js, 100), "s");

    // The workers are separate processes the benchmark cannot decorate,
    // so the layer split re-simulates the grid in process. Each traced
    // run must equal the sharded job's run result bit for bit.
    const std::int64_t self_before =
        tracer.selfNs("sim.warmup") + tracer.selfNs("sim.run");
    const PassResult p = runPass(grid, 1000, &tracer, &timers);
    // The sharded job digests hash run then baseline; re-hash each
    // traced run with the in-process no-prefetch cell of its row.
    std::map<std::string, const sim::RunResult*> base;
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].prefetcher == "none")
            base[harness::Runner::baselineKey(grid[i])] = &p.cells[i].result;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        harness::Runner::Outcome oc;
        oc.run = p.cells[i].result;
        oc.baseline = *base.at(harness::Runner::baselineKey(grid[i]));
        out.check(i < ref.size() && digest(oc) == ref[i],
                  "traced sweep_4c_lowbw cell " + std::to_string(i) +
                      " differs from the sharded result");
    }
    const std::int64_t self_ns =
        tracer.selfNs("sim.warmup") + tracer.selfNs("sim.run") - self_before;
    out.set("sim.self_ns_per_instr.sweep_4c_lowbw",
            static_cast<double>(self_ns) /
                static_cast<double>(gridInstrs(grid)),
            "ns");
    out.set("core.train_ns.sweep_4c_lowbw",
            timers.train["pythia"].nsPerCall(), "ns");
    out.set("core.feedback_ns.sweep_4c_lowbw",
            timers.feedback["pythia"].nsPerCall(), "ns");
    setSimCounters(out, "sweep_4c_lowbw", p.cells);
    setUsefulness(out, "core", ".sweep_4c_lowbw", grid, p.cells, "pythia");
}

void
traceServe(const Options& o, bool cold, double seconds, RunOutput& out,
           Tracer& tracer)
{
    const std::string w = cold ? "serve_cold" : "serve_warm";
    std::vector<Tracer> tracers(parallelism());
    const ServeRun r = runServe(o, cold, seconds, &tracers, &tracer);
    checkServe(o, cold, r, out);
    for (const Tracer& t : tracers)
        tracer.absorb(t);

    std::vector<double> replay_s, open_s, first_s, gaps_s;
    std::uint64_t ok = 0, bytes = 0;
    for (const Replay& rep : r.replays) {
        if (!rep.ok)
            continue;
        ++ok;
        replay_s.push_back(rep.replay_s);
        open_s.push_back(rep.open_s);
        first_s.push_back(rep.first_window_s);
        gaps_s.insert(gaps_s.end(), rep.gaps_s.begin(), rep.gaps_s.end());
        bytes += rep.bytes;
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(1, ok));
    out.set("result_p50_ms." + w, percentile(replay_s, 50) * 1e3, "ms");
    out.set("result_p95_ms." + w, percentile(replay_s, 95) * 1e3, "ms");
    out.set("service.streams_per_s." + w, ok / r.wall_s, "1/s");
    out.set("service.open_ms_p50." + w, percentile(open_s, 50) * 1e3, "ms");
    out.set("service.open_ms_p95." + w, percentile(open_s, 95) * 1e3, "ms");
    out.set("service.first_window_p50_ms." + w,
            percentile(first_s, 50) * 1e3, "ms");
    out.set("service.first_window_p95_ms." + w,
            percentile(first_s, 95) * 1e3, "ms");
    out.set("service.window_gap_p99_ms." + w, percentile(gaps_s, 99) * 1e3,
            "ms");
    out.set("service.daemon_cpu_ms_per_stream." + w,
            r.daemon_cpu_s / n * 1e3, "ms");
    out.set("service.bytes_per_stream." + w, bytes / n, "B");
    out.set("service.loadgen_cpu_share." + w,
            r.self_cpu_s / (r.wall_s * hostCpus()), "ratio");
    const double hits = statsValue(r.stats_json, "hits", true);
    const double misses = statsValue(r.stats_json, "misses", true);
    out.set("service.warm_pool.hit_ratio." + w,
            hits / std::max(1.0, hits + misses), "ratio");
    out.set("service.warm_pool.waits." + w,
            statsValue(r.stats_json, "waits", true), "count");
    out.set("service.warm_pool.evictions." + w,
            statsValue(r.stats_json, "evictions", true), "count");
    out.set("service.frames_rejected." + w,
            statsValue(r.stats_json, "frames_rejected"), "count");
}

/** Snapshot encode/restore of the serve spec after warmup, and the
 *  offline replay of the same spec. */
void
traceSnapshotAndOffline(const Options& o, RunOutput& out, Tracer& tracer)
{
    const harness::ExperimentSpec spec = serveSpec(o.seed);
    const std::uint64_t offline = offlineDigest(spec, kServeWindow);
    out.set("service.offline_replay_ms",
            medianSeconds(3,
                          [&] {
                              ScopedSpan s(&tracer, "service.offline", 0);
                              out.check(offlineDigest(spec, kServeWindow) ==
                                            offline,
                                        "offline replay is not repeatable");
                          }) *
                1e3,
            "ms");

    harness::SimSession session(spec);
    session.runWarmup();
    std::vector<std::uint8_t> bytes;
    out.set("snapshot.encode_ms", medianSeconds(5, [&] {
                ScopedSpan s(&tracer, "snapshot.encode", 0);
                bytes = session.snapshotBytes();
            }) * 1e3,
            "ms");
    out.set("snapshot.bytes", static_cast<double>(bytes.size()), "B");
    std::optional<harness::SimSession> restored;
    out.set("snapshot.restore_ms", medianSeconds(5, [&] {
                ScopedSpan s(&tracer, "snapshot.restore", 0);
                restored.emplace(harness::SimSession::resumeFromBytes(
                    spec, bytes, {}));
            }) * 1e3,
            "ms");
    harness::TimeSeries series;
    restored->addObserver(&series);
    while (!restored->done())
        restored->advance(kServeWindow);
    out.check(seriesDigest(series.samples(), restored->cumulative()) ==
                  offline,
              "restored snapshot does not continue bit-identically");
}

/** Isolated loops over the agent's and the wire codec's public
 *  functions (the bench_micro_hotpath kernels). */
void
traceIsolated(const Options& o, RunOutput& out)
{
    constexpr std::uint64_t kIters = 1'000'000;
    auto per_op = [](std::uint64_t iters, auto&& body) {
        const std::int64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < iters; ++i)
            body(i);
        return static_cast<double>(nowNs() - t0) /
               static_cast<double>(iters);
    };
    std::uint64_t sink = 0;

    rl::FeatureExtractor fx;
    const auto specs = rl::basicFeatureSpecs();
    out.set("core.feature_extract_ns", per_op(kIters, [&](std::uint64_t i) {
                fx.observe(0x400000 + (i & 0xFF) * 4, (i * 3) & 0xFFFF);
                const auto s = fx.extractAll(specs);
                sink += s[0] ^ s[1];
            }),
            "ns");

    rl::QVStoreConfig qcfg;
    rl::QVStore qv(qcfg);
    std::uint64_t s1[2] = {0, 0}, s2[2] = {0, 0};
    out.set("core.qvstore_max_ns", per_op(kIters, [&](std::uint64_t i) {
                s1[0] = i & 0x3FF;
                s1[1] = (i * 7) & 0x3FF;
                sink += qv.maxAction(s1, 2);
            }),
            "ns");
    out.set("core.qvstore_update_ns", per_op(kIters, [&](std::uint64_t i) {
                s1[0] = i & 0x3FF;
                s1[1] = (i * 7) & 0x3FF;
                s2[0] = (i + 1) & 0x3FF;
                s2[1] = ((i + 1) * 7) & 0x3FF;
                const auto a =
                    static_cast<std::uint32_t>(i) % qcfg.num_actions;
                qv.update(s1, 2, a, (i & 1) ? 10.0 : -4.0, s2, 2, a);
            }),
            "ns");

    rl::EvaluationQueue eq(256);
    auto entry = [](std::uint64_t i) {
        rl::EqEntry e;
        e.state = {i & 0xFF, (i * 3) & 0xFF};
        e.action = static_cast<std::uint32_t>(i & 0xF);
        e.prefetch_block = 0x1000 + (i & 0x1FF);
        e.has_prefetch = true;
        return e;
    };
    out.set("core.eq_insert_ns", per_op(kIters, [&](std::uint64_t i) {
                eq.insert(entry(i));
                sink += eq.size();
            }),
            "ns");
    out.set("core.eq_match_ns", per_op(kIters, [&](std::uint64_t i) {
                sink += eq.searchAll(0x5000 + (i & 0x3FF)).size();
                if ((i & 7) == 0)
                    sink += eq.markFill(0x1000 + (i & 0x1FF), i) ? 1 : 0;
                if ((i & 15) == 0)
                    sink += eq.searchAll(0x1000 + (i & 0x1FF)).size();
            }),
            "ns");

    // Wire codec on the serve spec's own records and windows.
    const ServeCase sc = captureCase(serveSpec(o.seed));
    const std::size_t n = std::min<std::size_t>(4096, sc.records.size());
    const auto access = service::encodeAccess(sc.records.data(), n);
    const double decode_ns = per_op(200, [&](std::uint64_t) {
        sink += service::decodeAccess(access).size();
    });
    out.set("service.wire.decode_access_ns_per_record",
            decode_ns / static_cast<double>(n), "ns");
    harness::TimeSeries series;
    {
        harness::SimSession session(sc.spec);
        session.addObserver(&series);
        session.advance(kServeWindow);
    }
    service::WindowMsg wm;
    wm.window = series[0];
    out.set("service.wire.encode_window_ns",
            per_op(100'000,
                   [&](std::uint64_t) {
                       sink += service::encodeWindow(wm).size();
                   }),
            "ns");
    // Printing the checksum keeps the loops' results alive.
    std::cerr << "perfbench: isolated-loop checksum " << sink << "\n";
}

void
runTraced(const Options& o, RunOutput& out)
{
    GridTimers sim_timers, sweep_timers; // outlive the tracer
    Tracer tracer;
    watchTimers(tracer, sim_timers);
    watchTimers(tracer, sweep_timers);
    // Every per-layer metric is defined on the workload that exercises
    // its layer, so the traced run covers all four workloads whatever
    // --workload names; each timed slice lasts a quarter of --seconds.
    const double slice = std::max(1.0, o.seconds / 4);
    traceSim1c(o, slice, out, tracer, sim_timers);
    traceSweep(o, out, tracer, sweep_timers);
    traceServe(o, false, slice, out, tracer);
    traceServe(o, true, slice, out, tracer);
    traceSnapshotAndOffline(o, out, tracer);
    traceIsolated(o, out);

    fs::create_directories(o.out_dir);
    const fs::path spans = fs::path(o.out_dir) /
                           ("spans_" + o.workload + "_seed" +
                            std::to_string(o.seed) + ".jsonl");
    std::ofstream os(spans);
    tracer.writeJsonLines(os);
    std::cerr << "perfbench: " << tracer.spans().size() << " spans written to "
              << spans.string() << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        if (o.stamp) {
            std::cout << "{\"build_type\": \"" << PERFBENCH_BUILD_TYPE
                      << "\", \"compiler\": \""
#if defined(__clang__)
                      << "clang "
#elif defined(__GNUC__)
                      << "gcc "
#endif
                      << __VERSION__ << "\"}" << std::endl;
            return 0;
        }
        if (!o.write_reference.empty())
            return writeReference(o);
        fs::create_directories(o.out_dir);
        RunOutput out;
        if (o.trace)
            runTraced(o, out);
        else if (o.workload == "sim_1c")
            runSim1c(o, out);
        else if (o.workload == "sweep_4c_lowbw")
            runSweep4c(o, out);
        else
            runServeWorkload(o, o.workload == "serve_cold", out);
        std::cout << resultLine(out.failed == 0, out.attempted, out.failed,
                                out.metrics)
                  << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
