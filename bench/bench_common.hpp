/**
 * @file
 * Shared plumbing for the per-figure/table benchmark binaries.
 *
 * Every bench regenerates one artifact of the paper's evaluation: it
 * declares the sweep the figure reports as a harness::Sweep, executes it
 * on a ParallelRunner worker pool, prints the series as an aligned table
 * and writes a CSV next to the working directory. Simulation windows are
 * scaled-down analogues of the paper's 100M/500M windows (see DESIGN.md
 * §4); pass sim_scale=<f> on the command line to grow or shrink them and
 * jobs=<n> to set the worker count (default: hardware concurrency).
 * Unknown or misspelled key=value arguments are rejected with a
 * "did you mean" hint.
 *
 * Sharded execution (DESIGN.md §11): workers=<n> runs the sweeps on n
 * worker *processes* through harness::ShardCoordinator instead of the
 * in-process pool — byte-identical tables and CSVs, by the determinism
 * rule — and journal=<path> adds a durable pythia-journal-v1 job
 * journal so a killed bench resumes from its last completed job (a
 * multi-sweep bench suffixes the path with .s1, .s2, ... for its
 * second and later sweeps).
 *
 * Perf tracking (DESIGN.md §7): --perf-out=<path> (or perf_out=<path>)
 * makes the bench write a pythia-perf-v1 JSON artifact covering every
 * sweep it ran; quiet=1 suppresses the per-sweep stderr throughput line
 * so redirecting both streams yields clean CSV.
 */
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/params.hpp"
#include "common/spec.hpp"
#include "common/table.hpp"
#include "core/feature.hpp"
#include "harness/experiment.hpp"
#include "harness/perf.hpp"
#include "harness/shard.hpp"
#include "harness/sweep.hpp"
#include "harness/timeseries.hpp"
#include "workloads/suites.hpp"

namespace pythia::bench {

/** Default measurement windows (instructions per core). */
inline constexpr std::uint64_t kWarmup = 60'000;
inline constexpr std::uint64_t kSim = 150'000;

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    double sim_scale = 1.0; ///< multiplies both simulation windows
    unsigned jobs = 0;      ///< worker threads; 0 = hardware concurrency
    unsigned workers = 0;   ///< worker processes; 0 = in-process pool
    std::string journal;    ///< shard journal path; empty = no journal
    bool quiet = false;     ///< suppress the stderr throughput line
    std::string perf_out;   ///< perf JSON path; empty = no artifact
    SpecParams cli;         ///< full parse, for bench-specific keys
    harness::PerfReport perf; ///< accumulated by runSweep()
    std::size_t sweeps_run = 0; ///< runSweep() calls so far (journal names)
};

/** Bench usage error: one stderr line, then exit status 2. */
[[noreturn]] inline void
usageError(const std::string& what)
{
    std::cerr << what << "\n";
    std::exit(2);
}

/**
 * Parse the bench command line strictly (SpecParams::fromArgs):
 * sim_scale=<f>, jobs=<n>, workers=<n>, journal=<path>, quiet=<0|1>
 * and perf_out=<path> (alias --perf-out=<path>) are always accepted,
 * @p extra_keys adds bench-specific ones. Malformed tokens, unknown
 * keys and ill-typed or out-of-range values terminate the bench with
 * usageError() (a typo like "sim_scal=2" must not silently run the
 * defaults).
 */
inline BenchOptions
parseBenchArgs(int argc, char** argv,
               const std::vector<std::string>& extra_keys = {})
{
    std::vector<std::string> allowed = {"sim_scale", "jobs",  "workers",
                                        "journal",   "quiet", "perf_out"};
    allowed.insert(allowed.end(), extra_keys.begin(), extra_keys.end());
    // Translate the --perf-out=<path> alias into perf_out=<path> so the
    // strict parser sees only key=value tokens.
    std::vector<std::string> tokens;
    tokens.reserve(static_cast<std::size_t>(argc > 0 ? argc : 1));
    tokens.emplace_back(argc > 0 && argv[0] ? argv[0] : "bench");
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--perf-out=", 0) == 0)
            tok = "perf_out=" + tok.substr(sizeof("--perf-out=") - 1);
        tokens.push_back(std::move(tok));
    }
    std::vector<const char*> cargv;
    cargv.reserve(tokens.size());
    for (const auto& t : tokens)
        cargv.push_back(t.c_str());
    BenchOptions opt;
    try {
        opt.cli = SpecParams::fromArgs(static_cast<int>(cargv.size()),
                                       cargv.data(), allowed);
        opt.sim_scale = opt.cli.getDouble("sim_scale", 1.0);
        opt.jobs = opt.cli.getU32("jobs", 0, kMaxParallelism);
        opt.workers = opt.cli.getU32("workers", 0, kMaxParallelism);
        opt.journal = opt.cli.getString("journal", "");
        opt.quiet = opt.cli.getBool("quiet", false);
        opt.perf_out = opt.cli.getString("perf_out", "");
    } catch (const std::invalid_argument& e) {
        usageError(e.what());
    }
    const std::string& name = opt.cli.owner();
    if (opt.workers > 0 && opt.jobs > 1)
        usageError(name + ": workers= (worker processes) and jobs=" +
                   std::to_string(opt.jobs) +
                   " (in-process pool) are mutually exclusive — "
                   "sharded execution runs one runner per worker "
                   "process");
    if (!opt.journal.empty() && opt.workers == 0)
        usageError(name +
                   ": journal= requires workers=<n> (sharded execution)");
    opt.perf.setBench(name);
    return opt;
}

/**
 * Execute @p sweep on @p opt.jobs workers (replaying callbacks in
 * declaration order) and return the outcomes in job order. Folds the
 * sweep's timing into @p opt.perf and, when perf_out is set, rewrites
 * the JSON artifact after every sweep so the last write of a
 * multi-sweep bench always holds the complete picture.
 *
 * workers=<n> swaps the in-process pool for a ShardCoordinator over n
 * worker subprocesses; by the determinism rule the outcomes, tables and
 * CSVs are byte-identical either way. journal= makes the sharded run
 * resumable after a crash — each sweep of a multi-sweep bench journals
 * to its own file (.s1, .s2, ... suffixes after the first).
 */
inline std::vector<harness::Runner::Outcome>
runSweep(harness::Sweep& sweep, harness::Runner& runner,
         BenchOptions& opt)
{
    if (opt.workers > 0) {
        harness::ShardOptions shard;
        shard.workers = opt.workers;
        if (!opt.journal.empty())
            shard.journal_path =
                opt.sweeps_run == 0
                    ? opt.journal
                    : opt.journal + ".s" + std::to_string(opt.sweeps_run);
        shard.report_os = opt.quiet ? nullptr : &std::cerr;
        harness::ShardCoordinator coordinator(shard);
        auto outcomes = coordinator.run(runner, sweep);
        ++opt.sweeps_run;
        opt.perf.setJobs(opt.jobs == 0 ? 1 : opt.jobs);
        opt.perf.setWorkers(opt.workers);
        opt.perf.addSweep(coordinator.lastReport().sweep);
        if (!opt.perf_out.empty() && !opt.perf.writeTo(opt.perf_out))
            std::cerr << "[perf] cannot write " << opt.perf_out << "\n";
        return outcomes;
    }
    harness::ParallelRunner pool(opt.jobs);
    if (opt.quiet)
        pool.reportTo(nullptr);
    auto outcomes = pool.run(runner, sweep);
    ++opt.sweeps_run;
    opt.perf.setJobs(pool.jobs());
    opt.perf.addSweep(pool.lastReport());
    if (!opt.perf_out.empty() && !opt.perf.writeTo(opt.perf_out))
        std::cerr << "[perf] cannot write " << opt.perf_out << "\n";
    return outcomes;
}

/** Strict-CLI key of the workload-override flag:
 *  workload=<spec>[;<spec>...] replaces a bench's default workload
 *  list. Each entry is a workload spec (workloads/suites.hpp) —
 *  catalog name or registry spec string; ';' separates entries because
 *  ',' belongs to spec parameters. */
inline const std::vector<std::string>&
workloadFlagKeys()
{
    static const std::vector<std::string> keys = {"workload"};
    return keys;
}

/** Concatenate strict-CLI key lists (for benches combining the
 *  workload flag with e.g. sessionFlagKeys()). */
inline std::vector<std::string>
joinFlagKeys(const std::vector<std::string>& a,
             const std::vector<std::string>& b)
{
    std::vector<std::string> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

/**
 * The bench's workload list: the parsed workload= override when given,
 * else @p defaults. Every override entry is validated up front by
 * instantiating it once, so a typo terminates the bench with the
 * registry's "did you mean" diagnostics instead of failing mid-sweep.
 */
inline std::vector<std::string>
workloadsOrDefault(const BenchOptions& opt,
                   std::vector<std::string> defaults)
{
    const std::string value = opt.cli.getString("workload", "");
    if (value.empty())
        return defaults;
    const std::vector<std::string> out = splitSpecs(value);
    if (out.empty())
        usageError(opt.cli.owner() + ": workload= needs at least one spec");
    for (const auto& w : out) {
        try {
            (void)wl::makeWorkload(w);
        } catch (const std::exception& ex) {
            usageError(opt.cli.owner() + ": workload=: " + ex.what());
        }
    }
    return out;
}

/** Suite-grouped catalog names (suiteNames() x suiteWorkloads()) for
 *  the per-suite benches, or — when workload= is set — a single
 *  "custom" group holding exactly the override specs. */
inline std::vector<std::pair<std::string, std::vector<std::string>>>
suiteGroupsOrCustom(const BenchOptions& opt)
{
    std::vector<std::pair<std::string, std::vector<std::string>>> groups;
    if (!opt.cli.getString("workload", "").empty()) {
        groups.emplace_back("custom", workloadsOrDefault(opt, {}));
        return groups;
    }
    for (const auto& suite : wl::suiteNames()) {
        std::vector<std::string> names;
        for (const auto* w : wl::suiteWorkloads(suite))
            names.push_back(w->name);
        groups.emplace_back(suite, std::move(names));
    }
    return groups;
}

/** Strict-CLI keys of the streaming-session benches: windows=<n>
 *  (uniform window count), window_instrs=<n> (uniform window stride)
 *  and series_out=<path> (combined per-window CSV). */
inline const std::vector<std::string>&
sessionFlagKeys()
{
    static const std::vector<std::string> keys = {"windows",
                                                  "window_instrs",
                                                  "series_out"};
    return keys;
}

/** Parsed session/window flags (0 / empty = unset). */
struct SessionOptions
{
    std::uint64_t windows = 0;       ///< uniform window count
    std::uint64_t window_instrs = 0; ///< uniform window stride (instrs)
    std::string series_out;          ///< combined per-window CSV path
};

/** Read the sessionFlagKeys() values out of an already-parsed bench
 *  command line; ill-typed values are a usageError(), like
 *  parseBenchArgs(). */
inline SessionOptions
parseSessionFlags(const BenchOptions& opt)
{
    SessionOptions s;
    try {
        s.windows = opt.cli.getU64("windows", 0);
        s.window_instrs = opt.cli.getU64("window_instrs", 0);
        s.series_out = opt.cli.getString("series_out", "");
    } catch (const std::invalid_argument& e) {
        usageError(e.what());
    }
    return s;
}

/**
 * Window boundaries for a streamed session of @p total measured
 * instructions: the figure-dictated @p required boundaries (e.g.
 * fig23's warmup points) merged with the uniform split the windows= /
 * window_instrs= flags request, deduplicated, clipped to (0, total)
 * and always ending at @p total.
 */
inline std::vector<std::uint64_t>
windowEnds(std::uint64_t total, const SessionOptions& s,
           const std::vector<std::uint64_t>& required = {})
{
    std::set<std::uint64_t> ends(required.begin(), required.end());
    if (s.windows > 0) {
        const std::uint64_t step =
            std::max<std::uint64_t>(1, total / s.windows);
        for (std::uint64_t e = step; e < total; e += step)
            ends.insert(e);
    }
    if (s.window_instrs > 0)
        for (std::uint64_t e = s.window_instrs; e < total;
             e += s.window_instrs)
            ends.insert(e);
    std::vector<std::uint64_t> out;
    for (std::uint64_t e : ends)
        if (e > 0 && e < total)
            out.push_back(e);
    out.push_back(total);
    return out;
}

/** Write several labeled TimeSeries as one CSV: the @p label_header
 *  columns (each series' label is emitted verbatim as the row prefix)
 *  followed by the TimeSeries columns. */
inline bool
writeLabeledSeriesCsv(
    const std::string& path, const std::string& label_header,
    const std::vector<std::pair<std::string, const harness::TimeSeries*>>&
        series)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << label_header << "," << harness::TimeSeries::csvHeader() << "\n";
    for (const auto& [label, ts] : series)
        for (const auto& w : ts->samples())
            f << label << "," << harness::TimeSeries::csvRow(w) << "\n";
    return static_cast<bool>(f);
}

/** A streamed cell of a session bench: its series_out label and the
 *  WindowedOutcome slot its sweep task fills. */
using SessionCell =
    std::pair<std::string, std::shared_ptr<harness::Runner::WindowedOutcome>>;

/** Emit every cell's prefetched-run series as one labeled CSV at
 *  @p path (no-op when empty); prints the outcome like finish(). */
inline void
emitRunSeries(const std::string& path, const std::string& label_header,
              const std::vector<SessionCell>& cells)
{
    if (path.empty())
        return;
    std::vector<std::pair<std::string, const harness::TimeSeries*>>
        labeled;
    labeled.reserve(cells.size());
    for (const auto& [label, cell] : cells)
        labeled.emplace_back(label, &cell->run);
    if (writeLabeledSeriesCsv(path, label_header, labeled))
        std::cout << "[series written: " << path << "]\n";
    else
        std::cerr << "[series] cannot write " << path << "\n";
}

/** Single-core experiment with the bench-standard windows; @p pf is a
 *  registry spec string. Tweak further with the fluent setters. */
inline harness::ExperimentBuilder
exp1c(const std::string& workload, const std::string& pf,
      double scale = 1.0)
{
    return harness::Experiment(workload)
        .l2(pf)
        .warmup(static_cast<std::uint64_t>(kWarmup * scale))
        .measure(static_cast<std::uint64_t>(kSim * scale));
}

/** Pythia running state vector @p features: its L2 spec
 *  ("pythia:features=PC.Delta/Last4Deltas") and its table label
 *  ("pythia[PC+Delta,Last4Deltas]"). */
struct FeaturePythia
{
    std::string spec;
    std::string label;
};

inline FeaturePythia
pythiaWithFeatures(const std::vector<rl::FeatureSpec>& features)
{
    FeaturePythia out{"pythia:features=", "pythia["};
    for (std::size_t i = 0; i < features.size(); ++i) {
        if (i > 0) {
            out.spec += '/';
            out.label += ',';
        }
        out.spec += rl::featureName(features[i], '.');
        out.label += rl::featureName(features[i]);
    }
    out.label += ']';
    return out;
}

/** A representative cross-section of the catalog (one workload per
 *  pattern class per suite) used by the expensive multi-config sweeps. */
inline const std::vector<std::string>&
representativeWorkloads()
{
    static const std::vector<std::string> w = {
        "462.libquantum-1343B", // SPEC06 stream
        "459.GemsFDTD-765B",    // SPEC06 delta chain
        "482.sphinx3-417B",     // SPEC06 spatial
        "429.mcf-184B",         // SPEC06 irregular
        "PARSEC-Canneal",       // PARSEC spatial
        "Ligra-PageRank",       // Ligra graph
        "Ligra-CC",             // Ligra graph (bandwidth-hungry)
        "Cloudsuite-Cassandra", // Cloudsuite phase mix
    };
    return w;
}

/**
 * Declare the jobs for the geomean speedup of @p pf over @p workloads
 * into @p sweep; @p tweak customizes each experiment through the fluent
 * builder and @p done receives the geomean during the ordered replay,
 * after the group's last job. The sweep-engine analogue of the old
 * serial geomeanSpeedup() loop: cells of one table row can now all be
 * in flight at once.
 */
inline void
addGeomeanSpeedup(
    harness::Sweep& sweep, const std::vector<std::string>& workloads,
    const std::string& pf,
    const std::function<void(harness::ExperimentBuilder&)>& tweak,
    double scale, std::function<void(double)> done)
{
    auto speedups = std::make_shared<std::vector<double>>();
    speedups->reserve(workloads.size());
    for (const auto& w : workloads) {
        harness::ExperimentBuilder exp = exp1c(w, pf, scale);
        if (tweak)
            tweak(exp);
        sweep.add(exp, [speedups](const harness::Runner::Outcome& o) {
            speedups->push_back(std::max(1e-6, o.metrics.speedup));
        });
    }
    sweep.then([speedups, done = std::move(done)] {
        done(geomean(*speedups));
    });
}

/** Emit the table to stdout and CSV (named after the bench binary). */
inline void
finish(Table& table, const std::string& csv_name)
{
    table.print();
    const std::string path = csv_name + ".csv";
    if (table.writeCsv(path))
        std::cout << "[csv written: " << path << "]\n";
}

} // namespace pythia::bench
