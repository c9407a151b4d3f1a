/**
 * @file
 * Microbenchmark of the per-simulation hot path.
 *
 * Two parts:
 *
 *  1. Micro loops — tight timing of the inner loops the profile is
 *     dominated by, printed as ns/op and recorded as per-component
 *     entries in the perf artifact ("components" in pythia-perf-v1):
 *     qvstore_max, qvstore_update, eq_insert, eq_match,
 *     feature_extract, cache_access. These localize a regression the
 *     end-to-end number only detects, and the CI perf gate pins each
 *     one individually (tools/perf_gate.py).
 *
 *  2. End-to-end sims/sec — a fixed sweep of single-core experiments
 *     executed through the normal harness. With --perf-out= this lands
 *     in the pythia-perf-v1 JSON ("total.sims_per_sec"), which is the
 *     number the perf trajectory tracks PR over PR (DESIGN.md §7).
 *
 * jobs defaults to 1 here (unlike the figure benches): the artifact
 * tracks single-thread hot-path speed, not pool scaling.
 */
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/agent.hpp"
#include "core/configs.hpp"
#include "core/eq.hpp"
#include "core/feature.hpp"
#include "core/qvstore.hpp"
#include "sim/cache.hpp"
#include "sim/dram.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Print one micro-loop result line and record it as a perf-artifact
/// component.
void
report(pythia::bench::BenchOptions& opt, const char* name,
       std::uint64_t iters, double seconds, std::uint64_t check)
{
    const double ns_per_op =
        seconds / static_cast<double>(iters) * 1e9;
    std::printf("  %-22s %10" PRIu64 " ops  %8.1f ns/op  (check %"
                PRIu64 ")\n",
                name, iters, ns_per_op, check);
    opt.perf.setComponent(name, ns_per_op, iters);
}

/// Feature extraction: observe + extract the basic 2-feature vector.
void
microFeatures(pythia::bench::BenchOptions& opt, std::uint64_t iters)
{
    using namespace pythia;
    rl::FeatureExtractor fx;
    const auto specs = rl::basicFeatureSpecs();
    std::uint64_t check = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        fx.observe(0x400000 + (i & 0xFF) * 4, (i * 3) & 0xFFFF);
        const auto state = fx.extractAll(specs);
        check += state[0] ^ state[1];
    }
    report(opt, "feature_extract", iters, secondsSince(t0), check);
}

/// QVStore action selection: the linear max-scan over the SoA rows.
void
microQvstoreMax(pythia::bench::BenchOptions& opt, std::uint64_t iters)
{
    using namespace pythia;
    rl::QVStoreConfig cfg;
    rl::QVStore qv(cfg);
    std::uint64_t s1[2] = {0, 0};
    std::uint64_t check = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        s1[0] = i & 0x3FF;
        s1[1] = (i * 7) & 0x3FF;
        check += qv.maxAction(s1, 2);
    }
    report(opt, "qvstore_max", iters, secondsSince(t0), check);
}

/// QVStore SARSA update: two row lookups + one plane-strided write.
void
microQvstoreUpdate(pythia::bench::BenchOptions& opt,
                   std::uint64_t iters)
{
    using namespace pythia;
    rl::QVStoreConfig cfg;
    rl::QVStore qv(cfg);
    std::uint64_t s1[2] = {0, 0}, s2[2] = {0, 0};
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        s1[0] = i & 0x3FF;
        s1[1] = (i * 7) & 0x3FF;
        s2[0] = (i + 1) & 0x3FF;
        s2[1] = ((i + 1) * 7) & 0x3FF;
        const auto a = static_cast<std::uint32_t>(i) %
                       cfg.num_actions;
        qv.update(s1, 2, a, (i & 1) ? 10.0 : -4.0, s2, 2, a);
    }
    report(opt, "qvstore_update", iters, secondsSince(t0),
           qv.updates());
}

/// EQ insert churn: ring insert + evict + pending-index maintenance.
void
microEqInsert(pythia::bench::BenchOptions& opt, std::uint64_t iters)
{
    using namespace pythia;
    rl::EvaluationQueue eq(256);
    std::uint64_t check = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        rl::EqEntry e;
        e.state = {i & 0xFF, (i * 3) & 0xFF};
        e.action = static_cast<std::uint32_t>(i & 0xF);
        e.prefetch_block = 0x1000 + (i & 0x1FF);
        e.has_prefetch = true;
        eq.insert(std::move(e));
        check += eq.size();
    }
    report(opt, "eq_insert", iters, secondsSince(t0), check);
}

/// EQ demand matching: mostly-miss searches plus periodic fill marks,
/// as in a real run (the demand stream rarely matches a queued block).
void
microEqMatch(pythia::bench::BenchOptions& opt, std::uint64_t iters)
{
    using namespace pythia;
    rl::EvaluationQueue eq(256);
    for (std::uint64_t i = 0; i < 256; ++i) {
        rl::EqEntry e;
        e.state = {i & 0xFF, (i * 3) & 0xFF};
        e.action = static_cast<std::uint32_t>(i & 0xF);
        e.prefetch_block = 0x1000 + (i & 0x1FF);
        e.has_prefetch = true;
        eq.insert(std::move(e));
    }
    std::uint64_t check = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        check += eq.searchAll(0x5000 + (i & 0x3FF)).size();
        if ((i & 7) == 0)
            check += eq.markFill(0x1000 + (i & 0x1FF), i) ? 1 : 0;
        if ((i & 15) == 0)
            check += eq.searchAll(0x1000 + (i & 0x1FF)).size();
    }
    report(opt, "eq_match", iters, secondsSince(t0), check);
}

/// Cache: demand loads over a strided footprint that misses regularly.
void
microCache(pythia::bench::BenchOptions& opt, std::uint64_t iters)
{
    using namespace pythia;
    sim::DramConfig dram_cfg;
    sim::Dram dram(dram_cfg);
    sim::DramLevel dram_level(dram);
    sim::CacheConfig cc;
    cc.name = "l2";
    cc.size_bytes = 256 * 1024;
    cc.ways = 8;
    sim::Cache cache(cc, dram_level);
    std::uint64_t check = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        sim::MemAccess req;
        req.pc = 0x400000 + (i & 0x3F) * 4;
        req.block = (i * 17) & 0x7FFFF;
        req.type = (i & 7) == 7 ? AccessType::Store : AccessType::Load;
        req.at = i;
        check += cache.access(req);
    }
    report(opt, "cache_access", iters, secondsSince(t0), check);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace pythia;
    bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    if (!opt.cli.has("jobs"))
        opt.jobs = 1; // track single-thread speed unless asked otherwise

    // ---- part 1: micro loops -------------------------------------------
    const auto base =
        static_cast<std::uint64_t>(200'000 * opt.sim_scale);
    std::printf("hot-path micro loops (scale with sim_scale):\n");
    microFeatures(opt, base * 10);
    microQvstoreMax(opt, base * 5);
    microQvstoreUpdate(opt, base);
    microEqInsert(opt, base * 5);
    microEqMatch(opt, base * 5);
    microCache(opt, base * 10);

    // ---- part 2: end-to-end sims/sec -----------------------------------
    // A pythia-heavy cross-section: the RL loop exercises every hot
    // structure at once; spp/bingo/stride cover the classic table walks.
    harness::Runner runner;
    harness::Sweep sweep;
    const std::vector<std::pair<std::string, std::string>> sims = {
        {"462.libquantum-1343B", "pythia"},
        {"459.GemsFDTD-765B", "pythia"},
        {"482.sphinx3-417B", "pythia"},
        {"429.mcf-184B", "pythia"},
        {"Ligra-PageRank", "spp"},
        {"PARSEC-Canneal", "bingo"},
        {"Ligra-CC", "stride"},
        {"Cloudsuite-Cassandra", "spp"},
    };
    Table table("hot-path end-to-end (bench-standard windows)");
    table.setHeader({"workload", "prefetcher", "speedup"});
    for (const auto& [w, pf] : sims)
        sweep.add(bench::exp1c(w, pf, opt.sim_scale),
                  [&table, w = w, pf = pf](
                      const harness::Runner::Outcome& o) {
                      table.addRow({w, pf,
                                    Table::fmt(o.metrics.speedup)});
                  });
    bench::runSweep(sweep, runner, opt);
    std::printf("end-to-end: %.2f sims/sec (jobs=%u)\n",
                opt.perf.totalSimsPerSecond(), opt.jobs);
    bench::finish(table, "micro_hotpath");
    return 0;
}
