/**
 * @file
 * Trace tooling: generate a binary trace file from any catalog workload,
 * inspect its contents, and replay it through the simulator — the
 * workflow ChampSim users follow with downloaded traces, reproduced on
 * the synthetic substrate.
 *
 * Usage:
 *   trace_tools mode=generate workload=<spec> out=<path> [records=N]
 *               [seed=0] [verify=1]
 *   trace_tools mode=inspect  in=<path>
 *   trace_tools mode=replay   in=<path> [prefetcher=<name>]
 *
 * workload= accepts catalog names and registry workload specs alike
 * ("stream:streams=2", "phase:stream@40+graph@60"); seed=0 keeps the
 * workload's deterministic default seed. verify=1 (the default) reads
 * the written file back against a fresh instance of the generator and
 * exits 1 unless every record matches — the capture/replay equivalence
 * rule (DESIGN.md §4.2). A missing or unknown workload, records=0, an
 * unknown prefetcher or mode, or a prefetcher parameter that cannot
 * run is a usage error (exit 2) found before any file is read or
 * written; an unreadable trace file exits 1.
 */
#include <iostream>
#include <map>

#include "common/params.hpp"
#include "common/table.hpp"
#include "sim/prefetcher_registry.hpp"
#include "sim/system.hpp"
#include "workloads/suites.hpp"
#include "workloads/trace.hpp"

namespace {

using namespace pythia;

int
generate(const SpecParams& cli, wl::Workload& w, std::uint64_t records,
         std::uint64_t seed, bool verify)
{
    const std::string workload = cli.getString("workload");
    const std::string out = cli.getString("out", "trace.bin");
    if (!wl::writeTraceFile(out, w, records)) {
        std::cerr << "failed to write " << out << "\n";
        return 1;
    }
    std::cout << "wrote " << records << " records of " << workload
              << " to " << out << "\n";
    if (!verify)
        return 0;
    const auto live = wl::makeWorkload(workload, seed);
    wl::FileWorkload replay(out);
    for (std::uint64_t i = 0; i < records; ++i) {
        const wl::TraceRecord a = live->next();
        const wl::TraceRecord b = replay.next();
        if (a.pc != b.pc || a.addr != b.addr || a.gap != b.gap ||
            a.is_write != b.is_write ||
            a.depends_on_prev != b.depends_on_prev) {
            std::cerr << "error: replay of " << out
                      << " diverges from the live generator at record "
                      << i << "\n";
            return 1;
        }
    }
    std::cout << "verified: trace:file=" << out
              << " replays bit-identically\n";
    return 0;
}

int
inspect(const SpecParams& cli)
{
    const std::string in = cli.getString("in", "trace.bin");
    wl::FileWorkload trace(in);
    std::map<Addr, std::uint64_t> pc_hist;
    std::uint64_t writes = 0, deps = 0, gaps = 0;
    std::map<Addr, std::uint64_t> pages;
    const std::size_t n = trace.size();
    for (std::size_t i = 0; i < n; ++i) {
        const auto r = trace.next();
        ++pc_hist[r.pc];
        writes += r.is_write;
        deps += r.depends_on_prev;
        gaps += r.gap;
        ++pages[pageId(r.addr)];
    }
    Table table("Trace " + in);
    table.setHeader({"property", "value"});
    table.addRow({"memory records", std::to_string(n)});
    table.addRow({"total instructions", std::to_string(n + gaps)});
    table.addRow({"distinct PCs", std::to_string(pc_hist.size())});
    table.addRow({"distinct pages", std::to_string(pages.size())});
    table.addRow({"store fraction",
                  Table::pct(static_cast<double>(writes) / n)});
    table.addRow({"dependent-load fraction",
                  Table::pct(static_cast<double>(deps) / n)});
    table.print();
    return 0;
}

int
replay(const SpecParams& cli, std::unique_ptr<sim::PrefetcherApi> built)
{
    const std::string in = cli.getString("in", "trace.bin");
    const std::string pf = cli.getString("prefetcher", "pythia");

    auto trace = std::make_unique<wl::FileWorkload>(in);
    sim::SystemConfig cfg;
    std::vector<std::unique_ptr<wl::Workload>> ws;
    ws.push_back(std::move(trace));
    sim::System system(cfg, std::move(ws));
    if (built)
        system.attachL2Prefetcher(0, std::move(built));
    system.warmup(50'000);
    const auto res = system.run(100'000);

    Table table("Replay of " + in + " with " + pf);
    table.setHeader({"metric", "value"});
    table.addRow({"IPC", Table::fmt(res.ipc_geomean)});
    table.addRow({"LLC demand load misses",
                  std::to_string(res.llc_demand_load_misses)});
    table.addRow({"prefetches issued",
                  std::to_string(res.prefetch_issued)});
    table.addRow({"prefetch accuracy", Table::pct(res.accuracy())});
    table.print();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    SpecParams cli;
    std::uint64_t records = 0;
    std::uint64_t seed = 0;
    bool verify = true;
    std::string mode;
    std::unique_ptr<wl::Workload> workload;    // mode=generate
    std::unique_ptr<sim::PrefetcherApi> built; // mode=replay
    try {
        cli = SpecParams::fromArgs(argc, argv,
                                   {"mode", "workload", "out", "records",
                                    "seed", "verify", "in", "prefetcher"});
        records = cli.getU64("records", 200000);
        seed = cli.getU64("seed", 0);
        verify = cli.getBool("verify", true);
        mode = cli.getString("mode", "generate");
        if (mode == "generate") {
            if (!cli.has("workload"))
                throw std::invalid_argument(
                    "trace_tools: mode=generate needs workload=<spec>");
            if (records == 0)
                throw std::invalid_argument(
                    "trace_tools: mode=generate needs records > 0");
            workload = wl::makeWorkload(cli.getString("workload"), seed);
        } else if (mode == "replay") {
            built = sim::makePrefetcher(
                cli.getString("prefetcher", "pythia"));
        } else if (mode != "inspect") {
            throw std::invalid_argument(
                "trace_tools: unknown mode '" + mode +
                "' (generate, inspect, replay)");
        }
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const std::exception& e) { // unreadable trace:file= workload
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    try {
        if (mode == "generate")
            return generate(cli, *workload, records, seed, verify);
        if (mode == "inspect")
            return inspect(cli);
        return replay(cli, std::move(built));
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
    }
    return 1;
}
