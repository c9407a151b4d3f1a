/**
 * @file
 * Capture any workload spec's stream to a binary trace file whose
 * "trace:file=<path>" replay is bit-identical to the live generator —
 * the ChampSim-style trace pipeline over the synthetic substrate
 * (DESIGN.md §4.2).
 *
 * Usage:
 *   trace_capture workload=<spec-or-name> out=<path>
 *                 [records=200000] [seed=0] [verify=1]
 *
 * workload= accepts catalog names and registry specs alike
 * ("482.sphinx3-417B", "stream:streams=2,mem_ratio=0.4",
 * "phase:stream@40+graph@60"); seed=0 keeps the workload's
 * deterministic default seed. verify=1 (the default) replays the
 * written file against a fresh instance of the generator and fails
 * unless every record matches — the capture/replay equivalence rule.
 * Arguments are strict key=value (common/params.hpp): an unknown key, a
 * malformed token, an ill-typed value or an unknown workload prints one
 * line to stderr and exits 2 before any file is written.
 */
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "workloads/suites.hpp"
#include "workloads/trace.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    std::string spec, out;
    std::uint64_t records = 0, seed = 0;
    bool verify = true;
    std::unique_ptr<wl::Workload> live;
    try {
        const SpecParams cli = SpecParams::fromArgs(
            argc, argv, {"workload", "out", "records", "seed", "verify"});
        spec = cli.getString("workload");
        out = cli.getString("out", "trace.bin");
        records = cli.getU64("records", 200'000);
        seed = cli.getU64("seed", 0);
        verify = cli.getBool("verify", true);
        if (spec.empty())
            throw std::invalid_argument(
                "trace_capture: workload=<spec-or-name> is required "
                "(e.g. workload=470.lbm-164B or "
                "workload=stream:streams=2)");
        if (records == 0)
            throw std::invalid_argument(
                "trace_capture: records must be > 0");
        live = wl::makeWorkload(spec, seed);
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const std::exception& e) { // unreadable trace:file= workload
        std::cerr << "trace_capture: " << e.what() << "\n";
        return 1;
    }

    try {
        if (!wl::writeTraceFile(out, *live, records)) {
            std::cerr << "trace_capture: cannot write " << out << "\n";
            return 1;
        }
        std::cout << "wrote " << records << " records of '"
                  << live->name() << "' to " << out << "\n";

        if (verify) {
            // Replay against a fresh instance: the written stream must
            // match the live generator record for record.
            auto fresh = wl::makeWorkload(spec, seed);
            wl::FileWorkload replay(out);
            for (std::size_t i = 0; i < records; ++i) {
                const wl::TraceRecord a = fresh->next();
                const wl::TraceRecord b = replay.next();
                if (a.pc != b.pc || a.addr != b.addr || a.gap != b.gap ||
                    a.is_write != b.is_write ||
                    a.depends_on_prev != b.depends_on_prev) {
                    std::cerr << "trace_capture: replay diverges from "
                                 "the live generator at record "
                              << i << "\n";
                    return 1;
                }
            }
            std::cout << "verified: trace:file=" << out
                      << " replays bit-identically\n";
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "trace_capture: " << e.what() << "\n";
        return 1;
    }
}
