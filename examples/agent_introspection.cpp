/**
 * @file
 * Agent introspection: run Pythia on one workload and dump what the agent
 * learned — action/reward distributions and the per-action Q-values of
 * the most recent state. This is the repository's analogue of the
 * paper's §6.5 case-study methodology.
 *
 * Usage: agent_introspection [workload=<name>] [mtps=<n>] [strict=0|1]
 */
#include <iostream>

#include "common/params.hpp"
#include "common/table.hpp"
#include "core/configs.hpp"
#include "harness/runner.hpp"
#include "sim/system.hpp"
#include "workloads/suites.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;

    std::string workload;
    harness::ExperimentSpec spec;
    bool strict = false;
    try {
        const SpecParams cli = SpecParams::fromArgs(
            argc, argv, {"workload", "mtps", "strict"});
        workload = cli.getString("workload", "462.libquantum-1343B");
        strict = cli.getBool("strict", false);
        spec = {.workload = workload, .mtps = cli.getU32("mtps", 2400)};
        harness::checkSpec(spec);
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    // Build the system by hand so we keep a handle on the agent.
    auto cfg = rl::scaledForSimLength(
        strict ? rl::strictPythiaConfig() : rl::basicPythiaConfig());
    auto agent = std::make_unique<rl::PythiaPrefetcher>(cfg);
    auto* agent_ptr = agent.get();

    sim::System system(harness::systemConfigFor(spec),
                       harness::workloadsFor(spec));
    system.attachL2Prefetcher(0, std::move(agent));
    system.warmup(spec.warmup_instrs);
    const sim::RunResult run = system.run(spec.sim_instrs);

    std::cout << "workload=" << workload << " IPC="
              << Table::fmt(run.ipc_geomean) << "\n";

    Table stats("Agent statistics");
    stats.setHeader({"counter", "value"});
    for (const auto& [k, v] : agent_ptr->agentStats().counters()) {
        // Counters are pre-registered at construction now; zero rows
        // are just "this never happened" and would drown the table.
        if (v != 0)
            stats.addRow({k, std::to_string(v)});
    }
    stats.print();

    // Q-values of the last observed state, per action.
    const auto state =
        agent_ptr->extractor().extractAll(agent_ptr->config().features);
    Table qtable("Q-values of the final state");
    qtable.setHeader({"offset", "Q"});
    for (std::size_t a = 0; a < agent_ptr->config().actions.size(); ++a) {
        qtable.addRow(
            {std::to_string(agent_ptr->config().actions[a]),
             Table::fmt(agent_ptr->qvstore().q(
                 state, static_cast<std::uint32_t>(a)))});
    }
    qtable.print();
    return 0;
}
