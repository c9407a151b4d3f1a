/**
 * @file
 * Online customization: builds Pythia variants entirely through the
 * public configuration surface — custom reward levels (the paper's §6.6
 * "configuration registers"), a custom feature vector and a pruned
 * action list — and compares them on a target workload. No hardware
 * (i.e., library) changes are needed for any of the variants.
 *
 * Usage: custom_config [workload=<name>]
 */
#include <iostream>

#include "common/params.hpp"
#include "common/table.hpp"
#include "core/configs.hpp"
#include "harness/experiment.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    std::string workload;
    try {
        workload = SpecParams::fromArgs(argc, argv, {"workload"})
                       .getString("workload", "Ligra-CC");
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    // Variant 1: the paper's strict graph-processing rewards.
    auto strict = rl::scaledForSimLength(rl::strictPythiaConfig());

    // Variant 2: a custom feature vector (PC+Offset and last-4 offsets).
    auto offsets = rl::scaledForSimLength(rl::withFeatures(
        rl::basicPythiaConfig(),
        {{rl::ControlKind::Pc, rl::DataKind::PageOffset},
         {rl::ControlKind::None, rl::DataKind::Last4Offsets}}));

    // Variant 3: a conservative action list (short forward offsets only).
    auto short_actions = rl::scaledForSimLength(rl::basicPythiaConfig());
    short_actions.actions = {0, 1, 3, 4, 5};
    short_actions.name = "pythia[short-actions]";

    harness::Runner runner;
    Table table("Customization on " + workload);
    table.setHeader({"variant", "speedup", "coverage", "overpred",
                     "accuracy"});

    auto show = [&](const std::string& label,
                    const harness::Runner::Outcome& o) {
        table.addRow({label, Table::fmt(o.metrics.speedup),
                      Table::pct(o.metrics.coverage),
                      Table::pct(o.metrics.overprediction),
                      Table::pct(o.metrics.accuracy)});
    };
    auto row = [&](const std::string& label, rl::PythiaConfig cfg) {
        show(label, harness::Experiment(workload)
                        .l2Pythia(std::move(cfg))
                        .run(runner));
    };
    show("basic", harness::Experiment(workload).l2("pythia").run(runner));
    // Reward levels are also reachable directly from the spec string —
    // no config object needed for scalar knobs.
    show("strict rewards (spec string)",
         harness::Experiment(workload)
             .l2("pythia:r_in_high=-22,r_in_low=-20,r_np_high=0,"
                 "r_np_low=0")
             .run(runner));
    row("strict rewards", strict);
    row("offset features", offsets);
    row("short action list", short_actions);
    table.print();
    return 0;
}
