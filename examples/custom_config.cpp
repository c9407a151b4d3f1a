/**
 * @file
 * Online customization: builds Pythia variants entirely through spec
 * strings — custom reward levels (the paper's §6.6 "configuration
 * registers"), a custom feature vector and a pruned action list — and
 * compares them on a target workload. No hardware (i.e., library)
 * changes are needed for any of the variants.
 *
 * Usage: custom_config [workload=<name>]
 */
#include <iostream>

#include "common/params.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"

int
main(int argc, char** argv)
{
    using namespace pythia;
    std::string workload;
    try {
        workload = SpecParams::fromArgs(argc, argv, {"workload"})
                       .getString("workload", "Ligra-CC");
        harness::checkSpec({.workload = workload});
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    harness::Runner runner;
    Table table("Customization on " + workload);
    table.setHeader({"variant", "speedup", "coverage", "overpred",
                     "accuracy"});

    auto row = [&](const std::string& label, const std::string& spec) {
        const auto o =
            runner.evaluate({.workload = workload, .prefetcher = spec});
        table.addRow({label, Table::fmt(o.metrics.speedup),
                      Table::pct(o.metrics.coverage),
                      Table::pct(o.metrics.overprediction),
                      Table::pct(o.metrics.accuracy)});
    };
    row("basic", "pythia");
    // The reward levels one by one, then the named preset that sets the
    // same four (paper §6.6.1): the two rows must agree.
    row("strict rewards (spec string)",
        "pythia:r_in_high=-22,r_in_low=-20,r_np_high=0,r_np_low=0");
    row("strict rewards", "pythia_strict");
    // A custom state vector: PC+Offset and the last-4 offsets.
    row("offset features", "pythia:features=PC.Offset/Last4Offsets");
    // A conservative action list (short forward offsets only).
    row("short action list", "pythia:actions=0/1/3/4/5");
    table.print();
    return 0;
}
