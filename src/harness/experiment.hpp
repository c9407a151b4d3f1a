/**
 * @file
 * Fluent experiment definition over ExperimentSpec:
 *
 *     harness::Runner runner;
 *     auto outcome = harness::Experiment("Ligra-PageRank")
 *                        .cores(4)
 *                        .l2("pythia:gamma=0.5")
 *                        .run(runner);
 *
 * Every setter returns the builder, so sweeps read as one expression;
 * prefetcher setters take registry spec strings
 * (sim/prefetcher_registry.hpp), including parameterized and composed
 * specs. Terminal operations: spec() / build() yield the underlying
 * ExperimentSpec, simulate() performs one raw run, run(runner)
 * evaluates against the cached no-prefetching baseline, and
 * openSession() opens a streaming SimSession with any observers
 * registered through observe() already attached.
 */
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "harness/session.hpp"

namespace pythia::harness {

/** Fluent builder for ExperimentSpec. Default-constructed state matches
 *  the ExperimentSpec defaults (1 core, no prefetching). */
class ExperimentBuilder
{
  public:
    ExperimentBuilder() = default;
    explicit ExperimentBuilder(std::string workload)
    {
        spec_.workload = std::move(workload);
    }

    /** Workload spec run on every core: a catalog name or a registry
     *  spec string like "stream:footprint=256M,mem_ratio=0.4",
     *  "trace:file=foo.bin" or "phase:stream@40+graph@60"
     *  (workloads/suites.hpp). */
    ExperimentBuilder& workload(std::string name)
    {
        spec_.workload = std::move(name);
        return *this;
    }

    /** Heterogeneous per-core workload mix (each entry a workload spec
     *  like workload()); size must equal cores(). */
    ExperimentBuilder& mix(std::vector<std::string> names)
    {
        spec_.mix = std::move(names);
        return *this;
    }

    ExperimentBuilder& cores(std::uint32_t n)
    {
        spec_.num_cores = n;
        return *this;
    }

    /** L2 prefetcher spec string (e.g. "spp:max_lookahead=4"). */
    ExperimentBuilder& l2(std::string spec)
    {
        spec_.prefetcher = std::move(spec);
        return *this;
    }

    /** L1 prefetcher spec string (multi-level configurations). */
    ExperimentBuilder& l1(std::string spec)
    {
        spec_.l1_prefetcher = std::move(spec);
        return *this;
    }

    /** DRAM transfer rate in mega-transfers per second. */
    ExperimentBuilder& mtps(std::uint32_t mtps)
    {
        spec_.mtps = mtps;
        return *this;
    }

    ExperimentBuilder& llcBytesPerCore(std::uint64_t bytes)
    {
        spec_.llc_bytes_per_core = bytes;
        return *this;
    }

    ExperimentBuilder& warmup(std::uint64_t instrs)
    {
        spec_.warmup_instrs = instrs;
        return *this;
    }

    ExperimentBuilder& measure(std::uint64_t instrs)
    {
        spec_.sim_instrs = instrs;
        return *this;
    }

    /** Multiply both simulation windows (bounding multi-core sweeps). */
    ExperimentBuilder& scaleWindows(double factor)
    {
        spec_.warmup_instrs = static_cast<std::uint64_t>(
            static_cast<double>(spec_.warmup_instrs) * factor);
        spec_.sim_instrs = static_cast<std::uint64_t>(
            static_cast<double>(spec_.sim_instrs) * factor);
        return *this;
    }

    ExperimentBuilder& workloadSeed(std::uint64_t seed)
    {
        spec_.workload_seed = seed;
        return *this;
    }

    /**
     * Register a session observer: every session opened through
     * openSession() gets it attached (shared, so one TimeSeries can
     * also outlive the builder). Observers are not part of the spec —
     * build()/spec() stay pure data.
     */
    ExperimentBuilder& observe(std::shared_ptr<SessionObserver> observer)
    {
        observers_.push_back(std::move(observer));
        return *this;
    }

    /** The accumulated spec. */
    const ExperimentSpec& spec() const { return spec_; }

    /** The accumulated spec, by value (for storing / further tweaks). */
    ExperimentSpec build() const { return spec_; }

    /** One raw simulation (construct, warm up, measure). */
    sim::RunResult simulate() const { return harness::simulate(spec_); }

    /** Open a streaming session with the observe()d observers attached
     *  (the builder can be reused; each session gets its own machine). */
    SimSession openSession() const
    {
        SimSession session(spec_);
        for (const auto& o : observers_)
            session.addObserver(o);
        return session;
    }

    /** Evaluate against @p runner's cached no-prefetching baseline. */
    Runner::Outcome run(Runner& runner) const
    {
        return runner.evaluate(spec_);
    }

    /** Windowed evaluation through @p runner (streamed run + streamed,
     *  cached baseline over the same @p window_ends). */
    Runner::WindowedOutcome stream(
        Runner& runner, const std::vector<std::uint64_t>& window_ends) const
    {
        return runner.evaluateWindowed(spec_, window_ends);
    }

  private:
    ExperimentSpec spec_;
    std::vector<std::shared_ptr<SessionObserver>> observers_;
};

/** Entry points matching the fluent style:
 *  Experiment().workload("mix1").cores(4)... */
inline ExperimentBuilder
Experiment()
{
    return ExperimentBuilder{};
}

inline ExperimentBuilder
Experiment(std::string workload)
{
    return ExperimentBuilder{std::move(workload)};
}

} // namespace pythia::harness
