/**
 * @file
 * Experiment runner: builds a System for a named workload + prefetcher +
 * machine configuration, performs the paper's warmup-then-measure
 * methodology, and caches no-prefetching baselines so suite-wide sweeps
 * pay for each baseline only once.
 *
 * Simulation lengths are scaled-down analogues of the paper's 100M-warmup
 * / 500M-measure windows, chosen so the full benchmark set completes on a
 * laptop; the relative comparisons the figures make are preserved (see
 * DESIGN.md §4).
 */
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "harness/metrics.hpp"
#include "harness/session.hpp"
#include "harness/spec.hpp"
#include "harness/timeseries.hpp"
#include "sim/system.hpp"

namespace pythia::harness {

/** Translate an ExperimentSpec into a full SystemConfig. */
sim::SystemConfig systemConfigFor(const ExperimentSpec& spec);

/** Build the per-core workload list for @p spec (clones for homogeneous
 *  multi-core runs, per-entry resolution for heterogeneous mixes).
 *  Accepts catalog names and registry workload specs alike. */
std::vector<std::unique_ptr<wl::Workload>>
workloadsFor(const ExperimentSpec& spec);

/**
 * Resolve every workload and prefetcher spec of @p spec once, so a
 * command line can reject a bad name as a usage error before any
 * simulation starts. @throws std::invalid_argument as the registries do.
 */
void checkSpec(const ExperimentSpec& spec);

/**
 * Run one experiment end to end (construct, warm up, measure).
 *
 * Thin wrapper over the streaming API: opens a SimSession
 * (harness/session.hpp) and spends the whole sim_instrs budget in one
 * window, which is bit-identical to the historical batch loop — the
 * golden-metrics suite pins exactly this path.
 */
sim::RunResult simulate(const ExperimentSpec& spec);

/**
 * Runner with baseline caching: evaluate() returns the run, the matching
 * no-prefetching baseline (computed at most once per machine+workload
 * key) and the derived paper metrics.
 *
 * Thread-safe: any number of ParallelRunner workers may call evaluate()
 * on one shared Runner. The cache holds a shared_future per baseline
 * key; the first thread to need a key claims it under the lock and
 * simulates outside it, while every other thread requesting the same
 * key blocks on the future — each baseline is computed exactly once,
 * never raced and never duplicated.
 */
class Runner
{
  public:
    struct Outcome
    {
        sim::RunResult run;
        sim::RunResult baseline;
        Metrics metrics;
    };

    /**
     * Windowed evaluation: the prefetched run and its baseline both
     * execute as streamed sessions over the same window boundaries.
     */
    struct WindowedOutcome
    {
        TimeSeries run;      ///< per-window samples of the prefetched run
        TimeSeries baseline; ///< aligned samples of the no-pf baseline
        Outcome final;       ///< cumulative run/baseline + paper metrics
    };

    /** Evaluate @p spec against its cached no-prefetching baseline. */
    Outcome evaluate(const ExperimentSpec& spec);

    /**
     * Evaluate @p spec as a streamed session observed at
     * @p window_ends — strictly increasing cumulative measured-instr
     * boundaries whose last entry must equal spec.sim_instrs (throws
     * std::invalid_argument otherwise). The matching no-prefetching
     * baseline is streamed over the same boundaries and cached per
     * (baseline key, boundaries) with the same once-semantics as
     * evaluate()'s batch cache, so suite-wide windowed sweeps pay for
     * each baseline series exactly once. Thread-safe.
     *
     * With a single boundary {spec.sim_instrs} this degenerates to
     * evaluate(): final run/baseline/metrics are bit-identical.
     */
    WindowedOutcome evaluateWindowed(
        const ExperimentSpec& spec,
        const std::vector<std::uint64_t>& window_ends);

    /** Number of baseline simulations performed (or claimed) so far. */
    std::size_t baselinesComputed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return baselines_.size();
    }

    /** Number of windowed baseline series computed (or claimed). */
    std::size_t windowedBaselinesComputed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return windowed_baselines_.size();
    }

    /**
     * Cache key of the no-prefetching baseline @p spec evaluates
     * against: every ExperimentSpec field that can change the baseline
     * run, unambiguously encoded. Exposed for regression tests.
     */
    static std::string baselineKey(const ExperimentSpec& spec);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_future<sim::RunResult>> baselines_;
    std::map<std::string, std::shared_future<TimeSeries>>
        windowed_baselines_;
};

} // namespace pythia::harness
