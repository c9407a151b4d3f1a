#include "harness/runner.hpp"

#include <sstream>
#include <stdexcept>

#include "common/hashing.hpp"
#include "harness/session.hpp"
#include "sim/prefetcher_registry.hpp"
#include "workloads/suites.hpp"

namespace pythia::harness {

namespace {

/** Stream an already-warmed session over @p window_ends, recording
 *  every window. */
TimeSeries
streamSeries(SimSession session,
             const std::vector<std::uint64_t>& window_ends)
{
    TimeSeries series;
    session.addObserver(&series);
    for (std::uint64_t end : window_ends)
        session.advance(end - session.instrsAdvanced());
    return series;
}

/** Open @p spec the paper's way: construct, warm up, ready to measure. */
SimSession
warmSession(const ExperimentSpec& spec)
{
    SimSession session(spec);
    session.runWarmup();
    return session;
}

/** True when @p spec runs no prefetcher, i.e. is its own baseline. */
bool
isBaseline(const ExperimentSpec& spec)
{
    return spec.prefetcher == "none" && spec.l1_prefetcher == "none";
}

/** The no-prefetching baseline of @p spec: same machine, workload and
 *  windows, prefetchers "none". */
ExperimentSpec
baselineSpec(const ExperimentSpec& spec)
{
    ExperimentSpec base = spec;
    base.prefetcher = "none";
    base.l1_prefetcher = "none";
    return base;
}

/**
 * Per-key once-semantics over @p cache: exactly one thread claims
 * @p key under @p mutex and runs @p compute outside it; everyone else
 * waits on the shared future. A failed computation propagates its
 * exception to every waiter (the spec is deterministic, so a retry
 * would throw the same way).
 */
template <class T, class Compute>
std::shared_future<T>
computeOnce(std::mutex& mutex,
            std::map<std::string, std::shared_future<T>>& cache,
            const std::string& key, Compute compute)
{
    std::promise<T> promise;
    std::shared_future<T> future;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto [it, claimed] = cache.try_emplace(key);
        if (!claimed)
            return it->second;
        future = it->second = promise.get_future().share();
    }
    try {
        promise.set_value(compute());
    } catch (...) {
        promise.set_exception(std::current_exception());
    }
    return future;
}

} // namespace

sim::SystemConfig
systemConfigFor(const ExperimentSpec& spec)
{
    sim::SystemConfig cfg;
    cfg.num_cores = spec.num_cores;
    cfg.applyPaperChannelScaling();
    cfg.dram.mtps = spec.mtps;
    cfg.llc_bytes_per_core = spec.llc_bytes_per_core;
    return cfg;
}

std::vector<std::unique_ptr<wl::Workload>>
workloadsFor(const ExperimentSpec& spec)
{
    std::vector<std::unique_ptr<wl::Workload>> out;
    if (!spec.mix.empty()) {
        if (spec.mix.size() != spec.num_cores)
            throw std::invalid_argument(
                "mix size must equal num_cores");
        for (std::size_t i = 0; i < spec.mix.size(); ++i)
            out.push_back(wl::makeWorkload(
                spec.mix[i],
                spec.workload_seed ? mix64(spec.workload_seed + i) : 0));
        return out;
    }
    for (std::uint32_t c = 0; c < spec.num_cores; ++c) {
        // Homogeneous mixes run n copies with distinct seeds, standing in
        // for the distinct physical pages n trace copies would touch.
        const std::uint64_t reseed =
            spec.workload_seed
                ? mix64(spec.workload_seed + c)
                : (c == 0 ? 0 : mix64(0x5EEDull + c));
        out.push_back(wl::makeWorkload(spec.workload, reseed));
    }
    return out;
}

void
checkSpec(const ExperimentSpec& spec)
{
    (void)workloadsFor(spec);
    (void)sim::makePrefetcher(spec.prefetcher);
    (void)sim::makePrefetcher(spec.l1_prefetcher);
}

sim::RunResult
simulate(const ExperimentSpec& spec)
{
    return SimSession(spec).runToCompletion();
}

std::string
Runner::baselineKey(const ExperimentSpec& spec)
{
    // Every field that changes the no-prefetching run participates; the
    // prefetcher fields do not (the baseline resets them). Field
    // separators are control characters that cannot occur in catalog
    // names or registry specs, and the mix is length-prefixed, so
    // distinct specs can never collide on one key.
    // A mix overrides the workload name in workloadsFor(), so a set mix
    // also canonicalizes away the (ignored) workload field here.
    // Workload names canonicalize through the registry
    // (wl::canonicalWorkloadSpec): two spellings of one parameterized
    // spec — key order, whitespace, an explicit default phase length —
    // construct the same stream and must share one cached baseline.
    std::ostringstream key;
    if (spec.mix.empty()) {
        key << "w:" << wl::canonicalWorkloadSpec(spec.workload);
    } else {
        key << "m:" << spec.mix.size();
        for (const auto& m : spec.mix)
            key << '\x1e' << wl::canonicalWorkloadSpec(m);
    }
    key << '\x1f' << spec.num_cores << '\x1f' << spec.mtps << '\x1f'
        << spec.llc_bytes_per_core << '\x1f' << spec.warmup_instrs
        << '\x1f' << spec.sim_instrs << '\x1f' << spec.workload_seed;
    return key.str();
}

Runner::Outcome
Runner::evaluate(const ExperimentSpec& spec)
{
    const auto baseline =
        computeOnce(mutex_, baselines_, baselineKey(spec), [&] {
            return warmSession(baselineSpec(spec)).runToCompletion();
        });

    Outcome out;
    out.baseline = baseline.get();
    out.run = isBaseline(spec) ? out.baseline
                               : warmSession(spec).runToCompletion();
    out.metrics = computeMetrics(out.run, out.baseline);
    return out;
}

Runner::WindowedOutcome
Runner::evaluateWindowed(const ExperimentSpec& spec,
                         const std::vector<std::uint64_t>& window_ends)
{
    if (window_ends.empty())
        throw std::invalid_argument(
            "evaluateWindowed: window_ends must not be empty");
    std::uint64_t prev = 0;
    for (std::uint64_t end : window_ends) {
        if (end <= prev)
            throw std::invalid_argument(
                "evaluateWindowed: window_ends must be strictly "
                "increasing and non-zero");
        prev = end;
    }
    if (window_ends.back() != spec.sim_instrs)
        throw std::invalid_argument(
            "evaluateWindowed: last window end (" +
            std::to_string(window_ends.back()) +
            ") must equal spec.sim_instrs (" +
            std::to_string(spec.sim_instrs) + ")");

    // Windowed-baseline cache key: the batch baseline key plus the
    // boundary list (a different window split is a different series).
    std::ostringstream key_os;
    key_os << baselineKey(spec);
    for (std::uint64_t end : window_ends)
        key_os << '\x1f' << end;
    const auto baseline =
        computeOnce(mutex_, windowed_baselines_, key_os.str(), [&] {
            return streamSeries(warmSession(baselineSpec(spec)),
                                window_ends);
        });

    WindowedOutcome out;
    out.baseline = baseline.get();
    out.run = isBaseline(spec)
                  ? out.baseline
                  : streamSeries(warmSession(spec), window_ends);
    out.final.run = out.run.finalResult();
    out.final.baseline = out.baseline.finalResult();
    out.final.metrics = computeMetrics(out.final.run, out.final.baseline);
    return out;
}

} // namespace pythia::harness
