/**
 * @file
 * Declarative sweep execution engine.
 *
 * A Sweep is an ordered list of ExperimentSpecs — typically the cartesian
 * product of workloads x prefetcher specs x machine-config axes that one
 * paper figure reports — plus, per job, an optional completion callback.
 * A ParallelRunner executes the job list on a fixed pool of worker
 * threads (each sim::System is self-contained, so experiments are
 * embarrassingly parallel), then invokes every callback *on the calling
 * thread, in declaration order*, so a bench's table-building code needs
 * no locking and produces byte-identical output for jobs=1 and jobs=16.
 *
 *     harness::Runner runner;
 *     harness::Sweep sweep;
 *     for (const auto& w : workloads)
 *         for (const auto& pf : prefetchers)
 *             sweep.add({.workload = w, .prefetcher = pf},
 *                       [&](const harness::Runner::Outcome& o) {
 *                           table.addRow({w, pf,
 *                                         Table::fmt(o.metrics.speedup)});
 *                       });
 *     harness::ParallelRunner(jobs).run(runner, sweep);
 *
 * Interleave Sweep::then() actions between adds to aggregate groups of
 * jobs (suite geomeans, per-row rollups): they run in the same ordered
 * replay as the job callbacks. Baseline de-duplication is inherited from
 * Runner, whose cache computes each no-prefetching baseline exactly once
 * no matter how many workers request it concurrently.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace pythia::harness {

/**
 * An ordered list of experiments with per-job completion callbacks.
 *
 * Declaration order is the contract: ParallelRunner::run returns outcomes
 * indexed by JobId (the value add() returned) and replays callbacks and
 * then() actions in exactly the order they were added, regardless of
 * which worker finished which job first.
 */
class Sweep
{
  public:
    /** Index of a job within this sweep (also its slot in the results). */
    using JobId = std::size_t;
    /** Invoked with the job's outcome during the ordered replay. */
    using JobCallback = std::function<void(const Runner::Outcome&)>;
    /** A custom job body, executed on a worker thread. */
    using TaskFn = std::function<Runner::Outcome(Runner&)>;

    /** Append one experiment; @p on_done may be empty. */
    JobId add(ExperimentSpec spec, JobCallback on_done = {});

    /**
     * Append a custom job: @p task runs on a worker thread with the
     * shared Runner and its returned Outcome lands in the results slot
     * like any other job's. This is how session-shaped work (e.g.
     * Runner::evaluateWindowed streaming one cell of bench_fig23) rides
     * the same pool, ordered replay and perf accounting as plain spec
     * jobs. The task must confine side effects to state the callback
     * reads afterwards (the replay is ordered; the execution is not).
     */
    JobId addTask(TaskFn task, JobCallback on_done = {});

    /**
     * Append an ordered action with no job of its own: it runs after the
     * callbacks of every job added before it (and before those of every
     * job added after). Use it to emit a table row that aggregates the
     * preceding group of jobs.
     */
    void then(std::function<void()> action);

    /**
     * Cartesian-product helper for the common two-axis grid: adds one
     * job per (workload, prefetcher) pair in row-major order.
     * @p make builds the experiment for a pair; @p done (optional)
     * receives the pair and its outcome during the ordered replay.
     */
    void grid(const std::vector<std::string>& workloads,
              const std::vector<std::string>& prefetchers,
              const std::function<ExperimentSpec(
                  const std::string& workload,
                  const std::string& prefetcher)>& make,
              const std::function<void(const std::string& workload,
                                       const std::string& prefetcher,
                                       const Runner::Outcome&)>& done = {});

    /** Number of jobs added so far. */
    std::size_t size() const { return specs_.size(); }

    bool empty() const { return specs_.empty(); }

    /** Spec of job @p id (declaration order; a default-constructed spec
     *  for addTask() jobs, which carry their work in the task body). */
    const ExperimentSpec& spec(JobId id) const { return specs_.at(id); }

    /** True when job @p id was added via addTask(): its work is a
     *  closure, so it cannot cross a process boundary (the shard
     *  coordinator runs such jobs locally and never journals them). */
    bool isTask(JobId id) const
    {
        return static_cast<bool>(tasks_.at(id));
    }

  private:
    friend class ParallelRunner;
    friend class ShardCoordinator;

    /** One step of the ordered replay: a job's callback or a then(). */
    struct Action
    {
        bool is_job = false;
        JobId job = 0;                ///< valid when is_job
        JobCallback on_job;           ///< may be empty
        std::function<void()> plain;  ///< valid when !is_job
    };

    /** Run every job callback and then() action in declaration order
     *  on the calling thread, with @p results indexed by JobId. */
    void replay(const std::vector<Runner::Outcome>& results) const;

    std::vector<ExperimentSpec> specs_;
    std::vector<TaskFn> tasks_; ///< parallel to specs_; empty = spec job
    std::vector<Action> actions_;
};

/** Wall-clock accounting for one executed sweep. */
struct SweepReport
{
    std::size_t experiments = 0; ///< jobs executed
    unsigned jobs = 1;           ///< worker threads used
    double seconds = 0.0;        ///< wall-clock of the parallel phase
    /** Per-job wall time, indexed by JobId (evaluate() call only, not
     *  queueing) — the raw samples behind the p50/p95 a PerfReport
     *  publishes. */
    std::vector<double> job_seconds;

    /** Throughput; 0 when nothing ran. */
    double experimentsPerSecond() const
    {
        return seconds > 0.0 ? experiments / seconds : 0.0;
    }
};

/**
 * Fixed-thread-pool executor for Sweeps.
 *
 * Workers pull jobs from a shared atomic cursor and evaluate them
 * through one shared (thread-safe) Runner; results land in a
 * declaration-order vector. jobs=1 executes inline on the calling
 * thread with no pool, which is also the reference order the parallel
 * path must reproduce byte-for-byte.
 *
 * The throughput line goes to stderr, never stdout, so the tables and
 * CSVs a bench prints are identical whatever the worker count.
 */
class ParallelRunner
{
  public:
    /** Worker count used for jobs=0: hardware_concurrency, at least 1. */
    static unsigned defaultJobs();

    /** @param jobs Worker threads; 0 means defaultJobs(). */
    explicit ParallelRunner(unsigned jobs = 0);

    /** Resolved worker count. */
    unsigned jobs() const { return jobs_; }

    /** Where the per-sweep throughput line goes (default std::cerr);
     *  pass nullptr to silence it. */
    ParallelRunner& reportTo(std::ostream* os)
    {
        report_os_ = os;
        return *this;
    }

    /**
     * Execute every job of @p sweep, replay callbacks and then() actions
     * in declaration order on the calling thread, print the throughput
     * line, and return the outcomes indexed by JobId. The first job
     * exception (in job order) is rethrown after the pool drains; no
     * callbacks run in that case.
     */
    std::vector<Runner::Outcome> run(Runner& runner, const Sweep& sweep);

    /** Accounting for the most recent run(). */
    const SweepReport& lastReport() const { return report_; }

  private:
    unsigned jobs_;
    std::ostream* report_os_;
    SweepReport report_;
};

} // namespace pythia::harness
