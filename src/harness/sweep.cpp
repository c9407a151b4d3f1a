#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>

namespace pythia::harness {

// ------------------------------------------------------------------ Sweep

Sweep::JobId
Sweep::add(ExperimentSpec spec, JobCallback on_done)
{
    const JobId id = specs_.size();
    specs_.push_back(std::move(spec));
    tasks_.emplace_back();
    Action a;
    a.is_job = true;
    a.job = id;
    a.on_job = std::move(on_done);
    actions_.push_back(std::move(a));
    return id;
}

Sweep::JobId
Sweep::addTask(TaskFn task, JobCallback on_done)
{
    const JobId id = specs_.size();
    specs_.emplace_back();
    tasks_.push_back(std::move(task));
    Action a;
    a.is_job = true;
    a.job = id;
    a.on_job = std::move(on_done);
    actions_.push_back(std::move(a));
    return id;
}

void
Sweep::then(std::function<void()> action)
{
    Action a;
    a.is_job = false;
    a.plain = std::move(action);
    actions_.push_back(std::move(a));
}

void
Sweep::grid(const std::vector<std::string>& workloads,
            const std::vector<std::string>& prefetchers,
            const std::function<ExperimentSpec(
                const std::string&, const std::string&)>& make,
            const std::function<void(const std::string&,
                                     const std::string&,
                                     const Runner::Outcome&)>& done)
{
    for (const auto& w : workloads) {
        for (const auto& pf : prefetchers) {
            JobCallback cb;
            if (done)
                // Copy @p done: the caller's functor is often a
                // temporary that dies before the replay runs.
                cb = [done, w, pf](const Runner::Outcome& o) {
                    done(w, pf, o);
                };
            add(make(w, pf), std::move(cb));
        }
    }
}

void
Sweep::replay(const std::vector<Runner::Outcome>& results) const
{
    for (const Action& a : actions_) {
        if (a.is_job) {
            if (a.on_job)
                a.on_job(results[a.job]);
        } else if (a.plain) {
            a.plain();
        }
    }
}

// --------------------------------------------------------- ParallelRunner

unsigned
ParallelRunner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs), report_os_(&std::cerr)
{
}

std::vector<Runner::Outcome>
ParallelRunner::run(Runner& runner, const Sweep& sweep)
{
    const std::size_t n = sweep.specs_.size();
    std::vector<Runner::Outcome> results(n);
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, n == 0 ? 1 : n));

    // Per-job wall times; each slot is written by exactly one worker.
    std::vector<double> job_seconds(n, 0.0);
    const auto timed_evaluate = [&](std::size_t i) {
        const auto js = std::chrono::steady_clock::now();
        results[i] = sweep.tasks_[i] ? sweep.tasks_[i](runner)
                                     : runner.evaluate(sweep.specs_[i]);
        job_seconds[i] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - js)
                             .count();
    };

    const auto t0 = std::chrono::steady_clock::now();
    if (workers <= 1) {
        // Inline reference path: also the order the pool must match.
        for (std::size_t i = 0; i < n; ++i)
            timed_evaluate(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        // First failure *by job index*, so the rethrown error does not
        // depend on worker scheduling.
        std::mutex error_mutex;
        std::size_t error_job = n;
        std::exception_ptr error;

        auto work = [&] {
            while (!failed.load(std::memory_order_relaxed)) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    timed_evaluate(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (i < error_job) {
                        error_job = i;
                        error = std::current_exception();
                    }
                    failed.store(true, std::memory_order_relaxed);
                }
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(work);
        for (auto& t : pool)
            t.join();
        if (error)
            std::rethrow_exception(error);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;

    report_.experiments = n;
    report_.jobs = workers;
    report_.seconds = elapsed.count();
    report_.job_seconds = std::move(job_seconds);
    if (report_os_ && n > 0) {
        char line[128];
        std::snprintf(line, sizeof line,
                      "[sweep] %zu experiments in %.3f s — %.2f exp/s "
                      "(jobs=%u)\n",
                      n, report_.seconds,
                      report_.experimentsPerSecond(), workers);
        *report_os_ << line << std::flush;
    }

    // Ordered replay: declaration order, calling thread, no locking.
    sweep.replay(results);
    return results;
}

} // namespace pythia::harness
