/**
 * @file
 * Peak resident memory of the benchmark's process tree, read from
 * /proc: the benchmark process itself plus every child it spawned
 * (shard workers, the pythia_serve daemon).
 */
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <thread>

namespace perfbench {

/**
 * Samples every 10 ms the sum of VmHWM (each process's own peak RSS)
 * over the live processes of the tree, and keeps the largest sum. A
 * process that lives for less than a sampling period can be missed.
 */
class RssWatcher
{
  public:
    RssWatcher();
    ~RssWatcher();
    RssWatcher(const RssWatcher&) = delete;
    RssWatcher& operator=(const RssWatcher&) = delete;

    /** Take one more sample now and return the peak in MB (2^20 B).
     *  @throws std::runtime_error when background sampling failed. */
    double peakMb();

    /** Stop sampling (idempotent). */
    void stop();

  private:
    void sample();

    std::mutex mu_;
    long peak_kb_ = 0;     ///< guarded by mu_
    std::string error_;    ///< guarded by mu_: why sampling stopped
    std::atomic<bool> stop_{false};
    std::thread thread_; ///< declared last: starts after the fields
};

/** utime + stime of this process so far, in seconds. */
double selfCpuSeconds();

} // namespace perfbench
