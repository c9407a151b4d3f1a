/**
 * @file
 * The serve workloads' client side: a pythia_serve daemon launched as
 * a child process, and a closed loop of ServeClient tenants replaying
 * captured record streams into it.
 */
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "harness/spec.hpp"
#include "service/wire.hpp"
#include "trace.hpp"
#include "workloads/trace.hpp"

namespace perfbench {

/** A pythia_serve child process listening on an ephemeral loopback
 *  port. The destructor stops it (SIGTERM, then SIGKILL) and waits. */
class Daemon
{
  public:
    /** Spawn @p exe with @p args plus listen=tcp:0 quiet=1 and wait
     *  (up to 30 s) for its "listening on" line. @throws
     *  std::runtime_error on failure. */
    Daemon(const std::string& exe, const std::vector<std::string>& args);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    const std::string& address() const { return address_; }
    pid_t pid() const { return pid_; }

    /** utime + stime of the daemon so far, in seconds. */
    double cpuSeconds() const;

    /** SIGTERM (graceful drain), wait up to 10 s, then SIGKILL.
     *  Returns the exit status as waitpid reports it (-1 if it had to
     *  be killed). */
    int stop();

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1; ///< read end of the daemon's stdout
    std::string address_;
};

/** One spec a tenant replays, with the records it streams. */
struct ServeCase
{
    pythia::harness::ExperimentSpec spec;
    std::vector<pythia::wl::TraceRecord> records;
};

/** Capture @p spec's record stream exactly as the offline SimSession
 *  would consume it (warmup + budget + gating slack). */
ServeCase captureCase(const pythia::harness::ExperimentSpec& spec);

/** Digest of a window series plus final result, both in wire
 *  encoding: equal digests mean byte-identical series. */
std::uint64_t seriesDigest(
    const std::vector<pythia::harness::WindowSample>& windows,
    const pythia::sim::RunResult& final_result);

/** The offline SimSession series of @p spec at @p window instrs. */
std::uint64_t offlineDigest(const pythia::harness::ExperimentSpec& spec,
                            std::uint64_t window);

/** What one replay measured. */
struct Replay
{
    std::size_t case_index = 0;
    bool ok = false;          ///< completed with a run end
    bool warm = false;        ///< HelloAck warm flag (pool hit)
    double open_s = 0.0;      ///< open(): Hello → HelloAck
    double replay_s = 0.0;    ///< open → run end
    double first_window_s = 0.0; ///< open → first Window frame
    std::vector<double> gaps_s;  ///< between consecutive Window frames
    std::uint64_t digest = 0;    ///< seriesDigest of what arrived
    std::uint64_t bytes = 0;     ///< frame bytes sent + received
    std::string error;
};

/**
 * Closed loop: @p clients threads, each opening a fresh tenant, streaming
 * its case to run end, then opening the next, until @p seconds have
 * passed and at least @p min_replays replays completed (capped at
 * @p max_seconds). Replay r uses case r % cases.size(). With
 * @p tracers non-empty (one per client), each replay records the spans
 * serve.replay > service.open, service.stream.
 */
std::vector<Replay> closedLoop(const std::string& address,
                               const std::vector<ServeCase>& cases,
                               std::uint64_t window, unsigned clients,
                               double seconds, std::size_t min_replays,
                               double max_seconds,
                               std::vector<Tracer>* tracers,
                               double* wall_s);

/** A top-level number from the daemon's stats JSON, e.g.
 *  "frames_rejected", or one inside its warm_pool object when
 *  @p in_pool is set. @throws std::runtime_error when absent. */
double statsValue(const std::string& json, const std::string& key,
                  bool in_pool = false);

} // namespace perfbench
