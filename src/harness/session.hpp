/**
 * @file
 * SimSession — the streaming run API.
 *
 * The batch entry point harness::simulate(spec) runs a machine to
 * completion and hands back one aggregate RunResult. A SimSession
 * exposes the same run as a stepped process:
 *
 *     harness::SimSession session(harness::ExperimentSpec{
 *         .workload = "Ligra-CC", .prefetcher = "pythia"});
 *     session.addObserver(series);            // e.g. a TimeSeries
 *     session.advance(25'000);                // warmup runs implicitly,
 *     session.advance(25'000);                // then measured windows
 *     auto& last = session.lastWindow();      // most recent delta
 *     auto& sofar = session.cumulative();     // since measurement start
 *     auto final = session.runToCompletion(); // spend the rest of the
 *                                             // sim_instrs budget
 *
 * Lifecycle: open (construct) → warmup (implicit before the first
 * window, or explicit via runWarmup()) → advance() windows until the
 * spec's sim_instrs budget is spent → run end. Typed observers
 * (SessionObserver) receive onWarmupEnd / onWindowEnd / onRunEnd hooks;
 * harness::TimeSeries (harness/timeseries.hpp) is the stock observer
 * that records every WindowSample for CSV/JSON emission.
 *
 * Determinism rule (DESIGN.md §8): a session that spends its whole
 * budget in ONE advance() is bit-identical to the pre-session batch
 * path — simulate() is literally implemented that way, which is what
 * keeps the golden-metrics grid pinned. Single-core execution is
 * window-invariant, so any window split yields the same cumulative
 * result. Multi-core window splits are deterministic but constitute a
 * different (still valid) core interleaving than one big window, and
 * each boundary excludes the cycles a finished core spends waiting for
 * the others — exactly as the batch loop excluded its final tail.
 *
 * Delta-snapshot semantics: every window's delta is a counter-snapshot
 * difference of cumulative RunResults, carrying raw per-core cycle and
 * DRAM-epoch counts. composeDeltas() over any window partition
 * therefore reproduces the cumulative aggregate bit-exactly (the
 * window-algebra property pinned by tests/test_session.cpp). The one
 * field that is not a counter is dram_utilization — an EWMA sampled at
 * window end; a delta carries the value at its own end, so composition
 * takes the last window's reading.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/spec.hpp"
#include "sim/system.hpp"
#include "snapshot/codec.hpp"

namespace pythia::harness {

class SimSession;

/**
 * Canonical "key=value;" configuration fingerprint of @p spec, embedded
 * in every snapshot file and re-checked on restore. Covers every field
 * that shapes machine state — workload/mix (canonicalized through the
 * workload registry), both prefetcher specs (warmup trains them; the
 * spec string carries every Pythia feature, action and reward), cores,
 * mtps, LLC size, warmup/sim budgets and seed — so a snapshot can never
 * be restored into a different experiment silently.
 */
std::string fingerprintFor(const ExperimentSpec& spec);

/** One measured window of a streamed session. */
struct WindowSample
{
    std::size_t index = 0;           ///< 0-based window number
    std::uint64_t instrs_begin = 0;  ///< cumulative measured instrs before
    std::uint64_t instrs_end = 0;    ///< cumulative measured instrs after
    sim::RunResult delta;            ///< this window only
    sim::RunResult cumulative;       ///< since measurement start

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.index, self.instrs_begin, self.instrs_end, self.delta,
           self.cumulative);
    }
};

/**
 * snap::save of a RunResult or a WindowSample: the bytes snapshot
 * files, the pythia-shard-v1 frames and the pythia-serve-v1 protocol
 * carry (fixed-width little-endian, floats as IEEE-754 bit patterns).
 * Read them back with snap::load.
 */
void writeRunResult(snap::Writer& w, const sim::RunResult& r);
void writeWindowSample(snap::Writer& w, const WindowSample& s);

/**
 * Observer hooks for a streamed session, registered through
 * SimSession::addObserver. Hooks run synchronously on the thread
 * driving the session, in registration order, and may introspect the
 * live machine through session.system().
 */
class SessionObserver
{
  public:
    virtual ~SessionObserver() = default;

    /** Warmup finished. Fires exactly once, before the first window —
     *  also for warmup_instrs == 0 (a zero-length warmup still marks
     *  the boundary between construction and measurement). */
    virtual void onWarmupEnd(SimSession& session) { (void)session; }

    /** One advance() window completed. */
    virtual void onWindowEnd(SimSession& session, const WindowSample& w)
    {
        (void)session;
        (void)w;
    }

    /** The sim_instrs budget is spent; @p final_result is the cumulative
     *  RunResult (bit-identical to what simulate() returns). */
    virtual void onRunEnd(SimSession& session,
                          const sim::RunResult& final_result)
    {
        (void)session;
        (void)final_result;
    }
};

/**
 * Window algebra over RunResults.
 *
 * windowDelta(now, prev) subtracts two cumulative snapshots of the same
 * measurement (prev may be empty ≙ all zero) and recomputes the derived
 * fields (per-core IPC, geomean, bucket fractions) from the subtracted
 * raw counts. accumulateDelta folds one delta into an accumulator;
 * composeDeltas folds a whole partition. Composing the deltas of any
 * window partition of a session reproduces its cumulative RunResult
 * bit-exactly.
 */
sim::RunResult windowDelta(const sim::RunResult& now,
                           const sim::RunResult& prev);
void accumulateDelta(sim::RunResult& acc, const sim::RunResult& delta);
sim::RunResult composeDeltas(const std::vector<sim::RunResult>& deltas);

/**
 * A resumable simulation run. Move-only; owns the sim::System.
 *
 * The spec's sim_instrs field is the session's measurement budget:
 * advance() clamps to what remains and the run ends (onRunEnd) when the
 * budget is spent. warmup_instrs runs implicitly before the first
 * window.
 */
class SimSession
{
  public:
    /** Build the machine and attach the spec's prefetchers. Throws
     *  std::invalid_argument on unknown workload/prefetcher specs. */
    explicit SimSession(ExperimentSpec spec);

    /**
     * Same, but drive the cores from @p workloads instead of resolving
     * the spec's workload/mix through the registry (the service layer
     * injects client-streamed workloads this way). An empty vector
     * falls back to workloadsFor(spec); otherwise the size must equal
     * spec.num_cores (std::invalid_argument). The spec's workload
     * fields still define the fingerprint — callers that inject a
     * different stream own that equivalence.
     */
    SimSession(ExperimentSpec spec,
               std::vector<std::unique_ptr<wl::Workload>> workloads);

    SimSession(SimSession&&) = default;
    SimSession& operator=(SimSession&&) = default;
    SimSession(const SimSession&) = delete;
    SimSession& operator=(const SimSession&) = delete;

    /**
     * Write the full session state — lifecycle flags, cumulative/last
     * window results, and the complete machine (caches, cores, DRAM,
     * prefetchers, RNG streams) — to @p path as a pythia-snap-v1 file
     * stamped with fingerprintFor(spec()). Atomic: the file appears
     * complete or not at all. @throws snap::IoError on I/O failure.
     */
    void snapshotTo(const std::string& path) const;

    /** The same pythia-snap-v1 image snapshotTo() writes, returned as
     *  bytes instead of a file. */
    std::vector<std::uint8_t> snapshotBytes() const;

    /**
     * Open a session for @p spec and restore the state saved by
     * snapshotTo(). The snapshot's fingerprint must match
     * fingerprintFor(spec) exactly (snap::FingerprintError otherwise,
     * with a field-by-field diff). A session resumed from a
     * post-warmup snapshot and then advanced is bit-identical to a
     * cold session running straight through. Observers are not part of
     * the snapshot — re-register them on the resumed session.
     */
    static SimSession resumeFrom(ExperimentSpec spec,
                                 const std::string& path);

    /** resumeFrom with injected workloads (see the two-arg ctor). The
     *  injected streams must replay the same records the snapshotted
     *  session consumed — restore re-derives workload position by
     *  replaying them from the start. */
    static SimSession
    resumeFrom(ExperimentSpec spec, const std::string& path,
               std::vector<std::unique_ptr<wl::Workload>> workloads);

    /** resumeFrom over an in-memory snapshot image (snapshotBytes()).
     *  Same validation and bit-exactness guarantees as the file path;
     *  diagnostics name @p label instead of a filename. */
    static SimSession
    resumeFromBytes(ExperimentSpec spec,
                    std::vector<std::uint8_t> bytes,
                    std::vector<std::unique_ptr<wl::Workload>> workloads,
                    const std::string& label = "<memory>");

    /**
     * A new session in the same state as this one, built over
     * @p workloads (see the two-arg ctor): snap::copy of the listed
     * state (lifecycle flags, window results, the machine). Cheaper
     * than a snapshotBytes() / resumeFromBytes() round trip — no
     * encode, checksum or decode —
     * and bit-identical to it: the fork and this session run the same
     * windows from here on. The injected streams must replay the
     * records this session consumed. Reads this session only, so
     * concurrent forks of one const session are safe. Observers are
     * not copied.
     */
    SimSession
    fork(std::vector<std::unique_ptr<wl::Workload>> workloads) const;

    /** Register a non-owning observer (must outlive the session). */
    void addObserver(SessionObserver* observer);

    /** Register a shared observer (kept alive by the session). */
    void addObserver(std::shared_ptr<SessionObserver> observer);

    /** Run the spec's warmup if it has not run yet (idempotent; fires
     *  onWarmupEnd exactly once, even for warmup_instrs == 0). */
    void runWarmup();

    /**
     * Step one measured window of up to @p n_instrs instructions per
     * core (clamped to the remaining sim_instrs budget; warmup runs
     * first if pending). Fires onWindowEnd, and onRunEnd when this
     * window exhausts the budget.
     * @return instructions actually advanced (0 when already done).
     */
    std::uint64_t advance(std::uint64_t n_instrs);

    /** Spend the remaining budget in one window and return the final
     *  cumulative RunResult. A fresh session finished this way is
     *  bit-identical to the batch simulate() path. */
    sim::RunResult runToCompletion();

    /** Cumulative RunResult since measurement start (empty-initialized
     *  before the first advance()). */
    const sim::RunResult& cumulative() const { return cumulative_; }

    /** Most recent WindowSample; throws std::logic_error before the
     *  first advance(). */
    const WindowSample& lastWindow() const;

    bool warmupDone() const { return warmup_done_; }
    bool done() const { return advanced_ >= spec_.sim_instrs; }
    std::uint64_t instrsAdvanced() const { return advanced_; }
    std::uint64_t instrsRemaining() const
    {
        return spec_.sim_instrs - advanced_;
    }
    std::size_t windowsCompleted() const { return windows_completed_; }

    /** The live machine, for introspection from observers or the
     *  driving loop (examples/live_introspection.cpp). */
    sim::System& system() { return *system_; }
    const sim::System& system() const { return *system_; }

    const ExperimentSpec& spec() const { return spec_; }

    /** The snapshot body: the lifecycle flags and window results in a
     *  `session` section, then the machine. Observers are not state. */
    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar.section("session", [&] {
            ar(self.warmup_done_, self.run_ended_, self.advanced_,
               self.windows_completed_, self.has_window_, self.cumulative_,
               self.last_);
        });
        ar(*self.system_);
    }

  private:
    void notifyRunEndOnce();

    ExperimentSpec spec_;
    std::unique_ptr<sim::System> system_;
    std::vector<SessionObserver*> observers_;
    std::vector<std::shared_ptr<SessionObserver>> owned_observers_;
    bool warmup_done_ = false;
    bool run_ended_ = false;
    std::uint64_t advanced_ = 0;
    std::size_t windows_completed_ = 0;
    sim::RunResult cumulative_;
    WindowSample last_;
    bool has_window_ = false;
};

} // namespace pythia::harness
