/**
 * @file
 * Trace-driven core model approximating a 4-wide out-of-order machine with
 * a 256-entry ROB (paper Table 5).
 *
 * The model is slot-based and O(1) per instruction: time is tracked in
 * dispatch/retire *slots* (1 cycle = `width` slots). An instruction
 * dispatches when the instruction `rob_size` older than it has retired
 * (ROB occupancy limit), completes after its execution or memory latency,
 * and retires in order at one slot per instruction. Loads gate retirement
 * on their memory completion; stores drain through a store buffer and do
 * not. This reproduces the two first-order effects prefetching studies
 * care about — memory latency exposure and ROB-limited MLP — at the same
 * fidelity class as ChampSim's simplified core.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/cache.hpp"
#include "workloads/trace.hpp"

namespace pythia::sim {

/** Core microarchitectural parameters. */
struct CoreConfig
{
    std::uint32_t rob_size = 256;
    std::uint32_t width = 4;          ///< dispatch & retire width
    Cycle nonmem_latency = 1;         ///< execute latency of non-memory ops
};

/**
 * One simulated core bound to a workload trace and an L1D port.
 */
class Core
{
  public:
    /**
     * @param cfg  core parameters
     * @param id   core id (also used to disambiguate address spaces of
     *             homogeneous multi-programmed mixes)
     * @param l1d  first-level data cache port
     * @param workload  trace source; replayed endlessly
     */
    Core(const CoreConfig& cfg, std::uint32_t id, MemoryLevel& l1d,
         wl::Workload& workload);

    // Non-copyable: the counter slots point into this object's stats_.
    Core(const Core&) = delete;
    Core& operator=(const Core&) = delete;

    /** Execute trace records until the retirement frontier passes
     *  @p until or nothing can proceed. */
    void runUntil(Cycle until);

    /** Retirement frontier, in cycles. */
    Cycle currentCycle() const { return last_retire_slot_ / cfg_.width; }

    /** Total instructions retired since construction. */
    std::uint64_t instrsRetired() const { return instr_count_; }

    /** Core id. */
    std::uint32_t id() const { return id_; }

    /** Per-core counters (loads, stores, instrs). */
    const StatGroup& stats() const { return stats_; }
    StatGroup& stats() { return stats_; }

    /** Trace records consumed since construction (snapshot bookkeeping:
     *  restore replays the workload this far). */
    std::uint64_t recordsConsumed() const { return records_consumed_; }

    /** Snapshot state (snapshot/archive.hpp): pipeline slots, the
     *  trace position and statistics. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.instr_count_, s.records_consumed_, s.next_dispatch_slot_,
           s.last_retire_slot_, s.last_load_done_);
        ar.table("core ROB", s.rob_retire_slot_);
        ar(s.stats_);
    }

    /**
     * Restore hook: position the bound workload by replay — reset() it
     * and discard recordsConsumed() records. Generators are
     * deterministic functions of their seed, so this reproduces the
     * exact mid-stream position without serializing generator
     * internals; an injected stream must yield the records the saved
     * run consumed.
     */
    void afterRestore();

  private:
    /** Dispatch one instruction completing at @p completion_cycle
     *  (memory ops) or after the fixed execute latency (pass 0). */
    void dispatch(Cycle completion_cycle);

    /** Dispatch @p n consecutive non-memory instructions — the trace
     *  gap. Same arithmetic as n dispatch(0) calls, with the ROB index
     *  reduced by mask (power-of-two sizes) and the slot state kept in
     *  registers across the run. */
    void dispatchNonMemRun(std::uint32_t n);

    /** Consume and execute one trace record (gap + memory op). */
    void step();

    CoreConfig cfg_;
    std::uint32_t id_;
    MemoryLevel& l1d_;
    wl::Workload& workload_;
    Addr addr_offset_;
    bool rob_pow2_ = false;       ///< rob_size is a power of two
    std::uint32_t rob_mask_ = 0;  ///< rob_size - 1 when rob_pow2_

    std::uint64_t instr_count_ = 0;
    std::uint64_t records_consumed_ = 0;
    std::uint64_t next_dispatch_slot_ = 0;
    std::uint64_t last_retire_slot_ = 0;
    Cycle last_load_done_ = 0; ///< completion of the most recent load
    std::vector<std::uint64_t> rob_retire_slot_;

    StatGroup stats_;
    // Per-instruction counters, resolved once (StatGroup::counterSlot).
    std::uint64_t* c_loads_;
    std::uint64_t* c_stores_;
    std::uint64_t* c_mem_instrs_;
};

} // namespace pythia::sim
