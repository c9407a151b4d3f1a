/**
 * @file
 * The full simulated machine: N cores with private L1/L2, a shared LLC
 * and a shared DRAM pool, wired exactly like the paper's Table 5 system.
 * Provides the warmup-then-measure methodology of §5 and extracts the
 * per-run metrics the evaluation uses (IPC, LLC demand/read misses,
 * prefetch usefulness).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/core.hpp"
#include "sim/dram.hpp"
#include "workloads/trace.hpp"

namespace pythia::sim {

/** Whole-machine configuration; defaults reproduce the paper's Table 5
 *  single-core system. */
struct SystemConfig
{
    std::uint32_t num_cores = 1;
    CoreConfig core;
    CacheConfig l1;
    CacheConfig l2;
    std::uint64_t llc_bytes_per_core = 2ull << 20; ///< 2MB/core
    std::uint32_t llc_ways = 16;
    Cycle llc_latency = 34;
    std::uint32_t llc_mshrs_per_core = 64;
    std::string llc_replacement = "ship";
    DramConfig dram;
    Cycle quantum = 10000; ///< multi-core interleaving granularity

    SystemConfig();

    /** Scale the DRAM channel count with core count as in §6.2.1
     *  (1-2C: one channel, 4-6C: two, 8-12C: four). */
    void applyPaperChannelScaling();
};

/**
 * Metrics of one measured simulation window — either a full run, the
 * cumulative state of a streamed session, or a single window's delta
 * (see harness/session.hpp for the window algebra: deltas carry the raw
 * per-core cycle and DRAM-epoch counts so that composing them
 * reproduces the cumulative result bit-exactly).
 */
struct RunResult
{
    std::vector<double> ipc;             ///< per-core IPC
    double ipc_geomean = 0.0;            ///< geomean of per-core IPC
    std::uint64_t instructions = 0;      ///< per-core instruction budget
    std::uint64_t llc_demand_load_misses = 0;
    std::uint64_t llc_read_misses = 0;   ///< demand + prefetch misses
    std::uint64_t prefetch_issued = 0;   ///< at the prefetcher's level
    std::uint64_t prefetch_useful = 0;
    std::uint64_t prefetch_useless = 0;
    std::uint64_t prefetch_late = 0;
    std::vector<double> dram_buckets;    ///< Fig.14 utilization buckets
    double dram_utilization = 0.0;
    /** Measured cycles per core (the denominator behind ipc[]). */
    std::vector<std::uint64_t> core_cycles;
    /** Raw epoch counts behind dram_buckets (composable, unlike the
     *  normalized fractions). */
    std::vector<std::uint64_t> dram_bucket_epochs;

    /**
     * Prefetch accuracy = useful / issued.
     *
     * Zero-denominator convention: 1.0 when nothing was issued — a
     * prefetcher that stayed silent made no mispredictions, and sweeps
     * geomean accuracies so 0.0 would poison the aggregate. The ratio
     * is also clamped to 1.0 from above: prefetches issued during
     * warmup (or a previous window) can become useful inside this one,
     * so useful may exceed issued in a windowed reading.
     */
    double accuracy() const;

    /** Recompute the derived fields (per-core ipc, ipc_geomean and
     *  dram_buckets) from instructions, core_cycles and
     *  dram_bucket_epochs. */
    void derive();

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.ipc, self.ipc_geomean, self.instructions,
           self.llc_demand_load_misses, self.llc_read_misses,
           self.prefetch_issued, self.prefetch_useful,
           self.prefetch_useless, self.prefetch_late, self.dram_buckets,
           self.dram_utilization, self.core_cycles,
           self.dram_bucket_epochs);
    }
};

/**
 * The machine. Owns every component; workloads are cloned per core by the
 * caller and handed over at construction.
 */
class System
{
  public:
    System(const SystemConfig& cfg,
           std::vector<std::unique_ptr<wl::Workload>> workloads);
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    /** Attach an L2 prefetcher to @p core (the paper's default level). */
    void attachL2Prefetcher(std::uint32_t core,
                            std::unique_ptr<PrefetcherApi> pf);

    /** Attach an L1D prefetcher to @p core (multi-level schemes, §6.2.4). */
    void attachL1Prefetcher(std::uint32_t core,
                            std::unique_ptr<PrefetcherApi> pf);

    /** Run @p instrs_per_core instructions per core without measuring. */
    void warmup(std::uint64_t instrs_per_core);

    /**
     * Measure a window of @p instrs_per_core instructions per core.
     * Exactly beginMeasurement() + stepMeasuredTo() + collectResult() —
     * the monolithic run loop of the batch era is gone, so a streamed
     * session that advances the same budget in one step is bit-identical
     * to this call by construction.
     */
    RunResult run(std::uint64_t instrs_per_core);

    /**
     * Start (or restart) a measurement: resets every statistic,
     * captures each core's retirement count as the measurement origin
     * and clears the per-core measured-cycle accumulators. Subsequent
     * stepMeasuredTo() windows accrue into one cumulative result.
     */
    void beginMeasurement();

    /**
     * Advance every core to @p nominal_cumulative measured instructions
     * since beginMeasurement() (one window; must exceed the previous
     * target). Targets are absolute — core c runs until its retirement
     * count reaches origin_c + nominal_cumulative — so superscalar
     * overshoot at one window boundary does not shift later boundaries:
     * a single-core measurement cut into any window partition retires
     * through the exact same machine states as one big window. Cores
     * that hit the target keep running (trace replay) until every core
     * has — those wait cycles are excluded from the finished cores'
     * measured cycles, exactly as the batch loop excluded its tail.
     */
    void stepMeasuredTo(std::uint64_t nominal_cumulative);

    /** Cumulative RunResult since beginMeasurement() (counter snapshot:
     *  cheap, callable after every window). */
    RunResult collectResult() const;

    /** Measured instructions per core since beginMeasurement(). */
    std::uint64_t measuredInstrs() const { return measured_instrs_; }

    /**
     * Snapshot state (snapshot/archive.hpp, DESIGN.md §9): named
     * sections "machine" (measurement bookkeeping), "dram", "llc", then
     * "l2.<c>"/"l1.<c>"/"core.<c>" per core and "pf.<i>" per attached
     * prefetcher in attach order. Prefetchers are opaque codecs: a copy
     * goes through their saveState()/loadState() in memory, and their
     * footprint is their encoded size. A load or a copy re-derives
     * workload positions by replay (Core::afterRestore), so a copy's
     * workloads must yield the records its source consumed; a copy
     * between differently configured machines throws
     * std::invalid_argument and leaves this machine partially copied.
     */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        const std::uint32_t cores = s.cfg_.num_cores;
        ar.section("machine", [&] {
            ar.expect("machine cores", cores);
            ar.expect("machine prefetchers",
                      static_cast<std::uint64_t>(s.prefetchers_.size()));
            ar(s.measuring_, s.measured_instrs_);
            ar.list("machine measure origins", s.measure_origin_, cores);
            ar.list("machine measured cycles", s.measured_cycles_, cores);
        });
        ar.section("dram", *s.dram_);
        ar.section("llc", *s.llc_);
        for (std::uint32_t c = 0; c < cores; ++c) {
            const std::string n = std::to_string(c);
            ar.section("l2." + n, *s.l2_[c]);
            ar.section("l1." + n, *s.l1_[c]);
            ar.section("core." + n, *s.cores_[c]);
        }
        for (std::size_t i = 0; i < s.prefetchers_.size(); ++i)
            ar.section("pf." + std::to_string(i), *s.prefetchers_[i]);
    }

    /** Host bytes of the listed state (snap::footprint). Workload
     *  records are not included — their owner counts them. */
    std::size_t footprintBytes() const;

    Dram& dram() { return *dram_; }
    Cache& llc() { return *llc_; }
    Cache& l2(std::uint32_t core) { return *l2_[core]; }
    Cache& l1(std::uint32_t core) { return *l1_[core]; }
    Core& core(std::uint32_t core) { return *cores_[core]; }
    std::uint32_t numCores() const { return cfg_.num_cores; }
    const SystemConfig& config() const { return cfg_; }

  private:
    void resetAllStats();

    bool measuring_ = false;
    std::uint64_t measured_instrs_ = 0;          ///< nominal cumulative
    std::vector<std::uint64_t> measure_origin_;  ///< retired at begin
    std::vector<std::uint64_t> measured_cycles_; ///< per core

    SystemConfig cfg_;
    std::vector<std::unique_ptr<wl::Workload>> workloads_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<DramLevel> dram_level_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<PrefetcherApi>> prefetchers_;
};

} // namespace pythia::sim
