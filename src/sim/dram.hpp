/**
 * @file
 * Main-memory model: channels, ranks, banks with open-row policy, a
 * serializing data bus per channel, and an epoch-based bandwidth monitor.
 *
 * Matches the modelling level of ChampSim's DRAM controller that the
 * paper measured on (Table 5): DDR4-2400-like timing (tRCD/tRP/tCAS), 64b
 * data bus per channel, 2KB row buffers, configurable channel count and a
 * transfer-rate (MTPS) knob used for the bandwidth-scaling studies of
 * Fig. 8(b)/8(d)/11.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/prefetcher_api.hpp"

namespace pythia::sim {

/** DRAM configuration; defaults model single-channel DDR4-2400 at a 4GHz
 *  core clock (paper Table 5). */
struct DramConfig
{
    std::uint32_t channels = 1;
    std::uint32_t ranks_per_channel = 1;
    std::uint32_t banks_per_rank = 8;
    std::uint32_t row_bytes = 2048;        ///< 2KB row buffer per bank
    std::uint32_t mtps = 2400;             ///< mega-transfers per second
    std::uint32_t core_mhz = 4000;         ///< core clock, for conversion
    std::uint32_t bus_bytes_per_transfer = 8; ///< 64-bit data bus
    double t_rcd_ns = 15.0;
    double t_rp_ns = 15.0;
    double t_cas_ns = 12.5;
    Cycle monitor_epoch = 4096;            ///< bandwidth monitor window
};

/**
 * The DRAM device pool. Accesses are resolved analytically: each bank and
 * each channel data bus tracks its next-free cycle, so queueing delay and
 * bus serialization (the key effects behind the paper's bandwidth
 * sensitivity results) emerge from contention.
 */
class Dram : public BandwidthInfo
{
  public:
    explicit Dram(const DramConfig& cfg);

    // Non-copyable: the counter slots point into this object's stats_.
    Dram(const Dram&) = delete;
    Dram& operator=(const Dram&) = delete;

    /**
     * Issue a 64B line read at @p at; returns the completion cycle (data
     * fully transferred on the channel bus).
     */
    Cycle access(Addr block, Cycle at, bool is_write);

    // BandwidthInfo
    double utilization() const override { return util_; }
    bool highUsage() const override { return util_ >= high_threshold_; }

    /** Threshold above which utilization counts as "high" (default 0.5). */
    void setHighThreshold(double t) { high_threshold_ = t; }

    /** Cycles a full 64B line occupies one channel's data bus. */
    Cycle lineTransferCycles() const { return line_transfer_cycles_; }

    /** Row-hit access latency in core cycles (tCAS). */
    Cycle rowHitCycles() const { return t_cas_; }

    /** Row-miss access latency in core cycles (tRP+tRCD+tCAS). */
    Cycle rowMissCycles() const { return t_rp_ + t_rcd_ + t_cas_; }

    /** Counters: reads, writes, row hits/misses, busy cycles. */
    const StatGroup& stats() const { return stats_; }
    StatGroup& stats() { return stats_; }

    /**
     * Elapsed epochs spent in each utilization bucket [<25%, 25-50%,
     * 50-75%, >=75%] — the Fig. 14 runtime breakdown, normalized by
     * RunResult::derive(). Raw counts subtract and add cleanly, which is
     * what makes per-window RunResult deltas composable.
     */
    std::vector<std::uint64_t> bucketEpochCounts() const
    {
        return {bucket_epochs_[0], bucket_epochs_[1], bucket_epochs_[2],
                bucket_epochs_[3]};
    }

    /** Reset statistics and the bucket histogram (keeps device state). */
    void resetStats();

    const DramConfig& config() const { return cfg_; }

    /** Snapshot state (snapshot/archive.hpp): bank and bus timing,
     *  the bandwidth monitor and statistics. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("dram banks", s.banks_);
        ar.table("dram channels", s.bus_next_free_);
        ar(s.epoch_start_, s.busy_in_epoch_, s.util_, s.bucket_epochs_,
           s.stats_);
    }

  private:
    struct Bank
    {
        Cycle next_free = 0;
        std::uint64_t open_row = ~0ull;

        template <class Self, class Ar>
        static void fields(Self& b, Ar& ar)
        {
            ar(b.next_free, b.open_row);
        }
    };

    void advanceEpoch(Cycle now);

    DramConfig cfg_;
    Cycle t_rcd_, t_rp_, t_cas_;
    Cycle line_transfer_cycles_;
    // Strength-reduced address mapping (power-of-two geometries; see
    // the constructor). Masks/shift are unused when the _pow2_ flag of
    // their term is false.
    bool ch_pow2_ = false, bank_pow2_ = false, row_pow2_ = false;
    std::uint64_t ch_mask_ = 0, bank_mask_ = 0;
    std::uint32_t row_shift_ = 0;
    double high_threshold_ = 0.5;

    std::vector<Bank> banks_;            ///< channels*ranks*banks
    std::vector<Cycle> bus_next_free_;   ///< per channel

    // Bandwidth monitor state.
    Cycle epoch_start_ = 0;
    Cycle busy_in_epoch_ = 0;
    double util_ = 0.0;
    std::uint64_t bucket_epochs_[4] = {0, 0, 0, 0};

    StatGroup stats_;
    // Per-access counters, resolved once (StatGroup::counterSlot).
    std::uint64_t* c_row_hits_;
    std::uint64_t* c_row_misses_;
    std::uint64_t* c_bus_busy_cycles_;
    std::uint64_t* c_reads_;
    std::uint64_t* c_writes_;
};

} // namespace pythia::sim
