#include "sim/dram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hashing.hpp"

namespace pythia::sim {

Dram::Dram(const DramConfig& cfg)
    : cfg_(cfg), stats_("dram"),
      c_row_hits_(stats_.counterSlot("row_hits")),
      c_row_misses_(stats_.counterSlot("row_misses")),
      c_bus_busy_cycles_(stats_.counterSlot("bus_busy_cycles")),
      c_reads_(stats_.counterSlot("reads")),
      c_writes_(stats_.counterSlot("writes"))
{
    assert(cfg_.channels > 0 && cfg_.banks_per_rank > 0);
    assert(cfg_.mtps > 0);
    const double ns_per_cycle = 1000.0 / cfg_.core_mhz;
    t_rcd_ = static_cast<Cycle>(std::ceil(cfg_.t_rcd_ns / ns_per_cycle));
    t_rp_ = static_cast<Cycle>(std::ceil(cfg_.t_rp_ns / ns_per_cycle));
    t_cas_ = static_cast<Cycle>(std::ceil(cfg_.t_cas_ns / ns_per_cycle));

    // A 64B line needs kBlockSize / bus_bytes transfers; each transfer
    // takes core_mhz / mtps core cycles (MTPS counts bus transfers).
    const double transfers =
        static_cast<double>(kBlockSize) / cfg_.bus_bytes_per_transfer;
    const double cycles_per_transfer =
        static_cast<double>(cfg_.core_mhz) / cfg_.mtps;
    line_transfer_cycles_ = std::max<Cycle>(
        1, static_cast<Cycle>(std::llround(transfers * cycles_per_transfer)));

    banks_.resize(static_cast<std::size_t>(cfg_.channels) *
                  cfg_.ranks_per_channel * cfg_.banks_per_rank);
    bus_next_free_.assign(cfg_.channels, 0);

    // Address-mapping strength reduction: the default geometry is all
    // powers of two, so the per-access channel/bank/row arithmetic
    // reduces to masks and shifts (identical values — unsigned x % 2^k
    // == x & (2^k - 1), and division by a power of two is a shift).
    const auto pow2 = [](std::uint64_t v) {
        return v > 0 && (v & (v - 1)) == 0;
    };
    const auto log2of = [](std::uint64_t v) {
        std::uint32_t s = 0;
        while ((v >>= 1) != 0)
            ++s;
        return s;
    };
    const std::uint32_t bpc = cfg_.ranks_per_channel * cfg_.banks_per_rank;
    ch_mask_ = pow2(cfg_.channels) ? cfg_.channels - 1 : 0;
    ch_pow2_ = pow2(cfg_.channels);
    bank_mask_ = pow2(bpc) ? bpc - 1 : 0;
    bank_pow2_ = pow2(bpc);
    row_pow2_ = pow2(cfg_.row_bytes) && pow2(bpc) &&
                cfg_.row_bytes >= kBlockSize;
    row_shift_ = row_pow2_ ? log2of(cfg_.row_bytes) - kBlockShift +
                                 log2of(bpc)
                           : 0;
}

void
Dram::advanceEpoch(Cycle now)
{
    while (now >= epoch_start_ + cfg_.monitor_epoch) {
        // Exponentially-weighted estimate: reacts within a couple of
        // epochs but does not flap on one quiet epoch.
        const double epoch_util = std::min(
            1.0, static_cast<double>(busy_in_epoch_) / cfg_.monitor_epoch);
        util_ = 0.5 * util_ + 0.5 * epoch_util;
        int bucket;
        if (util_ < 0.25)
            bucket = 0;
        else if (util_ < 0.50)
            bucket = 1;
        else if (util_ < 0.75)
            bucket = 2;
        else
            bucket = 3;
        ++bucket_epochs_[bucket];
        busy_in_epoch_ = 0;
        epoch_start_ += cfg_.monitor_epoch;
    }
}

Cycle
Dram::access(Addr block, Cycle at, bool is_write)
{
    advanceEpoch(at);

    const std::uint64_t line = block;
    const std::uint32_t channel = static_cast<std::uint32_t>(
        ch_pow2_ ? (mix64(line >> 1) & ch_mask_)
                 : (mix64(line >> 1) % cfg_.channels));
    const std::uint32_t banks_per_channel =
        cfg_.ranks_per_channel * cfg_.banks_per_rank;
    const std::uint32_t bank_in_channel = static_cast<std::uint32_t>(
        bank_pow2_ ? ((line >> 5) & bank_mask_)
                   : ((line >> 5) % banks_per_channel));
    Bank& bank = banks_[static_cast<std::size_t>(channel) *
                            banks_per_channel + bank_in_channel];

    const std::uint64_t row =
        row_pow2_ ? (line >> row_shift_)
                  : (line << kBlockShift) / cfg_.row_bytes /
                        banks_per_channel;

    const Cycle start = std::max(at, bank.next_free);
    Cycle access_lat;
    if (bank.open_row == row) {
        access_lat = t_cas_;
        // Row hits pipeline: the bank accepts the next CAS after one
        // transfer slot even though this access's data arrives at tCAS.
        bank.next_free = start + line_transfer_cycles_;
        ++*c_row_hits_;
    } else {
        access_lat = t_rp_ + t_rcd_ + t_cas_;
        bank.open_row = row;
        // Activating a new row occupies the bank for precharge+activate.
        bank.next_free = start + t_rp_ + t_rcd_ + line_transfer_cycles_;
        ++*c_row_misses_;
    }
    const Cycle bank_done = start + access_lat;

    // Serialize the line transfer on the channel's data bus.
    Cycle& bus = bus_next_free_[channel];
    const Cycle bus_start = std::max(bank_done, bus);
    const Cycle done = bus_start + line_transfer_cycles_;
    bus = done;

    busy_in_epoch_ += line_transfer_cycles_;
    *c_bus_busy_cycles_ += line_transfer_cycles_;
    ++*(is_write ? c_writes_ : c_reads_);
    return done;
}

void
Dram::resetStats()
{
    stats_.reset();
    for (auto& b : bucket_epochs_)
        b = 0;
}

} // namespace pythia::sim
