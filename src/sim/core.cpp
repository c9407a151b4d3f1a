#include "sim/core.hpp"

#include <algorithm>
#include <cassert>

namespace pythia::sim {

Core::Core(const CoreConfig& cfg, std::uint32_t id, MemoryLevel& l1d,
           wl::Workload& workload)
    : cfg_(cfg), id_(id), l1d_(l1d), workload_(workload),
      addr_offset_(static_cast<Addr>(id) << 46),
      rob_retire_slot_(cfg.rob_size, 0), stats_("core"),
      c_loads_(stats_.counterSlot("loads")),
      c_stores_(stats_.counterSlot("stores")),
      c_mem_instrs_(stats_.counterSlot("mem_instrs"))
{
    assert(cfg_.rob_size > 0 && cfg_.width > 0);
    rob_pow2_ = (cfg_.rob_size & (cfg_.rob_size - 1)) == 0;
    rob_mask_ = cfg_.rob_size - 1;
}

void
Core::dispatch(Cycle completion_cycle)
{
    const std::uint32_t width = cfg_.width;
    std::uint64_t ds = next_dispatch_slot_;

    // ROB occupancy: the instruction rob_size older must have retired.
    const std::uint64_t rob_idx = rob_pow2_
                                      ? (instr_count_ & rob_mask_)
                                      : (instr_count_ % cfg_.rob_size);
    ds = std::max(ds, rob_retire_slot_[rob_idx]);

    std::uint64_t completion_slot;
    if (completion_cycle == 0) {
        completion_slot = ds + cfg_.nonmem_latency * width;
    } else {
        completion_slot = std::max(ds + width, completion_cycle * width);
    }

    // In-order retirement, one slot per instruction.
    const std::uint64_t retire_slot =
        std::max(last_retire_slot_ + 1, completion_slot);
    rob_retire_slot_[rob_idx] = retire_slot;
    last_retire_slot_ = retire_slot;
    next_dispatch_slot_ = ds + 1;
    ++instr_count_;
}

void
Core::dispatchNonMemRun(std::uint32_t n)
{
    const std::uint64_t lat_slots =
        static_cast<std::uint64_t>(cfg_.nonmem_latency) * cfg_.width;
    std::uint64_t ic = instr_count_;
    std::uint64_t nds = next_dispatch_slot_;
    std::uint64_t lrs = last_retire_slot_;
    std::uint64_t* rob = rob_retire_slot_.data();

    if (rob_pow2_) {
        const std::uint64_t mask = rob_mask_;
        for (std::uint32_t g = 0; g < n; ++g) {
            const std::uint64_t idx = ic & mask;
            const std::uint64_t ds = std::max(nds, rob[idx]);
            const std::uint64_t retire = std::max(lrs + 1, ds + lat_slots);
            rob[idx] = retire;
            lrs = retire;
            nds = ds + 1;
            ++ic;
        }
    } else {
        for (std::uint32_t g = 0; g < n; ++g) {
            const std::uint64_t idx = ic % cfg_.rob_size;
            const std::uint64_t ds = std::max(nds, rob[idx]);
            const std::uint64_t retire = std::max(lrs + 1, ds + lat_slots);
            rob[idx] = retire;
            lrs = retire;
            nds = ds + 1;
            ++ic;
        }
    }

    instr_count_ = ic;
    next_dispatch_slot_ = nds;
    last_retire_slot_ = lrs;
}

void
Core::step()
{
    const wl::TraceRecord rec = workload_.next();
    ++records_consumed_;

    if (rec.gap > 0)
        dispatchNonMemRun(rec.gap);

    Cycle issue_cycle = next_dispatch_slot_ / cfg_.width;
    // Address-dependent loads cannot issue before the producing load's
    // data returns (pointer chase / loaded index).
    if (rec.depends_on_prev && !rec.is_write)
        issue_cycle = std::max(issue_cycle, last_load_done_);

    MemAccess req;
    req.pc = rec.pc;
    req.block = blockAddr(rec.addr + addr_offset_);
    req.type = rec.is_write ? AccessType::Store : AccessType::Load;
    req.at = issue_cycle;
    req.core = id_;
    const Cycle done = l1d_.access(req);

    if (rec.is_write) {
        // Stores retire through the store buffer without waiting on memory.
        dispatch(0);
        ++*c_stores_;
    } else {
        dispatch(done);
        last_load_done_ = done;
        ++*c_loads_;
    }
    ++*c_mem_instrs_;
}

void
Core::runUntil(Cycle until)
{
    while (currentCycle() < until)
        step();
}

void
Core::afterRestore()
{
    workload_.reset();
    for (std::uint64_t i = 0; i < records_consumed_; ++i)
        (void)workload_.next();
}

} // namespace pythia::sim
