#include "sim/system.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/table.hpp"
#include "snapshot/archive.hpp"

namespace pythia::sim {

SystemConfig::SystemConfig()
{
    l1.name = "l1d";
    l1.size_bytes = 32 * 1024;
    l1.ways = 8;
    l1.lookup_latency = 4;
    l1.mshrs = 16;
    l1.replacement = "lru";

    l2.name = "l2";
    l2.size_bytes = 256 * 1024;
    l2.ways = 8;
    l2.lookup_latency = 10; // L1->L2 round trip of 14 minus L1's 4
    l2.mshrs = 32;
    l2.replacement = "lru";
}

void
SystemConfig::applyPaperChannelScaling()
{
    if (num_cores <= 2)
        dram.channels = 1;
    else if (num_cores <= 6)
        dram.channels = 2;
    else
        dram.channels = 4;
    dram.ranks_per_channel = (num_cores <= 2) ? 1 : 2;
}

double
RunResult::accuracy() const
{
    if (prefetch_issued == 0)
        return 1.0;
    // Prefetches issued during warmup can be used (or evicted) inside
    // the measurement window, so the windowed ratio is clamped to 1.
    return std::min(
        1.0, static_cast<double>(prefetch_useful) / prefetch_issued);
}

void
RunResult::derive()
{
    ipc.assign(core_cycles.size(), 0.0);
    std::vector<double> ipcs;
    ipcs.reserve(core_cycles.size());
    for (std::size_t c = 0; c < core_cycles.size(); ++c) {
        const double cycles = static_cast<double>(core_cycles[c]);
        ipc[c] = cycles > 0 ? static_cast<double>(instructions) / cycles
                            : 0.0;
        ipcs.push_back(std::max(ipc[c], 1e-9));
    }
    ipc_geomean = geomean(ipcs);

    std::uint64_t total_epochs = 0;
    for (const std::uint64_t e : dram_bucket_epochs)
        total_epochs += e;
    dram_buckets.assign(dram_bucket_epochs.size(), 0.0);
    if (total_epochs > 0)
        for (std::size_t b = 0; b < dram_bucket_epochs.size(); ++b)
            dram_buckets[b] = static_cast<double>(dram_bucket_epochs[b]) /
                              static_cast<double>(total_epochs);
}

System::System(const SystemConfig& cfg,
               std::vector<std::unique_ptr<wl::Workload>> workloads)
    : cfg_(cfg), workloads_(std::move(workloads))
{
    assert(workloads_.size() == cfg_.num_cores);

    dram_ = std::make_unique<Dram>(cfg_.dram);
    dram_level_ = std::make_unique<DramLevel>(*dram_);

    CacheConfig llc_cfg;
    llc_cfg.name = "llc";
    llc_cfg.size_bytes = cfg_.llc_bytes_per_core * cfg_.num_cores;
    llc_cfg.ways = cfg_.llc_ways;
    llc_cfg.lookup_latency = cfg_.llc_latency > cfg_.l2.lookup_latency
        ? cfg_.llc_latency - cfg_.l2.lookup_latency - cfg_.l1.lookup_latency
        : cfg_.llc_latency;
    llc_cfg.mshrs = cfg_.llc_mshrs_per_core * cfg_.num_cores;
    llc_cfg.replacement = cfg_.llc_replacement;
    llc_ = std::make_unique<Cache>(llc_cfg, *dram_level_);

    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
        CacheConfig l2_cfg = cfg_.l2;
        l2_cfg.name = "l2." + std::to_string(c);
        l2_.push_back(std::make_unique<Cache>(l2_cfg, *llc_));

        CacheConfig l1_cfg = cfg_.l1;
        l1_cfg.name = "l1d." + std::to_string(c);
        l1_.push_back(std::make_unique<Cache>(l1_cfg, *l2_.back()));

        cores_.push_back(std::make_unique<Core>(cfg_.core, c, *l1_.back(),
                                                *workloads_[c]));
    }
}

System::~System() = default;

void
System::attachL2Prefetcher(std::uint32_t core,
                           std::unique_ptr<PrefetcherApi> pf)
{
    assert(core < cfg_.num_cores);
    pf->setBandwidthInfo(dram_.get());
    l2_[core]->setPrefetcher(pf.get());
    prefetchers_.push_back(std::move(pf));
}

void
System::attachL1Prefetcher(std::uint32_t core,
                           std::unique_ptr<PrefetcherApi> pf)
{
    assert(core < cfg_.num_cores);
    pf->setBandwidthInfo(dram_.get());
    l1_[core]->setPrefetcher(pf.get());
    prefetchers_.push_back(std::move(pf));
}

void
System::resetAllStats()
{
    dram_->resetStats();
    llc_->resetStats();
    for (auto& c : l2_)
        c->resetStats();
    for (auto& c : l1_)
        c->resetStats();
    for (auto& c : cores_)
        c->stats().reset();
}

void
System::warmup(std::uint64_t instrs_per_core)
{
    if (instrs_per_core == 0)
        return;
    std::vector<std::uint64_t> target(cfg_.num_cores);
    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c)
        target[c] = cores_[c]->instrsRetired() + instrs_per_core;

    bool all_done = false;
    Cycle horizon = cfg_.quantum;
    while (!all_done) {
        all_done = true;
        for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
            if (cores_[c]->instrsRetired() >= target[c])
                continue;
            all_done = false;
            // Advance this core by one quantum of its own time.
            const Cycle until =
                std::max(horizon, cores_[c]->currentCycle() + 1);
            while (cores_[c]->currentCycle() < until &&
                   cores_[c]->instrsRetired() < target[c])
                cores_[c]->runUntil(cores_[c]->currentCycle() + 1);
        }
        horizon += cfg_.quantum;
    }
}

void
System::beginMeasurement()
{
    resetAllStats();
    measuring_ = true;
    measured_instrs_ = 0;
    measured_cycles_.assign(cfg_.num_cores, 0);
    measure_origin_.resize(cfg_.num_cores);
    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c)
        measure_origin_[c] = cores_[c]->instrsRetired();
}

void
System::stepMeasuredTo(std::uint64_t nominal_cumulative)
{
    assert(measuring_);
    assert(nominal_cumulative > measured_instrs_);

    std::vector<std::uint64_t> target(cfg_.num_cores);
    std::vector<Cycle> start_cycle(cfg_.num_cores);
    std::vector<Cycle> done_cycle(cfg_.num_cores, 0);
    std::vector<bool> done(cfg_.num_cores, false);
    std::uint32_t n_done = 0;
    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
        target[c] = measure_origin_[c] + nominal_cumulative;
        start_cycle[c] = cores_[c]->currentCycle();
        // A core that overshot past this window's whole budget at the
        // previous boundary contributes zero cycles (it cannot happen
        // on the first window: targets start above the origin).
        if (cores_[c]->instrsRetired() >= target[c]) {
            done[c] = true;
            done_cycle[c] = start_cycle[c];
            ++n_done;
        }
    }

    Cycle horizon = cfg_.quantum;
    // Interleave cores in quanta so the shared LLC/DRAM see a realistic
    // blend of request timestamps; cores that finish their budget keep
    // running (trace replay) until every core has finished measuring,
    // exactly like ChampSim's multi-programmed methodology (§5).
    while (n_done < cfg_.num_cores) {
        for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
            Core& core = *cores_[c];
            const Cycle until = std::max(horizon,
                                         core.currentCycle() + 1);
            while (core.currentCycle() < until) {
                core.runUntil(core.currentCycle() + 1);
                if (!done[c] && core.instrsRetired() >= target[c]) {
                    done[c] = true;
                    done_cycle[c] = core.currentCycle();
                    ++n_done;
                    break;
                }
            }
        }
        horizon += cfg_.quantum;
    }

    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c)
        measured_cycles_[c] += done_cycle[c] - start_cycle[c];
    measured_instrs_ = nominal_cumulative;
}

RunResult
System::collectResult() const
{
    assert(measuring_);
    RunResult res;
    res.instructions = measured_instrs_;
    res.core_cycles = measured_cycles_;
    res.llc_demand_load_misses = llc_->stats().counter("demand_load_miss");
    res.llc_read_misses = llc_->stats().counter("read_miss_total");
    for (auto& c : l2_) {
        res.prefetch_issued += c->stats().counter("prefetch_issued") +
                               c->stats().counter(
                                   "prefetch_issued_next_level");
        res.prefetch_useful +=
            c->stats().counter("prefetch_useful_timely") +
            c->stats().counter("prefetch_useful_late");
        res.prefetch_late += c->stats().counter("prefetch_useful_late");
        res.prefetch_useless += c->stats().counter("prefetch_useless");
    }
    for (auto& c : l1_) {
        res.prefetch_issued += c->stats().counter("prefetch_issued") +
                               c->stats().counter(
                                   "prefetch_issued_next_level");
        res.prefetch_useful +=
            c->stats().counter("prefetch_useful_timely") +
            c->stats().counter("prefetch_useful_late");
        res.prefetch_late += c->stats().counter("prefetch_useful_late");
        res.prefetch_useless += c->stats().counter("prefetch_useless");
    }
    res.dram_utilization = dram_->utilization();
    res.dram_bucket_epochs = dram_->bucketEpochCounts();
    res.derive();
    return res;
}

RunResult
System::run(std::uint64_t instrs_per_core)
{
    assert(instrs_per_core > 0);
    beginMeasurement();
    stepMeasuredTo(instrs_per_core);
    return collectResult();
}

std::size_t
System::footprintBytes() const
{
    return snap::footprint(*this);
}

} // namespace pythia::sim
