/**
 * @file
 * Timing decorators around the two interfaces the simulator calls per
 * simulated access: the workload stream (wl::Workload) and the attached
 * prefetcher (sim::PrefetcherApi). Each forwards every call unchanged
 * and adds its host time to a LayerTimer, so a decorated System
 * simulates exactly what an undecorated one does (the self-tests check
 * this against harness::simulate).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/prefetcher_api.hpp"
#include "trace.hpp"
#include "workloads/trace.hpp"

namespace perfbench {

class TimedWorkload : public pythia::wl::Workload
{
  public:
    TimedWorkload(std::unique_ptr<pythia::wl::Workload> inner,
                  LayerTimer* next)
        : inner_(std::move(inner)), next_(next)
    {
    }

    pythia::wl::TraceRecord next() override
    {
        const std::int64_t t0 = nowNs();
        const pythia::wl::TraceRecord r = inner_->next();
        next_->add(nowNs() - t0);
        return r;
    }

    void reset() override { inner_->reset(); }
    const std::string& name() const override { return inner_->name(); }
    std::unique_ptr<pythia::wl::Workload>
    clone(std::uint64_t reseed) const override
    {
        return std::make_unique<TimedWorkload>(inner_->clone(reseed),
                                               next_);
    }

  private:
    std::unique_ptr<pythia::wl::Workload> inner_;
    LayerTimer* next_;
};

class TimedPrefetcher : public pythia::sim::PrefetcherApi
{
  public:
    TimedPrefetcher(std::unique_ptr<pythia::sim::PrefetcherApi> inner,
                    LayerTimer* train, LayerTimer* feedback)
        : inner_(std::move(inner)), train_(train), feedback_(feedback)
    {
    }

    void train(const pythia::sim::PrefetchAccess& access,
               std::vector<pythia::sim::PrefetchRequest>& out) override
    {
        const std::int64_t t0 = nowNs();
        inner_->train(access, out);
        train_->add(nowNs() - t0);
    }

    void onFill(pythia::Addr block, pythia::Cycle at) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onFill(block, at);
        feedback_->add(nowNs() - t0);
    }

    void onPrefetchUsed(pythia::Addr block, bool timely) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onPrefetchUsed(block, timely);
        feedback_->add(nowNs() - t0);
    }

    void onPrefetchEvicted(pythia::Addr block, bool used) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onPrefetchEvicted(block, used);
        feedback_->add(nowNs() - t0);
    }

    void setBandwidthInfo(const pythia::sim::BandwidthInfo* bw) override
    {
        inner_->setBandwidthInfo(bw);
    }

    const std::string& name() const override { return inner_->name(); }

    std::size_t storageBytes() const override
    {
        return inner_->storageBytes();
    }

    void saveState(pythia::snap::Writer& w) const override
    {
        inner_->saveState(w);
    }

    void loadState(pythia::snap::Reader& r) override
    {
        inner_->loadState(r);
    }

  private:
    std::unique_ptr<pythia::sim::PrefetcherApi> inner_;
    LayerTimer* train_;
    LayerTimer* feedback_;
};

} // namespace perfbench
