#include "harness/session.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "harness/runner.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/snapshot.hpp"
#include "workloads/suites.hpp"

namespace pythia::harness {

namespace {

std::uint64_t
at(const std::vector<std::uint64_t>& v, std::size_t i)
{
    return i < v.size() ? v[i] : 0;
}

/** Load a session's listed state from a validated snapshot image's
 *  body, which must end there. */
void
restoreBody(SimSession& session, snap::Reader& r)
{
    snap::load(session, r);
    if (!r.atEnd())
        throw snap::CorruptError(
            "snapshot corrupt: " + std::to_string(r.remaining()) +
            " unconsumed bytes after machine state");
}

} // namespace

// ------------------------------------------------------ wire codecs

void
writeRunResult(snap::Writer& w, const sim::RunResult& r)
{
    snap::save(r, w);
}

void
writeWindowSample(snap::Writer& w, const WindowSample& s)
{
    snap::save(s, w);
}

std::string
fingerprintFor(const ExperimentSpec& spec)
{
    std::ostringstream fp;
    fp << "format=" << snap::kSchemaName << ';';
    if (spec.mix.empty()) {
        fp << "workload=" << wl::canonicalWorkloadSpec(spec.workload)
           << ';';
    } else {
        fp << "mix_size=" << spec.mix.size() << ';';
        for (std::size_t i = 0; i < spec.mix.size(); ++i)
            fp << "mix" << i << '='
               << wl::canonicalWorkloadSpec(spec.mix[i]) << ';';
    }
    fp << "prefetcher=" << spec.prefetcher << ';'
       << "l1_prefetcher=" << spec.l1_prefetcher << ';'
       << "cores=" << spec.num_cores << ';'
       << "mtps=" << spec.mtps << ';'
       << "llc_bytes_per_core=" << spec.llc_bytes_per_core << ';'
       << "warmup_instrs=" << spec.warmup_instrs << ';'
       << "sim_instrs=" << spec.sim_instrs << ';'
       << "workload_seed=" << spec.workload_seed << ';';
    return fp.str();
}

// -------------------------------------------------------- window algebra

sim::RunResult
windowDelta(const sim::RunResult& now, const sim::RunResult& prev)
{
    sim::RunResult d;
    d.instructions = now.instructions - prev.instructions;
    d.llc_demand_load_misses =
        now.llc_demand_load_misses - prev.llc_demand_load_misses;
    d.llc_read_misses = now.llc_read_misses - prev.llc_read_misses;
    d.prefetch_issued = now.prefetch_issued - prev.prefetch_issued;
    d.prefetch_useful = now.prefetch_useful - prev.prefetch_useful;
    d.prefetch_useless = now.prefetch_useless - prev.prefetch_useless;
    d.prefetch_late = now.prefetch_late - prev.prefetch_late;
    d.core_cycles.resize(now.core_cycles.size());
    for (std::size_t c = 0; c < d.core_cycles.size(); ++c)
        d.core_cycles[c] = now.core_cycles[c] - at(prev.core_cycles, c);
    d.dram_bucket_epochs.resize(now.dram_bucket_epochs.size());
    for (std::size_t b = 0; b < d.dram_bucket_epochs.size(); ++b)
        d.dram_bucket_epochs[b] =
            now.dram_bucket_epochs[b] - at(prev.dram_bucket_epochs, b);
    // The utilization EWMA is a point sample, not a counter: a delta
    // carries the reading at its own window end.
    d.dram_utilization = now.dram_utilization;
    d.derive();
    return d;
}

void
accumulateDelta(sim::RunResult& acc, const sim::RunResult& delta)
{
    acc.instructions += delta.instructions;
    acc.llc_demand_load_misses += delta.llc_demand_load_misses;
    acc.llc_read_misses += delta.llc_read_misses;
    acc.prefetch_issued += delta.prefetch_issued;
    acc.prefetch_useful += delta.prefetch_useful;
    acc.prefetch_useless += delta.prefetch_useless;
    acc.prefetch_late += delta.prefetch_late;
    acc.core_cycles.resize(
        std::max(acc.core_cycles.size(), delta.core_cycles.size()), 0);
    for (std::size_t c = 0; c < delta.core_cycles.size(); ++c)
        acc.core_cycles[c] += delta.core_cycles[c];
    acc.dram_bucket_epochs.resize(
        std::max(acc.dram_bucket_epochs.size(),
                 delta.dram_bucket_epochs.size()),
        0);
    for (std::size_t b = 0; b < delta.dram_bucket_epochs.size(); ++b)
        acc.dram_bucket_epochs[b] += delta.dram_bucket_epochs[b];
    acc.dram_utilization = delta.dram_utilization;
    acc.derive();
}

sim::RunResult
composeDeltas(const std::vector<sim::RunResult>& deltas)
{
    sim::RunResult acc;
    for (const sim::RunResult& d : deltas)
        accumulateDelta(acc, d);
    return acc;
}

// ------------------------------------------------------------ SimSession

SimSession::SimSession(ExperimentSpec spec)
    : SimSession(std::move(spec),
                 std::vector<std::unique_ptr<wl::Workload>>{})
{
}

SimSession::SimSession(ExperimentSpec spec,
                       std::vector<std::unique_ptr<wl::Workload>> workloads)
    : spec_(std::move(spec))
{
    if (workloads.empty())
        workloads = workloadsFor(spec_);
    if (workloads.size() != spec_.num_cores)
        throw std::invalid_argument(
            "SimSession: " + std::to_string(workloads.size()) +
            " injected workloads for " + std::to_string(spec_.num_cores) +
            " cores");
    system_ = std::make_unique<sim::System>(systemConfigFor(spec_),
                                            std::move(workloads));
    for (std::uint32_t c = 0; c < spec_.num_cores; ++c) {
        if (auto l2 = sim::makePrefetcher(spec_.prefetcher))
            system_->attachL2Prefetcher(c, std::move(l2));
        if (auto l1 = sim::makePrefetcher(spec_.l1_prefetcher))
            system_->attachL1Prefetcher(c, std::move(l1));
    }
}

void
SimSession::snapshotTo(const std::string& path) const
{
    snap::writeSnapshotFile(
        path, fingerprintFor(spec_),
        [this](snap::Writer& w) { snap::save(*this, w); });
}

std::vector<std::uint8_t>
SimSession::snapshotBytes() const
{
    return snap::writeSnapshotBytes(
        fingerprintFor(spec_),
        [this](snap::Writer& w) { snap::save(*this, w); });
}

SimSession
SimSession::resumeFrom(ExperimentSpec spec, const std::string& path)
{
    SimSession session(std::move(spec));
    const snap::SnapshotFile file =
        snap::readSnapshotFile(path, fingerprintFor(session.spec_));
    snap::Reader body = file.body();
    restoreBody(session, body);
    return session;
}

SimSession
SimSession::restore(ExperimentSpec spec, snap::Reader& body,
                    std::vector<std::unique_ptr<wl::Workload>> workloads)
{
    SimSession session(std::move(spec), std::move(workloads));
    restoreBody(session, body);
    return session;
}

SimSession
SimSession::resumeFromBytes(ExperimentSpec spec,
                            std::vector<std::uint8_t> bytes,
                            std::vector<std::unique_ptr<wl::Workload>>
                                workloads,
                            const std::string& label)
{
    SimSession session(std::move(spec), std::move(workloads));
    const snap::SnapshotFile file = snap::readSnapshotBytes(
        std::move(bytes), fingerprintFor(session.spec_), label);
    snap::Reader body = file.body();
    restoreBody(session, body);
    return session;
}

SimSession
SimSession::fork(std::vector<std::unique_ptr<wl::Workload>> workloads) const
{
    SimSession copy(spec_, std::move(workloads));
    snap::copy(copy, *this);
    return copy;
}

void
SimSession::addObserver(SessionObserver* observer)
{
    if (observer)
        observers_.push_back(observer);
}

void
SimSession::addObserver(std::shared_ptr<SessionObserver> observer)
{
    if (!observer)
        return;
    observers_.push_back(observer.get());
    owned_observers_.push_back(std::move(observer));
}

void
SimSession::runWarmup()
{
    if (warmup_done_)
        return;
    system_->warmup(spec_.warmup_instrs);
    warmup_done_ = true;
    for (SessionObserver* o : observers_)
        o->onWarmupEnd(*this);
}

std::uint64_t
SimSession::advance(std::uint64_t n_instrs)
{
    if (!warmup_done_)
        runWarmup();
    const std::uint64_t step = std::min(n_instrs, instrsRemaining());
    if (step == 0)
        return 0;
    if (advanced_ == 0)
        system_->beginMeasurement();

    WindowSample sample;
    sample.index = windows_completed_;
    sample.instrs_begin = advanced_;
    advanced_ += step;
    sample.instrs_end = advanced_;
    system_->stepMeasuredTo(advanced_);
    sample.cumulative = system_->collectResult();
    sample.delta = windowDelta(sample.cumulative, cumulative_);

    cumulative_ = sample.cumulative;
    last_ = sample;
    has_window_ = true;
    ++windows_completed_;

    for (SessionObserver* o : observers_)
        o->onWindowEnd(*this, last_);
    if (done())
        notifyRunEndOnce();
    return step;
}

sim::RunResult
SimSession::runToCompletion()
{
    if (!warmup_done_)
        runWarmup();
    if (!done())
        advance(instrsRemaining());
    else
        notifyRunEndOnce(); // zero-budget or already-finished session
    return cumulative_;
}

const WindowSample&
SimSession::lastWindow() const
{
    if (!has_window_)
        throw std::logic_error(
            "SimSession::lastWindow(): no window advanced yet");
    return last_;
}

void
SimSession::notifyRunEndOnce()
{
    if (run_ended_)
        return;
    run_ended_ = true;
    for (SessionObserver* o : observers_)
        o->onRunEnd(*this, cumulative_);
}

} // namespace pythia::harness
