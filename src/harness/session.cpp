#include "harness/session.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/table.hpp"
#include "harness/runner.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/snapshot.hpp"
#include "workloads/suites.hpp"

namespace pythia::harness {

namespace {

std::uint64_t
at(const std::vector<std::uint64_t>& v, std::size_t i)
{
    return i < v.size() ? v[i] : 0;
}

} // namespace

// ------------------------------------------------------ wire codecs

void
writeSpec(snap::Writer& w, const ExperimentSpec& spec)
{
    w.str(spec.workload);
    w.u64(spec.mix.size());
    for (const auto& m : spec.mix)
        w.str(m);
    w.str(spec.prefetcher);
    w.str(spec.l1_prefetcher);
    w.u32(spec.num_cores);
    w.u32(spec.mtps);
    w.u64(spec.llc_bytes_per_core);
    w.u64(spec.warmup_instrs);
    w.u64(spec.sim_instrs);
    w.u64(spec.workload_seed);
}

ExperimentSpec
readSpec(snap::Reader& r)
{
    ExperimentSpec spec;
    spec.workload = r.str();
    spec.mix.resize(r.count(8)); // a string is at least its u64 length
    for (auto& m : spec.mix)
        m = r.str();
    spec.prefetcher = r.str();
    spec.l1_prefetcher = r.str();
    spec.num_cores = r.u32();
    spec.mtps = r.u32();
    spec.llc_bytes_per_core = r.u64();
    spec.warmup_instrs = r.u64();
    spec.sim_instrs = r.u64();
    spec.workload_seed = r.u64();
    return spec;
}

void
writeRunResult(snap::Writer& w, const sim::RunResult& r)
{
    w.vecF64(r.ipc);
    w.f64(r.ipc_geomean);
    w.u64(r.instructions);
    w.u64(r.llc_demand_load_misses);
    w.u64(r.llc_read_misses);
    w.u64(r.prefetch_issued);
    w.u64(r.prefetch_useful);
    w.u64(r.prefetch_useless);
    w.u64(r.prefetch_late);
    w.vecF64(r.dram_buckets);
    w.f64(r.dram_utilization);
    w.vecU64(r.core_cycles);
    w.vecU64(r.dram_bucket_epochs);
}

sim::RunResult
readRunResult(snap::Reader& r)
{
    sim::RunResult res;
    res.ipc = r.vecF64();
    res.ipc_geomean = r.f64();
    res.instructions = r.u64();
    res.llc_demand_load_misses = r.u64();
    res.llc_read_misses = r.u64();
    res.prefetch_issued = r.u64();
    res.prefetch_useful = r.u64();
    res.prefetch_useless = r.u64();
    res.prefetch_late = r.u64();
    res.dram_buckets = r.vecF64();
    res.dram_utilization = r.f64();
    res.core_cycles = r.vecU64();
    res.dram_bucket_epochs = r.vecU64();
    return res;
}

void
writeWindowSample(snap::Writer& w, const WindowSample& s)
{
    w.u64(s.index);
    w.u64(s.instrs_begin);
    w.u64(s.instrs_end);
    writeRunResult(w, s.delta);
    writeRunResult(w, s.cumulative);
}

WindowSample
readWindowSample(snap::Reader& r)
{
    WindowSample s;
    s.index = static_cast<std::size_t>(r.u64());
    s.instrs_begin = r.u64();
    s.instrs_end = r.u64();
    s.delta = readRunResult(r);
    s.cumulative = readRunResult(r);
    return s;
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

    const std::size_t cores = now.core_cycles.size();
    d.core_cycles.resize(cores);
    d.ipc.resize(cores);
    std::vector<double> ipcs;
    ipcs.reserve(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        d.core_cycles[c] = now.core_cycles[c] - at(prev.core_cycles, c);
        const double cycles = static_cast<double>(d.core_cycles[c]);
        const double ipc =
            cycles > 0 ? static_cast<double>(d.instructions) / cycles
                       : 0.0;
        d.ipc[c] = ipc;
        ipcs.push_back(std::max(ipc, 1e-9));
    }
    d.ipc_geomean = cores > 0 ? geomean(ipcs) : 0.0;

    const std::size_t buckets = now.dram_bucket_epochs.size();
    d.dram_bucket_epochs.resize(buckets);
    std::uint64_t total_epochs = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        d.dram_bucket_epochs[b] =
            now.dram_bucket_epochs[b] - at(prev.dram_bucket_epochs, b);
        total_epochs += d.dram_bucket_epochs[b];
    }
    d.dram_buckets.assign(buckets, 0.0);
    if (total_epochs > 0)
        for (std::size_t b = 0; b < buckets; ++b)
            d.dram_buckets[b] =
                static_cast<double>(d.dram_bucket_epochs[b]) /
                static_cast<double>(total_epochs);
    // The utilization EWMA is a point sample, not a counter: a delta
    // carries the reading at its own window end.
    d.dram_utilization = now.dram_utilization;
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

    const std::size_t cores = delta.core_cycles.size();
    acc.core_cycles.resize(std::max(acc.core_cycles.size(), cores), 0);
    for (std::size_t c = 0; c < cores; ++c)
        acc.core_cycles[c] += delta.core_cycles[c];
    acc.ipc.assign(acc.core_cycles.size(), 0.0);
    std::vector<double> ipcs;
    ipcs.reserve(acc.core_cycles.size());
    for (std::size_t c = 0; c < acc.core_cycles.size(); ++c) {
        const double cycles = static_cast<double>(acc.core_cycles[c]);
        const double ipc =
            cycles > 0 ? static_cast<double>(acc.instructions) / cycles
                       : 0.0;
        acc.ipc[c] = ipc;
        ipcs.push_back(std::max(ipc, 1e-9));
    }
    acc.ipc_geomean = acc.core_cycles.empty() ? 0.0 : geomean(ipcs);

    const std::size_t buckets = delta.dram_bucket_epochs.size();
    acc.dram_bucket_epochs.resize(
        std::max(acc.dram_bucket_epochs.size(), buckets), 0);
    std::uint64_t total_epochs = 0;
    for (std::size_t b = 0; b < acc.dram_bucket_epochs.size(); ++b) {
        if (b < buckets)
            acc.dram_bucket_epochs[b] += delta.dram_bucket_epochs[b];
        total_epochs += acc.dram_bucket_epochs[b];
    }
    acc.dram_buckets.assign(acc.dram_bucket_epochs.size(), 0.0);
    if (total_epochs > 0)
        for (std::size_t b = 0; b < acc.dram_bucket_epochs.size(); ++b)
            acc.dram_buckets[b] =
                static_cast<double>(acc.dram_bucket_epochs[b]) /
                static_cast<double>(total_epochs);
    acc.dram_utilization = delta.dram_utilization;
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
        [this](snap::Writer& w) { writeSessionBody(w); });
}

std::vector<std::uint8_t>
SimSession::snapshotBytes() const
{
    return snap::writeSnapshotBytes(
        fingerprintFor(spec_),
        [this](snap::Writer& w) { writeSessionBody(w); });
}

void
SimSession::writeSessionBody(snap::Writer& w) const
{
    w.beginSection("session");
    w.boolean(warmup_done_);
    w.boolean(run_ended_);
    w.u64(advanced_);
    w.u64(windows_completed_);
    w.boolean(has_window_);
    writeRunResult(w, cumulative_);
    writeWindowSample(w, last_);
    w.endSection();
    system_->saveState(w);
}

SimSession
SimSession::resumeFrom(ExperimentSpec spec, const std::string& path)
{
    return resumeFrom(std::move(spec), path,
                      std::vector<std::unique_ptr<wl::Workload>>{});
}

SimSession
SimSession::resumeFrom(ExperimentSpec spec, const std::string& path,
                       std::vector<std::unique_ptr<wl::Workload>> workloads)
{
    SimSession session(std::move(spec), std::move(workloads));
    const snap::SnapshotFile file =
        snap::readSnapshotFile(path, fingerprintFor(session.spec_));
    session.restoreSessionBody(file);
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
    session.restoreSessionBody(file);
    return session;
}

SimSession
SimSession::fork(std::vector<std::unique_ptr<wl::Workload>> workloads) const
{
    SimSession copy(spec_, std::move(workloads));
    copy.system_->copyStateFrom(*system_);
    copy.warmup_done_ = warmup_done_;
    copy.run_ended_ = run_ended_;
    copy.advanced_ = advanced_;
    copy.windows_completed_ = windows_completed_;
    copy.cumulative_ = cumulative_;
    copy.last_ = last_;
    copy.has_window_ = has_window_;
    return copy;
}

void
SimSession::restoreSessionBody(const snap::SnapshotFile& file)
{
    SimSession& session = *this;
    snap::Reader r = file.body();
    r.enterSection("session");
    session.warmup_done_ = r.boolean();
    session.run_ended_ = r.boolean();
    session.advanced_ = r.u64();
    session.windows_completed_ = r.u64();
    session.has_window_ = r.boolean();
    session.cumulative_ = readRunResult(r);
    session.last_ = readWindowSample(r);
    r.leaveSection();
    session.system_->loadState(r);
    if (!r.atEnd())
        throw snap::CorruptError(
            "snapshot corrupt: " + std::to_string(r.remaining()) +
            " unconsumed bytes after machine state");
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

SimSession::Snapshot
SimSession::snapshot() const
{
    Snapshot snap;
    snap.cumulative = cumulative_;
    snap.last_window = last_;
    snap.windows = windows_completed_;
    return snap;
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
