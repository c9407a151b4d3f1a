#include "workloads/generators.hpp"

#include <cassert>
#include <utility>

#include "common/hashing.hpp"
#include "workloads/registry.hpp"

namespace pythia::wl {

namespace {

/// Each generator walks its own disjoint slab of the address space so that
/// mixes composed of several generators never alias.
Addr
slabBase(std::uint64_t seed)
{
    return (mix64(seed) & 0x3FFull) << 32; // 1024 slabs of 4 GiB
}

} // namespace

// ---------------------------------------------------------------------------
// GenBase

GenBase::GenBase(std::string name, std::uint64_t seed, GenParams params)
    : name_(std::move(name)), seed_(seed), params_(params), rng_(seed)
{
}

void
GenBase::reset()
{
    rng_ = Rng(seed_);
    resetState();
}

TraceRecord
GenBase::emit(Addr pc, Addr addr)
{
    TraceRecord r = emitLoad(pc, addr);
    r.is_write = rng_.nextBool(params_.write_ratio);
    return r;
}

TraceRecord
GenBase::emitLoad(Addr pc, Addr addr)
{
    TraceRecord r;
    r.pc = pc;
    r.addr = addr;
    // Average gap of (1-m)/m non-memory instructions, uniformly jittered
    // over [0, 2*avg] so the mean matches the configured ratio.
    const double avg_gap = (1.0 - params_.mem_ratio) / params_.mem_ratio;
    const auto max_gap = static_cast<std::uint64_t>(2.0 * avg_gap + 0.5);
    r.gap = static_cast<std::uint32_t>(rng_.nextBounded(max_gap + 1));
    r.is_write = false;
    r.depends_on_prev = rng_.nextBool(params_.dep_ratio);
    return r;
}

// ---------------------------------------------------------------------------
// StreamGen

StreamGen::StreamGen(std::string name, std::uint64_t seed, const Config& cfg)
    : FamilyGen("stream", std::move(name), seed, cfg)
{
    resetState();
}

void
StreamGen::resetState()
{
    streams_.clear();
    const Addr base = slabBase(seed());
    for (unsigned i = 0; i < cfg_.streams; ++i) {
        Stream s;
        s.pc = 0x400000 + 0x40 * i;
        s.line = blockAddr(base) + (static_cast<Addr>(i) << 20);
        s.dir = rng().nextBool(cfg_.backwards) ? -1 : 1;
        if (s.dir < 0)
            s.line += 1 << 19; // room to descend
        streams_.push_back(s);
    }
}

TraceRecord
StreamGen::next()
{
    Stream& s = streams_[rng().nextBounded(streams_.size())];
    s.line = static_cast<Addr>(static_cast<std::int64_t>(s.line) + s.dir);
    return emit(s.pc, s.line << kBlockShift);
}

// ---------------------------------------------------------------------------
// StrideGen

StrideGen::StrideGen(std::string name, std::uint64_t seed, const Config& cfg)
    : FamilyGen("stride", std::move(name), seed, cfg)
{
    resetState();
}

void
StrideGen::resetState()
{
    walkers_.clear();
    const Addr base = slabBase(seed());
    for (std::size_t i = 0; i < cfg_.strides.size(); ++i) {
        Walker w;
        w.pc = 0x500000 + 0x40 * i;
        w.line = blockAddr(base) + (static_cast<Addr>(i) << 21);
        w.stride = cfg_.strides[i];
        walkers_.push_back(w);
    }
}

TraceRecord
StrideGen::next()
{
    Walker& w = walkers_[rng().nextBounded(walkers_.size())];
    w.line = static_cast<Addr>(
        static_cast<std::int64_t>(w.line) + w.stride);
    return emit(w.pc, w.line << kBlockShift);
}

// ---------------------------------------------------------------------------
// SpatialRegionGen

SpatialRegionGen::SpatialRegionGen(std::string name, std::uint64_t seed,
                                   const Config& cfg)
    : FamilyGen("spatial", std::move(name), seed, cfg)
{
    resetState();
}

void
SpatialRegionGen::resetState()
{
    patterns_.clear();
    // Footprints are a fixed function of the seed: every revisit of a
    // pattern touches the same offsets, which is what SMS/Bingo learn.
    Rng pattern_rng(mix64(seed()) ^ 0xF007F007ull);
    for (unsigned p = 0; p < cfg_.patterns; ++p) {
        std::vector<std::uint8_t> offsets;
        offsets.push_back(0); // trigger access is always the region base
        for (unsigned o = 1; o < kBlocksPerPage; ++o)
            if (pattern_rng.nextBool(cfg_.density))
                offsets.push_back(static_cast<std::uint8_t>(o));
        patterns_.push_back(std::move(offsets));
    }
    visits_.assign(cfg_.concurrency, Visit{});
    for (auto& v : visits_)
        startRegion(v);
    active_visit_ = 0;
    burst_left_ = 0;
}

void
SpatialRegionGen::startRegion(Visit& v)
{
    // Pick a region far away from recent ones so its lines have left the
    // cache hierarchy (regions are revisited in pattern only, not address).
    const Addr slab_page = pageId(slabBase(seed()));
    v.page = slab_page + rng().nextBounded(1ull << 22);
    v.pattern = static_cast<unsigned>(rng().nextBounded(cfg_.patterns));
    v.cursor = 0;
}

TraceRecord
SpatialRegionGen::next()
{
    // Emit short bursts from one region before switching to another: real
    // spatial workloads touch a few lines of a structure at a time, which
    // both preserves intra-region delta locality (learnable by delta-based
    // prefetchers) and leaves timeliness headroom across regions.
    if (burst_left_ == 0) {
        active_visit_ = rng().nextBounded(visits_.size());
        burst_left_ = 2 + static_cast<unsigned>(rng().nextBounded(4));
    }
    --burst_left_;
    Visit& v = visits_[active_visit_];
    if (v.cursor >= patterns_[v.pattern].size())
        startRegion(v);
    const auto& pat = patterns_[v.pattern];
    const Addr line =
        (v.page << (kPageShift - kBlockShift)) + pat[v.cursor];
    // The trigger PC identifies the pattern, so PC+offset recurs with the
    // same footprint — the correlation Bingo/SMS exploit.
    const Addr pc = 0x600000 + 0x40 * v.pattern;
    ++v.cursor;
    return emit(pc, line << kBlockShift);
}

// ---------------------------------------------------------------------------
// DeltaChainGen

DeltaChainGen::DeltaChainGen(std::string name, std::uint64_t seed,
                             const Config& cfg)
    : FamilyGen("delta", std::move(name), seed, cfg)
{
    resetState();
}

void
DeltaChainGen::resetState()
{
    page_ = pageId(slabBase(seed()));
    offset_ = 0;
    delta_idx_ = 0;
}

TraceRecord
DeltaChainGen::next()
{
    const Addr line =
        (page_ << (kPageShift - kBlockShift)) + static_cast<Addr>(offset_);
    const Addr pc = 0x700000 + 0x40 * delta_idx_;
    const TraceRecord r = emit(pc, line << kBlockShift);

    offset_ += cfg_.deltas[delta_idx_];
    delta_idx_ = (delta_idx_ + 1) % cfg_.deltas.size();
    if (offset_ >= static_cast<std::int32_t>(kBlocksPerPage)) {
        ++page_;      // move to the next page and restart the chain
        offset_ = 0;
        delta_idx_ = 0;
    }
    return r;
}

// ---------------------------------------------------------------------------
// IrregularGen

IrregularGen::IrregularGen(std::string name, std::uint64_t seed,
                           const Config& cfg)
    : FamilyGen("irregular", std::move(name), seed, cfg)
{
    resetState();
}

void
IrregularGen::resetState()
{
    chase_state_ = mix64(seed() ^ 0xC4A5Eull);
    aux_line_ = blockAddr(slabBase(seed())) + (1ull << 24);
}

TraceRecord
IrregularGen::next()
{
    if (rng().nextBool(cfg_.stride_fraction)) {
        aux_line_ += 1;
        TraceRecord r = emit(0x800040, aux_line_ << kBlockShift);
        r.depends_on_prev = false; // loop-index access, no data dependence
        return r;
    }
    // Pointer chase: the next address is an unlearnable function of the
    // previous one, confined to the configured footprint.
    chase_state_ = mix64(chase_state_ + 0x9E3779B97F4A7C15ull);
    const std::uint64_t lines = cfg_.gen.footprint_bytes >> kBlockShift;
    const Addr line = blockAddr(slabBase(seed())) + chase_state_ % lines;
    TraceRecord r = emit(0x800000, line << kBlockShift);
    r.depends_on_prev = true; // the address came from the previous load
    return r;
}

// ---------------------------------------------------------------------------
// GraphGen

GraphGen::GraphGen(std::string name, std::uint64_t seed, const Config& cfg)
    : FamilyGen("graph", std::move(name), seed, cfg)
{
    resetState();
}

void
GraphGen::resetState()
{
    const Addr base_line = blockAddr(slabBase(seed()));
    offsets_line_ = base_line;
    edges_line_ = base_line + (1ull << 22);
    edges_left_ = 0;
    phase_ = 0;
}

TraceRecord
GraphGen::next()
{
    // Rotates: (0) scan CSR offsets sequentially, (1) scan the edge array
    // sequentially for the current vertex, (2) load per-neighbour data at
    // an irregular address. The blend creates both prefetchable streams and
    // unprefetchable loads while demanding high bandwidth (Ligra-like).
    if (phase_ == 0) {
        offsets_line_ += 1;
        edges_left_ = 1 + static_cast<unsigned>(
            rng().nextBounded(2ull * cfg_.degree));
        phase_ = 1;
        return emit(0x900000, offsets_line_ << kBlockShift);
    }
    if (phase_ == 1) {
        edges_line_ += 1;
        phase_ = 2;
        return emit(0x900040, edges_line_ << kBlockShift);
    }
    // Phase 2: one data load per edge; the address is the neighbour id
    // loaded from the edge array, hence data-dependent.
    Addr line;
    if (rng().nextBool(cfg_.irregularity)) {
        const std::uint64_t lines = cfg_.gen.footprint_bytes >> kBlockShift;
        line = blockAddr(slabBase(seed())) + (2ull << 22) +
               rng().nextBounded(lines);
    } else {
        line = offsets_line_ + (4ull << 20); // locality near the frontier
    }
    if (--edges_left_ == 0)
        phase_ = 0;
    TraceRecord r = emit(0x900080, line << kBlockShift);
    r.depends_on_prev = true;
    return r;
}

// ---------------------------------------------------------------------------
// MixedPhaseGen

MixedPhaseGen::MixedPhaseGen(std::string name, std::uint64_t seed,
                             std::vector<std::unique_ptr<Workload>> children,
                             std::vector<std::size_t> phase_lens)
    : GenBase(std::move(name), seed, GenParams{}),
      children_(std::move(children)), phase_lens_(std::move(phase_lens))
{
    assert(!children_.empty());
    assert(phase_lens_.size() == children_.size());
    for ([[maybe_unused]] std::size_t len : phase_lens_)
        assert(len > 0);
}

void
MixedPhaseGen::resetState()
{
    for (auto& c : children_)
        c->reset();
    emitted_ = 0;
    active_ = 0;
}

TraceRecord
MixedPhaseGen::next()
{
    if (emitted_ >= phase_lens_[active_]) {
        emitted_ = 0;
        active_ = (active_ + 1) % children_.size();
    }
    ++emitted_;
    return children_[active_]->next();
}

std::unique_ptr<Workload>
MixedPhaseGen::clone(std::uint64_t reseed) const
{
    std::vector<std::unique_ptr<Workload>> copies;
    copies.reserve(children_.size());
    for (std::size_t i = 0; i < children_.size(); ++i)
        copies.push_back(children_[i]->clone(
            reseed ? mix64(reseed + i) : 0));
    return std::make_unique<MixedPhaseGen>(
        name(), reseed ? reseed : seed(), std::move(copies), phase_lens_);
}

// ---------------------------------------------------------------------------
// CaseStudyGen

CaseStudyGen::CaseStudyGen(std::string name, std::uint64_t seed,
                           const Config& cfg)
    : FamilyGen("casestudy", std::move(name), seed, cfg)
{
    resetState();
}

void
CaseStudyGen::resetState()
{
    page_ = pageId(slabBase(seed()));
    stage_ = 0;
    use_23_ = true;
}

TraceRecord
CaseStudyGen::next()
{
    const Addr page_line = page_ << (kPageShift - kBlockShift);
    if (stage_ == 0) {
        stage_ = 1;
        const Addr pc = use_23_ ? kPc23 : kPc11;
        return emitLoad(pc, page_line << kBlockShift);
    }
    // Companion access: exactly one more line in the page, +23 or +11
    // lines ahead of the trigger — the behaviour §6.5 dumps from the trace.
    const std::int32_t companion = use_23_ ? 23 : 11;
    const Addr line = page_line + static_cast<Addr>(companion);
    stage_ = 0;
    use_23_ = !use_23_;
    ++page_;
    return emitLoad(0xA00000, line << kBlockShift);
}

// ---------------------------------------------------------------------------
// Registry entries: one WorkloadRegistrar per generator family, so any
// family is constructible from a parameterized spec string
// ("stream:streams=2,mem_ratio=0.4") next to the catalog names. Keys,
// defaults and range rules are each family's Config::knobs; the range
// check runs in the constructor, for spec strings and direct callers
// alike.

namespace {

template <class Gen>
WorkloadRegistrar
family(const char* name)
{
    using Config = typename Gen::Config;
    return {name, Config{},
            [](const Config& c, std::uint64_t seed, const std::string& n) {
                return std::make_unique<Gen>(n, seed, c);
            }};
}

[[maybe_unused]] const WorkloadRegistrar registrars[] = {
    family<StreamGen>("stream"),       family<StrideGen>("stride"),
    family<SpatialRegionGen>("spatial"), family<DeltaChainGen>("delta"),
    family<IrregularGen>("irregular"), family<GraphGen>("graph"),
    family<CaseStudyGen>("casestudy")};

} // namespace

} // namespace pythia::wl
