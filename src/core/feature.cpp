#include "core/feature.hpp"

#include <cstring>

#include "common/hashing.hpp"
#include "snapshot/codec.hpp"

namespace pythia::rl {

namespace {

const char*
controlName(ControlKind kind)
{
    switch (kind) {
      case ControlKind::None: return "None";
      case ControlKind::Pc: return "PC";
      case ControlKind::PcPath3: return "PCPath3";
      case ControlKind::PcXorPrevPc: return "PCxPrevPC";
    }
    return "?";
}

const char*
dataName(DataKind kind)
{
    switch (kind) {
      case DataKind::None: return "None";
      case DataKind::CachelineAddr: return "Addr";
      case DataKind::PageNum: return "PageNum";
      case DataKind::PageOffset: return "Offset";
      case DataKind::Delta: return "Delta";
      case DataKind::Last4Offsets: return "Last4Offsets";
      case DataKind::Last4Deltas: return "Last4Deltas";
      case DataKind::OffsetXorDelta: return "OffsetXorDelta";
    }
    return "?";
}

/// Deltas are sign+magnitude packed into 7 bits for history encoding.
std::uint32_t
packDelta(std::int32_t delta)
{
    const std::uint32_t mag =
        static_cast<std::uint32_t>(delta < 0 ? -delta : delta) & 0x3F;
    return (delta < 0 ? 0x40u : 0u) | mag;
}

} // namespace

std::string
featureName(const FeatureSpec& spec, char join)
{
    if (spec.control == ControlKind::None)
        return dataName(spec.data);
    if (spec.data == DataKind::None)
        return controlName(spec.control);
    return std::string(controlName(spec.control)) + join +
           dataName(spec.data);
}

std::optional<FeatureSpec>
parseFeatureName(const std::string& name)
{
    for (const FeatureSpec& spec : allFeatureSpecs())
        if (featureName(spec, '.') == name)
            return spec;
    return std::nullopt;
}

std::vector<FeatureSpec>
allFeatureSpecs()
{
    std::vector<FeatureSpec> specs;
    const ControlKind controls[] = {ControlKind::Pc, ControlKind::PcPath3,
                                    ControlKind::PcXorPrevPc,
                                    ControlKind::None};
    const DataKind datas[] = {
        DataKind::CachelineAddr, DataKind::PageNum, DataKind::PageOffset,
        DataKind::Delta, DataKind::Last4Offsets, DataKind::Last4Deltas,
        DataKind::OffsetXorDelta, DataKind::None};
    for (auto c : controls)
        for (auto d : datas)
            if (!(c == ControlKind::None && d == DataKind::None))
                specs.push_back(FeatureSpec{c, d});
    return specs;
}

std::vector<FeatureSpec>
basicFeatureSpecs()
{
    return {FeatureSpec{ControlKind::Pc, DataKind::Delta},
            FeatureSpec{ControlKind::None, DataKind::Last4Deltas}};
}

FeatureExtractor::FeatureExtractor()
{
    reset();
}

void
FeatureExtractor::reset()
{
    std::memset(pcs_, 0, sizeof(pcs_));
    std::memset(deltas_, 0, sizeof(deltas_));
    std::memset(offsets_, 0, sizeof(offsets_));
    last_block_ = 0;
    last_page_ = ~0ull;
    has_last_ = false;
    rebuildDerived();
}

void
FeatureExtractor::rebuildDerived()
{
    packed_offsets_ = 0;
    for (int i = 0; i < 4; ++i)
        packed_offsets_ = (packed_offsets_ << 6) | (offsets_[i] & 0x3F);
    packed_deltas_ = 0;
    for (int i = 0; i < 4; ++i)
        packed_deltas_ = (packed_deltas_ << 7) | packDelta(deltas_[i]);
    packed_delta0_ = packDelta(deltas_[0]);
    pc_path3_ = pcs_[0] ^ (pcs_[1] << 1) ^ (pcs_[2] << 2);
    pc_xor_prev_ = pcs_[0] ^ pcs_[1];
}

void
FeatureExtractor::saveState(snap::Writer& w) const
{
    for (Addr pc : pcs_)
        w.u64(pc);
    for (std::int32_t d : deltas_)
        w.i32(d);
    for (std::uint32_t o : offsets_)
        w.u32(o);
    w.u64(last_block_);
    w.u64(last_page_);
    w.boolean(has_last_);
}

void
FeatureExtractor::loadState(snap::Reader& r)
{
    for (Addr& pc : pcs_)
        pc = r.u64();
    for (std::int32_t& d : deltas_)
        d = r.i32();
    for (std::uint32_t& o : offsets_)
        o = r.u32();
    last_block_ = r.u64();
    last_page_ = r.u64();
    has_last_ = r.boolean();
    rebuildDerived();
}

void
FeatureExtractor::observe(Addr pc, Addr block)
{
    const Addr page = pageIdOfBlock(block);
    const auto offset =
        static_cast<std::uint32_t>(block & (kBlocksPerPage - 1));

    std::int32_t delta = 0;
    if (has_last_ && page == last_page_)
        delta = static_cast<std::int32_t>(
            static_cast<std::int64_t>(block) -
            static_cast<std::int64_t>(last_block_));

    // Fold the new PC into the control-flow caches before it enters the
    // history, then shift the raw histories (still the snapshot format).
    pc_path3_ = pc ^ (pcs_[0] << 1) ^ (pcs_[1] << 2);
    pc_xor_prev_ = pc ^ pcs_[0];
    for (int i = 2; i > 0; --i)
        pcs_[i] = pcs_[i - 1];
    pcs_[0] = pc;
    for (int i = 3; i > 0; --i) {
        deltas_[i] = deltas_[i - 1];
        offsets_[i] = offsets_[i - 1];
    }
    deltas_[0] = delta;
    offsets_[0] = offset;

    // Shift one element into the packed last-4 sequences: the previous
    // oldest falls off the bottom, the new value lands on top. Identical
    // to re-packing the shifted arrays.
    packed_offsets_ = ((static_cast<std::uint64_t>(offset) & 0x3F) << 18) |
                      (packed_offsets_ >> 6);
    packed_delta0_ = packDelta(delta);
    packed_deltas_ =
        (static_cast<std::uint64_t>(packed_delta0_) << 21) |
        (packed_deltas_ >> 7);

    last_block_ = block;
    last_page_ = page;
    has_last_ = true;
}

std::uint64_t
FeatureExtractor::controlValue(ControlKind kind) const
{
    switch (kind) {
      case ControlKind::None:
        return 0;
      case ControlKind::Pc:
        return pcs_[0];
      case ControlKind::PcPath3:
        return pc_path3_;
      case ControlKind::PcXorPrevPc:
        return pc_xor_prev_;
    }
    return 0;
}

std::uint64_t
FeatureExtractor::dataValue(DataKind kind) const
{
    switch (kind) {
      case DataKind::None:
        return 0;
      case DataKind::CachelineAddr:
        return last_block_;
      case DataKind::PageNum:
        return last_page_;
      case DataKind::PageOffset:
        return offsets_[0];
      case DataKind::Delta:
        return packed_delta0_;
      case DataKind::Last4Offsets:
        return packed_offsets_;
      case DataKind::Last4Deltas:
        return packed_deltas_;
      case DataKind::OffsetXorDelta:
        return offsets_[0] ^ packed_delta0_;
    }
    return 0;
}

std::uint64_t
FeatureExtractor::extract(const FeatureSpec& spec) const
{
    const std::uint64_t c = controlValue(spec.control);
    const std::uint64_t d = dataValue(spec.data);
    if (spec.control == ControlKind::None)
        return d;
    if (spec.data == DataKind::None)
        return c;
    // "Concatenation": fold the control part above the data part.
    return (c << 28) ^ d ^ (c >> 17);
}

std::vector<std::uint64_t>
FeatureExtractor::extractAll(const std::vector<FeatureSpec>& specs) const
{
    std::vector<std::uint64_t> out;
    extractAllInto(specs, out);
    return out;
}

void
FeatureExtractor::extractAllInto(const std::vector<FeatureSpec>& specs,
                                 std::vector<std::uint64_t>& out) const
{
    out.clear();
    out.reserve(specs.size());
    for (const auto& s : specs)
        out.push_back(extract(s));
}

} // namespace pythia::rl
