#include "prefetchers/stride.hpp"

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "stride",
    "per-PC stride prefetcher with 2-bit confidence [Fu+ MICRO'92]",
    {"entries", "degree"},
    [](const sim::PrefetcherParams& p) {
        return std::make_unique<StridePrefetcher>(
            p.getU32("entries", 256), p.getU32("degree", 4));
    }};

} // namespace

StridePrefetcher::StridePrefetcher(std::uint32_t entries,
                                   std::uint32_t degree)
    : PrefetcherBase("stride",
                     entries * 16 /* pc tag + addr + stride + conf */),
      degree_(degree)
{
    requireConfig("stride", {{entries >= 1, "entries", ">= 1"}});
    table_.resize(entries);
}

void
StridePrefetcher::train(const PrefetchAccess& access,
                        std::vector<PrefetchRequest>& out)
{
    Entry& e = table_[mix64(access.pc) % table_.size()];
    if (!e.valid || e.pc != access.pc) {
        e = Entry{};
        e.pc = access.pc;
        e.last_block = access.block;
        e.valid = true;
        return;
    }

    const auto stride = static_cast<std::int32_t>(
        static_cast<std::int64_t>(access.block) -
        static_cast<std::int64_t>(e.last_block));
    if (stride == 0)
        return;

    if (stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        e.stride = stride;
        e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
    }
    e.last_block = access.block;

    if (e.confidence >= 2) {
        for (std::uint32_t d = 1; d <= degree_; ++d)
            emitWithinPage(access.block,
                           e.stride * static_cast<std::int32_t>(d), out);
    }
}

void
StridePrefetcher::saveState(snap::Writer& w) const
{
    w.u64(table_.size());
    for (const Entry& e : table_) {
        w.u64(e.pc);
        w.u64(e.last_block);
        w.i32(e.stride);
        w.u8(e.confidence);
        w.boolean(e.valid);
    }
}

void
StridePrefetcher::loadState(snap::Reader& r)
{
    const std::uint64_t n = r.u64();
    if (n != table_.size())
        throw snap::CorruptError(
            "snapshot corrupt: stride table has " + std::to_string(n) +
            " entries but this configuration has " +
            std::to_string(table_.size()));
    for (Entry& e : table_) {
        e.pc = r.u64();
        e.last_block = r.u64();
        e.stride = r.i32();
        e.confidence = r.u8();
        e.valid = r.boolean();
    }
}

} // namespace pythia::pf
