#include "prefetchers/streamer.hpp"

#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "streamer",
    "multi-stream L2 streamer [Chen & Baer, IEEE TC'95]",
    {"streams", "degree", "train_len"},
    [](const sim::PrefetcherParams& p) {
        return std::make_unique<StreamerPrefetcher>(
            p.getU32("streams", 64), p.getU32("degree", 8),
            p.getU32("train_len", 2));
    }};

} // namespace

StreamerPrefetcher::StreamerPrefetcher(std::uint32_t streams,
                                       std::uint32_t degree,
                                       std::uint32_t train_len)
    : PrefetcherBase("streamer", streams * 12), degree_(degree),
      train_len_(train_len)
{
    requireConfig("streamer", {{streams >= 1, "streams", ">= 1"}});
    streams_.resize(streams);
}

void
StreamerPrefetcher::train(const PrefetchAccess& access,
                          std::vector<PrefetchRequest>& out)
{
    const Addr page = pageIdOfBlock(access.block);
    const auto offset =
        static_cast<std::int32_t>(access.block & (kBlocksPerPage - 1));
    ++tick_;

    // Find the stream tracking this page, or allocate the LRU slot.
    Stream* s = nullptr;
    Stream* lru = &streams_[0];
    for (auto& st : streams_) {
        if (st.page == page) {
            s = &st;
            break;
        }
        if (st.lru < lru->lru)
            lru = &st;
    }
    if (s == nullptr) {
        *lru = Stream{};
        lru->page = page;
        lru->last_offset = offset;
        lru->lru = tick_;
        return;
    }
    s->lru = tick_;

    const std::int32_t delta = offset - s->last_offset;
    s->last_offset = offset;
    if (delta == 0)
        return;

    const std::int8_t dir = delta > 0 ? 1 : -1;
    if (dir == s->dir) {
        if (s->confirmations < 255)
            ++s->confirmations;
    } else {
        s->dir = dir;
        s->confirmations = 1;
    }

    if (s->confirmations >= train_len_) {
        for (std::uint32_t d = 1; d <= degree_; ++d)
            emitWithinPage(access.block,
                           s->dir * static_cast<std::int32_t>(d), out);
    }
}

void
StreamerPrefetcher::saveState(snap::Writer& w) const
{
    w.u64(tick_);
    // degree_ is runtime-adjustable (setDegree), hence state not config.
    w.u32(degree_);
    w.u64(streams_.size());
    for (const Stream& s : streams_) {
        w.u64(s.page);
        w.i32(s.last_offset);
        w.i32(s.dir);
        w.u8(s.confirmations);
        w.u64(s.lru);
    }
}

void
StreamerPrefetcher::loadState(snap::Reader& r)
{
    const std::uint64_t tick = r.u64();
    const std::uint32_t degree = r.u32();
    const std::uint64_t n = r.u64();
    if (n != streams_.size())
        throw snap::CorruptError(
            "snapshot corrupt: streamer tracks " + std::to_string(n) +
            " streams but this configuration has " +
            std::to_string(streams_.size()));
    tick_ = tick;
    degree_ = degree;
    for (Stream& s : streams_) {
        s.page = r.u64();
        s.last_offset = r.i32();
        s.dir = static_cast<std::int8_t>(r.i32());
        s.confirmations = r.u8();
        s.lru = r.u64();
    }
}

} // namespace pythia::pf
