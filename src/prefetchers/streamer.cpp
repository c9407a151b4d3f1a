#include "prefetchers/streamer.hpp"

#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<StreamerPrefetcher>("streamer", StreamerConfig{});

} // namespace

StreamerPrefetcher::StreamerPrefetcher(const StreamerConfig& cfg)
    : StatefulPrefetcher("streamer", cfg.streams * 12), degree_(cfg.degree),
      train_len_(cfg.train_len)
{
    checkKnobs(name(), cfg);
    streams_.resize(cfg.streams);
}

void
StreamerPrefetcher::afterRestore() const
{
    if (degree_ > kMaxDegree)
        throw snap::CorruptError("snapshot corrupt: streamer degree " +
                                 std::to_string(degree_) + " above " +
                                 std::to_string(kMaxDegree));
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

    const std::int32_t dir = delta > 0 ? 1 : -1;
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

} // namespace pythia::pf
