#include "prefetchers/mlop.hpp"

#include <algorithm>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "mlop",
    "Multi-Lookahead Offset Prefetcher [Shakerinava+ DPC3'19]",
    {"amt_entries", "update_round", "max_degree", "max_offset"},
    [](const sim::PrefetcherParams& p) {
        MlopConfig cfg;
        cfg.amt_entries = p.getU32("amt_entries", cfg.amt_entries);
        cfg.update_round = p.getU32("update_round", cfg.update_round);
        cfg.max_degree = p.getU32("max_degree", cfg.max_degree);
        cfg.max_offset = p.getI32("max_offset", cfg.max_offset);
        return std::make_unique<MlopPrefetcher>(cfg);
    }};

} // namespace

MlopPrefetcher::MlopPrefetcher(const MlopConfig& cfg)
    : PrefetcherBase("mlop", 8192 /* ~8KB, Table 7 */), cfg_(cfg)
{
    // Candidate offsets stay within one page.
    requireConfig("mlop", {{cfg.amt_entries >= 1, "amt_entries", ">= 1"},
                           {cfg.max_offset >= 0 &&
                                cfg.max_offset < static_cast<std::int32_t>(
                                                     kBlocksPerPage),
                            "max_offset", "in [0, 63]"}});
    maps_.resize(cfg.amt_entries);
    scores_.assign(cfg.max_degree,
                   std::vector<std::uint32_t>(2 * cfg.max_offset + 1, 0));
}

MlopPrefetcher::MapEntry&
MlopPrefetcher::mapOf(Addr page)
{
    return maps_[static_cast<std::size_t>(mix64(page)) % maps_.size()];
}

void
MlopPrefetcher::finishRound()
{
    // Per lookahead level pick the best-scoring offset; a level abstains
    // when its best score is too weak relative to the round length.
    chosen_.clear();
    const std::uint32_t min_score = cfg_.update_round / 8;
    for (std::uint32_t l = 0; l < cfg_.max_degree; ++l) {
        const auto& row = scores_[l];
        std::size_t best = 0;
        for (std::size_t i = 1; i < row.size(); ++i)
            if (row[i] > row[best])
                best = i;
        const auto offset = static_cast<std::int32_t>(best) -
                            cfg_.max_offset;
        if (row[best] >= min_score && offset != 0)
            chosen_.push_back(offset);
    }
    std::sort(chosen_.begin(), chosen_.end());
    chosen_.erase(std::unique(chosen_.begin(), chosen_.end()),
                  chosen_.end());
    for (auto& row : scores_)
        std::fill(row.begin(), row.end(), 0u);
    updates_ = 0;
}

void
MlopPrefetcher::train(const PrefetchAccess& access,
                      std::vector<PrefetchRequest>& out)
{
    const Addr page = pageIdOfBlock(access.block);
    const auto offset =
        static_cast<std::int32_t>(access.block & (kBlocksPerPage - 1));

    MapEntry& m = mapOf(page);
    if (!m.valid || m.page != page) {
        m = MapEntry{};
        m.page = page;
        m.valid = true;
    }

    // Score candidates: offset d gets credit at level l when block
    // (offset - d) was accessed and its recency distance is >= l.
    for (std::int32_t d = -cfg_.max_offset; d <= cfg_.max_offset; ++d) {
        if (d == 0)
            continue;
        const std::int32_t src = offset - d;
        if (src < 0 || src >= static_cast<std::int32_t>(kBlocksPerPage))
            continue;
        if (((m.bitmap >> src) & 1) == 0)
            continue;
        const std::uint32_t dist =
            static_cast<std::uint8_t>(m.seq - m.access_seq[src]);
        const std::uint32_t levels =
            std::min<std::uint32_t>(dist, cfg_.max_degree);
        for (std::uint32_t l = 0; l < levels; ++l)
            ++scores_[l][static_cast<std::size_t>(d + cfg_.max_offset)];
    }

    m.bitmap |= 1ull << offset;
    ++m.seq;
    m.access_seq[offset] = m.seq;

    if (++updates_ >= cfg_.update_round)
        finishRound();

    for (std::int32_t d : chosen_)
        emitWithinPage(access.block, d, out);
}

} // namespace pythia::pf
