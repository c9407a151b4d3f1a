#include "prefetchers/ppf.hpp"

#include <algorithm>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "spp_ppf",
    "SPP with Perceptron-based Prefetch Filtering [Bhatia+ ISCA'19]",
    {"table_entries", "threshold", "train_margin", "weight_max",
     "spp_st_entries", "spp_pt_sets", "spp_max_lookahead"},
    [](const sim::PrefetcherParams& p) {
        PpfConfig cfg;
        cfg.table_entries = p.getU32("table_entries", cfg.table_entries);
        cfg.threshold = p.getI32("threshold", cfg.threshold);
        cfg.train_margin = p.getI32("train_margin", cfg.train_margin);
        cfg.weight_max = p.getI32("weight_max", cfg.weight_max);
        SppConfig spp;
        spp.st_entries = p.getU32("spp_st_entries", spp.st_entries);
        spp.pt_sets = p.getU32("spp_pt_sets", spp.pt_sets);
        spp.max_lookahead =
            p.getU32("spp_max_lookahead", spp.max_lookahead);
        return std::make_unique<PpfPrefetcher>(cfg, spp);
    }};

/** The inner SPP's tables are checked here, under this entry's spp_*
 *  keys, before the SPP member is built. */
const PpfConfig&
checked(const PpfConfig& cfg, const SppConfig& spp)
{
    requireConfig("spp_ppf",
                  {{cfg.table_entries >= 1, "table_entries", ">= 1"},
                   {spp.st_entries >= 1, "spp_st_entries", ">= 1"},
                   {spp.pt_sets >= 1, "spp_pt_sets", ">= 1"}});
    return cfg;
}

} // namespace

PpfPrefetcher::PpfPrefetcher(const PpfConfig& cfg, const SppConfig& spp_cfg)
    : PrefetcherBase("spp_ppf", 40243 /* ~39.3KB, Table 7 */),
      cfg_(checked(cfg, spp_cfg)),
      spp_(spp_cfg),
      weights_(static_cast<std::size_t>(kFeatures) * cfg.table_entries, 0)
{
}

void
PpfPrefetcher::featureIndices(const PrefetchAccess& access, Addr target,
                              std::uint32_t idx[kFeatures]) const
{
    const std::uint32_t mask = cfg_.table_entries - 1;
    const auto delta = static_cast<std::int64_t>(target) -
                       static_cast<std::int64_t>(access.block);
    idx[0] = static_cast<std::uint32_t>(mix64(access.pc)) & mask;
    idx[1] = static_cast<std::uint32_t>(
                 mix64(access.block & (kBlocksPerPage - 1))) & mask;
    idx[2] = static_cast<std::uint32_t>(
                 mix64(static_cast<std::uint64_t>(delta + 64))) & mask;
    idx[3] = static_cast<std::uint32_t>(
                 mix64(access.pc ^ static_cast<std::uint64_t>(delta + 64)))
             & mask;
}

std::int32_t
PpfPrefetcher::score(const std::uint32_t idx[kFeatures]) const
{
    std::int32_t sum = 0;
    for (int f = 0; f < kFeatures; ++f)
        sum += weights_[static_cast<std::size_t>(f) * cfg_.table_entries +
                        idx[f]];
    return sum;
}

void
PpfPrefetcher::adjust(const PendingPrefetch& p, bool useful)
{
    // Perceptron rule: only retrain on mispredictions or weak margins.
    const bool predicted_useful = p.sum >= cfg_.threshold;
    if (predicted_useful == useful &&
        std::abs(p.sum - cfg_.threshold) >= cfg_.train_margin)
        return;
    const std::int32_t dir = useful ? 1 : -1;
    for (int f = 0; f < kFeatures; ++f) {
        std::int32_t& w =
            weights_[static_cast<std::size_t>(f) * cfg_.table_entries +
                     p.feature_idx[f]];
        w = std::clamp(w + dir, -cfg_.weight_max, cfg_.weight_max);
    }
}

void
PpfPrefetcher::train(const PrefetchAccess& access,
                     std::vector<PrefetchRequest>& out)
{
    // A demand to an address we prefetched and never saw used: the
    // pending table is scanned opportunistically via onPrefetchUsed; here
    // we only generate and filter fresh candidates.
    std::vector<PrefetchRequest> raw;
    spp_.train(access, raw);

    for (const PrefetchRequest& pr : raw) {
        std::uint32_t idx[kFeatures];
        featureIndices(access, pr.block, idx);
        const std::int32_t s = score(idx);
        PendingPrefetch pending;
        std::copy(idx, idx + kFeatures, pending.feature_idx);
        pending.sum = s;
        if (s >= cfg_.threshold) {
            out.push_back(pr);
            pending_[pr.block] = pending;
            if (pending_.size() > 4096)
                pending_.erase(pending_.begin()); // bounded metadata
        } else {
            ++rejected_;
            // Track rejects too: if the line is demanded later we learn
            // the rejection was wrong (handled lazily on re-prefetch).
        }
    }
}

void
PpfPrefetcher::onFill(Addr block, Cycle at)
{
    spp_.onFill(block, at);
}

void
PpfPrefetcher::onPrefetchEvicted(Addr block, bool used)
{
    auto it = pending_.find(block);
    if (it != pending_.end()) {
        if (!used)
            adjust(it->second, false); // wasted prefetch: train to reject
        pending_.erase(it);
    }
    spp_.onPrefetchEvicted(block, used);
}

void
PpfPrefetcher::onPrefetchUsed(Addr block, bool timely)
{
    auto it = pending_.find(block);
    if (it != pending_.end()) {
        adjust(it->second, true);
        pending_.erase(it);
    }
    spp_.onPrefetchUsed(block, timely);
}

} // namespace pythia::pf
