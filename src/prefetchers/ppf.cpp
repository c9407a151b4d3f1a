#include "prefetchers/ppf.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<PpfPrefetcher>("spp_ppf", PpfConfig{});

} // namespace

PpfPrefetcher::PpfPrefetcher(const PpfConfig& cfg)
    : StatefulPrefetcher("spp_ppf", 40243 /* ~39.3KB, Table 7 */),
      cfg_(checkKnobs(name(), cfg)),
      spp_(cfg.spp),
      weights_(static_cast<std::size_t>(kFeatures) * cfg.table_entries, 0),
      pending_(kPendingSlots)
{
}

void
PpfPrefetcher::afterRestore() const
{
    for (const std::int32_t w : weights_)
        if (w < -cfg_.weight_max || w > cfg_.weight_max)
            throw snap::CorruptError("snapshot corrupt: ppf weight " +
                                     std::to_string(w) +
                                     " outside its saturation bound");
    // A pending sum is at most kFeatures saturated weights, so adjust()
    // can subtract the threshold without overflow.
    const std::int64_t max_sum = std::int64_t{kFeatures} * cfg_.weight_max;
    for (const PendingPrefetch& p : pending_) {
        if (p.valid && std::abs(std::int64_t{p.sum}) > max_sum)
            throw snap::CorruptError("snapshot corrupt: ppf pending sum " +
                                     std::to_string(p.sum) +
                                     " outside its weight bound");
        for (const std::uint32_t idx : p.feature_idx)
            if (p.valid && idx >= cfg_.table_entries)
                throw snap::CorruptError(
                    "snapshot corrupt: ppf pending feature index " +
                    std::to_string(idx) + " outside the weight tables");
    }
}

PpfPrefetcher::PendingPrefetch*
PpfPrefetcher::pendingOf(Addr block)
{
    PendingPrefetch& p = pending_[block & (kPendingSlots - 1)];
    return p.valid && p.block == block ? &p : nullptr;
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
        if (s >= cfg_.threshold) {
            out.push_back(pr);
            PendingPrefetch& p = pending_[pr.block & (kPendingSlots - 1)];
            p.block = pr.block;
            std::copy(idx, idx + kFeatures, p.feature_idx);
            p.sum = s;
            p.valid = true;
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
    if (PendingPrefetch* p = pendingOf(block)) {
        if (!used)
            adjust(*p, false); // wasted prefetch: train to reject
        p->valid = false;
    }
    spp_.onPrefetchEvicted(block, used);
}

void
PpfPrefetcher::onPrefetchUsed(Addr block, bool timely)
{
    if (PendingPrefetch* p = pendingOf(block)) {
        adjust(*p, true);
        p->valid = false;
    }
    spp_.onPrefetchUsed(block, timely);
}

} // namespace pythia::pf
