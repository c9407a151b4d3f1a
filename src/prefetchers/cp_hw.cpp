#include "prefetchers/cp_hw.hpp"

#include <algorithm>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const sim::PrefetcherRegistrar registrar{
    "cp_hw",
    "contextual-bandit prefetcher over hardware contexts [Peled+ ISCA'15]",
    {"table_entries", "alpha", "epsilon", "reward_timely", "reward_late",
     "reward_unused", "seed"},
    [](const sim::PrefetcherParams& p) {
        CpHwConfig cfg;
        cfg.table_entries = p.getU32("table_entries", cfg.table_entries);
        cfg.alpha = p.getDouble("alpha", cfg.alpha);
        cfg.epsilon = p.getDouble("epsilon", cfg.epsilon);
        cfg.reward_timely = p.getDouble("reward_timely", cfg.reward_timely);
        cfg.reward_late = p.getDouble("reward_late", cfg.reward_late);
        cfg.reward_unused =
            p.getDouble("reward_unused", cfg.reward_unused);
        cfg.seed = p.getU64("seed", cfg.seed);
        return std::make_unique<CpHwPrefetcher>(cfg);
    }};

} // namespace

const std::vector<std::int32_t>&
CpHwPrefetcher::actionList()
{
    static const std::vector<std::int32_t> actions = {
        -6, -3, -1, 0, 1, 3, 4, 5, 10, 11, 12, 16, 22, 23, 30, 32};
    return actions;
}

CpHwPrefetcher::CpHwPrefetcher(const CpHwConfig& cfg)
    : PrefetcherBase("cp_hw",
                     cfg.table_entries * actionList().size() * 2),
      cfg_(cfg), tracker_(256), rng_(cfg.seed)
{
    requireConfig("cp_hw",
                  {{cfg.table_entries >= 1, "table_entries", ">= 1"}});
    q_.assign(cfg.table_entries,
              std::vector<double>(actionList().size(), 0.0));
}

std::uint32_t
CpHwPrefetcher::contextOf(Addr pc, std::int32_t delta) const
{
    const std::uint64_t key =
        hashCombine(mix64(pc), static_cast<std::uint64_t>(delta + 64));
    return static_cast<std::uint32_t>(key % cfg_.table_entries);
}

void
CpHwPrefetcher::reinforce(std::uint32_t ctx, std::size_t action,
                          double reward)
{
    double& q = q_[ctx][action];
    // Myopic bandit update: no bootstrapping from successor state.
    q += cfg_.alpha * (reward - q);
}

void
CpHwPrefetcher::train(const PrefetchAccess& access,
                      std::vector<PrefetchRequest>& out)
{
    const std::int32_t delta = tracker_.recordAndDelta(access.block);
    const std::uint32_t ctx = contextOf(access.pc, delta);
    const auto& actions = actionList();

    std::size_t choice;
    if (rng_.nextBool(cfg_.epsilon)) {
        choice = rng_.nextBounded(actions.size());
    } else {
        choice = 0;
        for (std::size_t a = 1; a < actions.size(); ++a)
            if (q_[ctx][a] > q_[ctx][choice])
                choice = a;
    }

    const std::int32_t offset = actions[choice];
    if (offset == 0)
        return; // the bandit may also choose not to prefetch
    if (!emitWithinPage(access.block, offset, out)) {
        reinforce(ctx, choice, cfg_.reward_unused);
        return;
    }
    const Addr target = static_cast<Addr>(
        static_cast<std::int64_t>(access.block) + offset);
    pending_[target] = Pending{ctx, choice};
    if (pending_.size() > 2048)
        pending_.erase(pending_.begin());
}

void
CpHwPrefetcher::onPrefetchUsed(Addr block, bool timely)
{
    auto it = pending_.find(block);
    if (it == pending_.end())
        return;
    reinforce(it->second.ctx, it->second.action,
              timely ? cfg_.reward_timely : cfg_.reward_late);
    pending_.erase(it);
}

void
CpHwPrefetcher::onPrefetchEvicted(Addr block, bool used)
{
    auto it = pending_.find(block);
    if (it == pending_.end())
        return;
    if (!used)
        reinforce(it->second.ctx, it->second.action, cfg_.reward_unused);
    pending_.erase(it);
}

} // namespace pythia::pf
