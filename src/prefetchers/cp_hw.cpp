#include "prefetchers/cp_hw.hpp"

#include <algorithm>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<CpHwPrefetcher>("cp_hw", CpHwConfig{});

} // namespace

const std::vector<std::int32_t>&
CpHwPrefetcher::actionList()
{
    static const std::vector<std::int32_t> actions = {
        -6, -3, -1, 0, 1, 3, 4, 5, 10, 11, 12, 16, 22, 23, 30, 32};
    return actions;
}

CpHwPrefetcher::CpHwPrefetcher(const CpHwConfig& cfg)
    : StatefulPrefetcher("cp_hw",
                         cfg.table_entries * actionList().size() * 2),
      cfg_(cfg), tracker_(256), rng_(cfg.seed), pending_(kPendingSlots)
{
    checkKnobs(name(), cfg);
    q_.assign(cfg.table_entries * actionList().size(), 0.0);
}

void
CpHwPrefetcher::afterRestore() const
{
    for (const Pending& p : pending_)
        if (p.valid && (p.ctx >= cfg_.table_entries ||
                        p.action >= actionList().size()))
            throw snap::CorruptError(
                "snapshot corrupt: cp_hw pending prefetch names context " +
                std::to_string(p.ctx) + ", action " +
                std::to_string(p.action));
}

CpHwPrefetcher::Pending*
CpHwPrefetcher::pendingOf(Addr block)
{
    Pending& p = pending_[block & (kPendingSlots - 1)];
    return p.valid && p.block == block ? &p : nullptr;
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
    double& q = q_[ctx * actionList().size() + action];
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
        const double* q = q_.data() + ctx * actions.size();
        choice = 0;
        for (std::size_t a = 1; a < actions.size(); ++a)
            if (q[a] > q[choice])
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
    pending_[target & (kPendingSlots - 1)] =
        Pending{target, ctx, static_cast<std::uint32_t>(choice), true};
}

void
CpHwPrefetcher::onPrefetchUsed(Addr block, bool timely)
{
    Pending* p = pendingOf(block);
    if (p == nullptr)
        return;
    reinforce(p->ctx, p->action,
              timely ? cfg_.reward_timely : cfg_.reward_late);
    p->valid = false;
}

void
CpHwPrefetcher::onPrefetchEvicted(Addr block, bool used)
{
    Pending* p = pendingOf(block);
    if (p == nullptr)
        return;
    if (!used)
        reinforce(p->ctx, p->action, cfg_.reward_unused);
    p->valid = false;
}

} // namespace pythia::pf
