#include "core/agent.hpp"

#include <algorithm>

namespace pythia::rl {

namespace {

QVStoreConfig
qvConfigOf(const PythiaConfig& cfg)
{
    QVStoreConfig qc;
    qc.num_features = static_cast<std::uint32_t>(cfg.features.size());
    qc.num_planes = cfg.planes;
    qc.plane_index_bits = cfg.plane_index_bits;
    qc.num_actions = static_cast<std::uint32_t>(cfg.actions.size());
    qc.alpha = cfg.alpha;
    qc.gamma = cfg.gamma;
    // Optimistic initialization at the highest achievable return.
    qc.q_init = cfg.rewards.r_at / (1.0 - cfg.gamma);
    return qc;
}

} // namespace

PythiaPrefetcher::PythiaPrefetcher(const PythiaConfig& cfg)
    : StatefulPrefetcher(cfg.name, 26112 /* 25.5KB, Table 4 */),
      cfg_(checkKnobs(name(), cfg)), qv_(qvConfigOf(cfg)), eq_(cfg.eq_size),
      rng_(cfg.seed), stats_("pythia")
{
    action_slots_.reserve(cfg_.actions.size());
    for (const std::int32_t offset : cfg_.actions) {
        const std::string o = std::to_string(offset);
        action_slots_.push_back(
            {stats_.counterSlot("sel_offset_" + o),
             stats_.counterSlot("off_at_" + o),
             stats_.counterSlot("off_al_" + o),
             stats_.counterSlot("off_in_" + o)});
    }
    c_reward_inaccurate_ = stats_.counterSlot("reward_inaccurate");
    c_reward_accurate_timely_ =
        stats_.counterSlot("reward_accurate_timely");
    c_reward_accurate_late_ = stats_.counterSlot("reward_accurate_late");
    c_sarsa_updates_ = stats_.counterSlot("sarsa_updates");
    c_explored_actions_ = stats_.counterSlot("explored_actions");
    c_actions_taken_ = stats_.counterSlot("actions_taken");
    c_action_no_prefetch_ = stats_.counterSlot("action_no_prefetch");
    c_action_out_of_page_ = stats_.counterSlot("action_out_of_page");
    c_action_prefetch_ = stats_.counterSlot("action_prefetch");

    np_action_ = actionIndexOf(0);
    actions_scratch_.reserve(
        std::min<std::size_t>(cfg_.degree, cfg_.actions.size()));
}

std::size_t
PythiaPrefetcher::actionIndexOf(std::int32_t offset) const
{
    for (std::size_t i = 0; i < cfg_.actions.size(); ++i)
        if (cfg_.actions[i] == offset)
            return i;
    return static_cast<std::size_t>(-1);
}

double
PythiaPrefetcher::inaccurateReward() const
{
    return highBandwidth() ? cfg_.rewards.r_in_high : cfg_.rewards.r_in_low;
}

double
PythiaPrefetcher::noPrefetchReward() const
{
    return highBandwidth() ? cfg_.rewards.r_np_high : cfg_.rewards.r_np_low;
}

void
PythiaPrefetcher::retireEntry(EqEntry& entry, const EqEntry& next)
{
    if (!entry.has_reward) {
        // Never demanded during EQ residency: inaccurate (Alg. 1 line 25).
        entry.reward = inaccurateReward();
        entry.has_reward = true;
        ++*c_reward_inaccurate_;
        ++*action_slots_[entry.action].inaccurate;
    }
    // Both entries cached their plane rows at insertion; a snapshot
    // restore clears the cache (qrows_n = 0) and re-hashes here.
    qv_.updateCached(entry.state.data(), entry.state.size(),
                     entry.qrows_n ? entry.qrows : nullptr, entry.action,
                     entry.reward, next.state.data(), next.state.size(),
                     next.qrows_n ? next.qrows : nullptr, next.action);
    ++*c_sarsa_updates_;
}

void
PythiaPrefetcher::train(const sim::PrefetchAccess& access,
                        std::vector<sim::PrefetchRequest>& out)
{
    // (1) Reward every matching in-flight action: R_AT when the demand
    // came after the prefetch fill, R_AL otherwise (Alg. 1 lines 6-11).
    // rewardAll marks the entries rewarded and keeps the EQ's
    // pending-block index exact; most demands match nothing and return
    // after one hash probe instead of a 256-entry scan.
    eq_.rewardAll(access.block, [&](EqEntry& hit) {
        const bool filled = hit.fill_known &&
                            hit.fill_time <= access.cycle;
        hit.reward = filled ? cfg_.rewards.r_at : cfg_.rewards.r_al;
        ++*(filled ? c_reward_accurate_timely_
                   : c_reward_accurate_late_);
        ++*(filled ? action_slots_[hit.action].accurate_timely
                   : action_slots_[hit.action].accurate_late);
    });

    // (2) Extract the state vector (Alg. 1 line 12).
    extractor_.observe(access.pc, access.block);
    const std::size_t n = cfg_.features.size();
    std::uint64_t state[kEqStateSlots];
    for (std::size_t i = 0; i < n; ++i)
        state[i] = extractor_.extract(cfg_.features[i]);

    // (3) Epsilon-greedy action selection (Alg. 1 lines 13-16). With the
    // multi-action degree extension, the top-k actions are taken; an
    // exploration draw replaces the primary action with a random one.
    qv_.topActionsInto(state, n, cfg_.degree, actions_scratch_);
    std::vector<std::uint32_t>& actions = actions_scratch_;
    // Every EQ entry of this demand is a copy of entry_: the state, and
    // the plane rows topActionsInto just hashed for it, so the
    // retirement-time SARSA update never re-hashes.
    entry_.state.assign(state, n);
    entry_.qrows_n = qv_.lastRowsInto(entry_.qrows, kEqRowSlots);
    // Secondary actions only issue while their Q-value beats the
    // no-prefetch action's Q: the agent's own estimate says they are
    // net-beneficial. This keeps the extension conservative on patterns
    // where the agent has learned to stay quiet.
    if (actions.size() > 1) {
        // Secondary actions must also clear the accurate-but-late return
        // floor: a learned-useful action sits near R_AL/(1-gamma), while
        // aliased or decayed rows drift below it.
        // topActionsInto just scored every action of this state; probe
        // them without re-hashing (identical to qv_.q(state, a)).
        double floor = cfg_.rewards.r_al;
        if (np_action_ != static_cast<std::size_t>(-1))
            floor = std::max(floor, qv_.qAtLastState(
                                        static_cast<std::uint32_t>(
                                            np_action_)));
        std::size_t keep = 1;
        while (keep < actions.size() &&
               qv_.qAtLastState(actions[keep]) > floor)
            ++keep;
        actions.resize(keep);
    }
    if (rng_.nextBool(cfg_.epsilon)) {
        actions[0] = static_cast<std::uint32_t>(
            rng_.nextBounded(cfg_.actions.size()));
        ++*c_explored_actions_;
    }

    // (4) Generate the prefetches and EQ entries (Alg. 1 lines 17-22).
    for (const std::uint32_t action : actions) {
        ++*c_actions_taken_;
        ++*action_slots_[action].selected;
        const std::int32_t offset = cfg_.actions[action];
        entry_.action = action;
        entry_.prefetch_block = 0;
        entry_.has_prefetch = false;
        entry_.has_reward = true;
        if (offset == 0) {
            entry_.reward = noPrefetchReward();
            ++*c_action_no_prefetch_;
        } else if (!samePageAfterOffset(access.block, offset)) {
            entry_.reward = cfg_.rewards.r_cl;
            ++*c_action_out_of_page_;
        } else {
            entry_.prefetch_block = static_cast<Addr>(
                static_cast<std::int64_t>(access.block) + offset);
            entry_.has_prefetch = true;
            entry_.has_reward = false;
            entry_.reward = 0.0;
            sim::PrefetchRequest pr;
            pr.block = entry_.prefetch_block;
            pr.fill_level = 2;
            out.push_back(pr);
            ++*c_action_prefetch_;
        }

        // (5) Retire the evicted entry via SARSA, in place in its ring
        // slot, then push (lines 23-29). The successor is the new head;
        // in a one-entry EQ it is the entry about to be pushed.
        if (eq_.full()) {
            EqEntry& evicted = eq_.popFront();
            retireEntry(evicted, eq_.empty() ? entry_ : eq_.head());
        }
        eq_.push(entry_);
    }
}

void
PythiaPrefetcher::onFill(Addr block, Cycle at)
{
    eq_.markFill(block, at);
}

} // namespace pythia::rl
