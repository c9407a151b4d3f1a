#include "core/agent.hpp"

#include <algorithm>

#include "snapshot/codec.hpp"

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

/** Reject a configuration the agent cannot run, before the QVStore and
 *  the EQ allocate anything. Keys are the spec-string names; the EQ and
 *  plane caps (the paper's are 256 entries and 7 bits) bound memory. */
const PythiaConfig&
checked(const PythiaConfig& cfg)
{
    static_assert(kEqStateSlots == 8 && kMaxPlanes == 8, "rule texts");
    pf::requireConfig(
        cfg.name,
        {{!cfg.features.empty() && cfg.features.size() <= kEqStateSlots,
          "features", "1 to 8 feature names"},
         {!cfg.actions.empty(), "actions", "a non-empty offset list"},
         {cfg.degree >= 1, "degree", ">= 1"},
         {cfg.eq_size >= 1 && cfg.eq_size <= 65536, "eq_size",
          "in [1, 65536]"},
         {cfg.planes >= 1 && cfg.planes <= kMaxPlanes, "planes",
          "in [1, 8]"},
         {cfg.plane_index_bits >= 1 && cfg.plane_index_bits <= 16,
          "plane_index_bits", "in [1, 16]"}});
    return cfg;
}

} // namespace

PythiaPrefetcher::PythiaPrefetcher(const PythiaConfig& cfg)
    : PrefetcherBase(cfg.name, 26112 /* 25.5KB, Table 4 */),
      cfg_(checked(cfg)), qv_(qvConfigOf(cfg)), eq_(cfg.eq_size),
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

    state_scratch_.reserve(cfg_.features.size());
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
PythiaPrefetcher::retireEntry(EqEntry&& entry)
{
    if (!entry.has_reward) {
        // Never demanded during EQ residency: inaccurate (Alg. 1 line 25).
        entry.reward = inaccurateReward();
        entry.has_reward = true;
        ++*c_reward_inaccurate_;
        ++*action_slots_[entry.action].inaccurate;
    }
    if (eq_.empty())
        return;
    const EqEntry& next = eq_.head();
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
    extractor_.extractAllInto(cfg_.features, state_scratch_);
    std::vector<std::uint64_t>& state = state_scratch_;

    // (3) Epsilon-greedy action selection (Alg. 1 lines 13-16). With the
    // multi-action degree extension, the top-k actions are taken; an
    // exploration draw replaces the primary action with a random one.
    qv_.topActionsInto(state, cfg_.degree, actions_scratch_);
    std::vector<std::uint32_t>& actions = actions_scratch_;
    // topActionsInto just hashed this state's plane rows; export them
    // once so every EQ entry of this demand carries its rows to the
    // retirement-time SARSA update (no re-hash there).
    std::uint32_t qrows[kEqRowSlots];
    const std::uint32_t qrows_n = qv_.lastRowsInto(qrows, kEqRowSlots);
    // Secondary actions only issue while their Q-value beats the
    // no-prefetch action's Q: the agent's own estimate says they are
    // net-beneficial. This keeps the extension conservative on patterns
    // where the agent has learned to stay quiet.
    if (actions.size() > 1) {
        const std::size_t np = actionIndexOf(0);
        // Secondary actions must also clear the accurate-but-late return
        // floor: a learned-useful action sits near R_AL/(1-gamma), while
        // aliased or decayed rows drift below it.
        // topActionsInto just hashed this state's rows; probe the extra
        // actions without re-hashing (identical to qv_.q(state, a)).
        double floor = cfg_.rewards.r_al;
        if (np != static_cast<std::size_t>(-1))
            floor = std::max(
                floor, qv_.qAtLastState(static_cast<std::uint32_t>(np)));
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
    for (std::size_t ai = 0; ai < actions.size(); ++ai) {
        const std::uint32_t action = actions[ai];
        ++*c_actions_taken_;
        ++*action_slots_[action].selected;
        const std::int32_t offset = cfg_.actions[action];
        EqEntry entry;
        // Inline StateVec: every entry takes a flat copy of the state
        // buffer — no heap traffic either way (DESIGN.md §10).
        entry.state = state;
        entry.action = action;
        entry.qrows_n = qrows_n;
        for (std::uint32_t ri = 0; ri < qrows_n; ++ri)
            entry.qrows[ri] = qrows[ri];

        if (offset == 0) {
            entry.reward = noPrefetchReward();
            entry.has_reward = true;
            ++*c_action_no_prefetch_;
        } else if (!sameePageAfterOffset(access.block, offset)) {
            entry.reward = cfg_.rewards.r_cl;
            entry.has_reward = true;
            ++*c_action_out_of_page_;
        } else {
            entry.prefetch_block = static_cast<Addr>(
                static_cast<std::int64_t>(access.block) + offset);
            entry.has_prefetch = true;
            sim::PrefetchRequest pr;
            pr.block = entry.prefetch_block;
            pr.fill_level = 2;
            out.push_back(pr);
            ++*c_action_prefetch_;
        }

        // (5) Insert; retire the evicted entry via SARSA (lines 23-29).
        if (auto evicted = eq_.insert(std::move(entry)))
            retireEntry(std::move(*evicted));
    }
}

void
PythiaPrefetcher::onFill(Addr block, Cycle at)
{
    eq_.markFill(block, at);
}

void
PythiaPrefetcher::saveState(snap::Writer& w) const
{
    qv_.saveState(w);
    eq_.saveState(w);
    extractor_.saveState(w);
    const RngState rs = rng_.state();
    w.u64(rs.s0);
    w.u64(rs.s1);
    stats_.saveState(w);
}

void
PythiaPrefetcher::loadState(snap::Reader& r)
{
    qv_.loadState(r);
    eq_.loadState(r);
    extractor_.loadState(r);
    RngState rs;
    rs.s0 = r.u64();
    rs.s1 = r.u64();
    if (rs.s0 == 0 && rs.s1 == 0)
        throw snap::CorruptError(
            "snapshot corrupt: all-zero exploration RNG state");
    rng_.setState(rs);
    stats_.loadState(r);
}

} // namespace pythia::rl
