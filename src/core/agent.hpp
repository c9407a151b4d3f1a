/**
 * @file
 * The Pythia prefetcher: an online reinforcement-learning agent that maps
 * multi-feature program state to prefetch-offset actions with a
 * bandwidth-aware reward scheme, implementing Algorithm 1 of the paper on
 * top of the QVStore / EvaluationQueue substrates.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/eq.hpp"
#include "core/feature.hpp"
#include "core/qvstore.hpp"
#include "prefetchers/prefetcher.hpp"

namespace pythia::rl {

/** The seven reward levels of §3.1. */
struct RewardConfig
{
    double r_at = 20.0;    ///< accurate and timely
    double r_al = 12.0;    ///< accurate but late
    double r_cl = -12.0;   ///< loss of coverage (out-of-page action)
    double r_in_high = -14.0; ///< inaccurate, high bandwidth usage
    double r_in_low = -8.0;   ///< inaccurate, low bandwidth usage
    double r_np_high = -2.0;  ///< no-prefetch, high bandwidth usage
    double r_np_low = -4.0;   ///< no-prefetch, low bandwidth usage
};

/** Full Pythia configuration (paper Table 2 defaults). */
struct PythiaConfig
{
    std::string name = "pythia";
    std::vector<FeatureSpec> features = basicFeatureSpecs();
    /** Pruned prefetch-offset action list; 0 = no prefetch. */
    std::vector<std::int32_t> actions = {-6, -3, -1, 0, 1, 3, 4, 5,
                                         10, 11, 12, 16, 22, 23, 30, 32};
    RewardConfig rewards;
    double alpha = 0.0065;
    double gamma = 0.556;
    double epsilon = 0.002;
    std::size_t eq_size = 256;
    /**
     * Multi-action degree (extension beyond the paper's one-action-per-
     * demand formulation): the agent takes the @c degree highest-Q
     * actions per demand, each tracked and rewarded independently in the
     * EQ. Degree 1 reproduces Algorithm 1 exactly. The harness's scaled
     * configurations raise it to compensate for the much shorter
     * learning windows of this reproduction (DESIGN.md §4).
     */
    std::uint32_t degree = 1;
    std::uint32_t planes = 3;
    std::uint32_t plane_index_bits = 7; ///< 128 rows per plane
    std::uint64_t seed = 0xDE1F1ull;    ///< exploration RNG seed

    /** The spec keys of every Pythia variant: the state vector, the
     *  action list, the Table 2 hyperparameters and the seven reward
     *  levels of §3.1 — the paper's "configuration registers", settable
     *  per run without recompiling (common/knobs.hpp). The EQ and plane
     *  caps (the paper's are 256 entries and 7 bits) bound memory. */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        static_assert(kEqStateSlots == 8, "features rule text");
        ar("features", c.features,
           Pred<std::vector<FeatureSpec>>{
               "1 to 8 feature names", [](const std::vector<FeatureSpec>& f) {
                   return !f.empty() && f.size() <= kEqStateSlots;
               }});
        ar("actions", c.actions,
           Pred<std::vector<std::int32_t>>{
               "a non-empty offset list",
               [](const std::vector<std::int32_t>& a) { return !a.empty(); }});
        ar("alpha", c.alpha);
        ar("gamma", c.gamma);
        ar("epsilon", c.epsilon);
        ar("degree", c.degree, Bound<std::uint32_t>{1, pf::kMaxDegree});
        ar("eq_size", c.eq_size, Bound<std::size_t>{1, 65536});
        ar("planes", c.planes, Bound<std::uint32_t>{1, kMaxPlanes});
        ar("plane_index_bits", c.plane_index_bits,
           Bound<std::uint32_t>{1, 16});
        ar("seed", c.seed);
        ar("r_at", c.rewards.r_at);
        ar("r_al", c.rewards.r_al);
        ar("r_cl", c.rewards.r_cl);
        ar("r_in_high", c.rewards.r_in_high);
        ar("r_in_low", c.rewards.r_in_low);
        ar("r_np_high", c.rewards.r_np_high);
        ar("r_np_low", c.rewards.r_np_low);
    }
};

/** The "features" key: a '/'-list of featureName(f, '.') spellings
 *  ("PC.Delta/Last4Deltas"); found by parseKnobs through ADL. */
void parseKnob(const SpecParams& p, const std::string& key,
               std::vector<FeatureSpec>& features);

/**
 * Pythia agent (paper §4, Algorithm 1).
 *
 * Per demand request: (1) reward any EQ entry whose prefetch address the
 * demand matches (R_AT / R_AL by fill status); (2) extract the state
 * vector; (3) epsilon-greedily pick the action with the highest Q-value;
 * (4) issue the prefetch (or not) and push the decision into the EQ,
 * immediately rewarding no-prefetch / out-of-page actions; (5) on EQ
 * eviction, default-reward unresolved entries (R_IN by bandwidth) and run
 * the SARSA update against the EQ head.
 */
class PythiaPrefetcher : public pf::StatefulPrefetcher<PythiaPrefetcher>
{
  public:
    explicit PythiaPrefetcher(const PythiaConfig& cfg = PythiaConfig{});

    // Non-copyable: the counter slots point into this object's stats_.
    PythiaPrefetcher(const PythiaPrefetcher&) = delete;
    PythiaPrefetcher& operator=(const PythiaPrefetcher&) = delete;

    void train(const sim::PrefetchAccess& access,
               std::vector<sim::PrefetchRequest>& out) override;
    void onFill(Addr block, Cycle at) override;

    /** Snapshot state (snapshot/archive.hpp): the QVStore, EQ, feature
     *  histories, exploration RNG and agent counters. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.qv_, s.eq_, s.extractor_, s.rng_, s.stats_);
    }

    /** Live configuration-register updates (paper §6.6): swap the reward
     *  levels without touching learned state. */
    void setRewards(const RewardConfig& rewards) { cfg_.rewards = rewards; }

    /** The underlying Q-value store (introspection / Fig. 13). */
    const QVStore& qvstore() const { return qv_; }

    /** The evaluation queue (introspection / tests). */
    const EvaluationQueue& eq() const { return eq_; }

    /** The feature extractor (introspection / tests). */
    const FeatureExtractor& extractor() const { return extractor_; }

    /** Agent-side counters (actions taken, per-reward-level counts). */
    const StatGroup& agentStats() const { return stats_; }

    /** Action list index of offset @p offset (SIZE_MAX when absent). */
    std::size_t actionIndexOf(std::int32_t offset) const;

    const PythiaConfig& config() const { return cfg_; }

  private:
    double inaccurateReward() const;
    double noPrefetchReward() const;

    /** Assign the eviction-time reward to @p entry if missing, then
     *  SARSA-update it against its successor @p next. */
    void retireEntry(EqEntry& entry, const EqEntry& next);

    PythiaConfig cfg_;
    QVStore qv_;
    EvaluationQueue eq_;
    FeatureExtractor extractor_;
    Rng rng_;
    StatGroup stats_;

    /** Per-action counter slots, indexed by action (the per-offset stat
     *  names are built once here instead of concatenated per event). */
    struct ActionSlots
    {
        std::uint64_t* selected;      ///< sel_offset_<o>
        std::uint64_t* accurate_timely; ///< off_at_<o>
        std::uint64_t* accurate_late;   ///< off_al_<o>
        std::uint64_t* inaccurate;      ///< off_in_<o>
    };
    std::vector<ActionSlots> action_slots_;
    std::uint64_t* c_reward_inaccurate_;
    std::uint64_t* c_reward_accurate_timely_;
    std::uint64_t* c_reward_accurate_late_;
    std::uint64_t* c_sarsa_updates_;
    std::uint64_t* c_explored_actions_;
    std::uint64_t* c_actions_taken_;
    std::uint64_t* c_action_no_prefetch_;
    std::uint64_t* c_action_out_of_page_;
    std::uint64_t* c_action_prefetch_;

    /** actionIndexOf(0): the no-prefetch action (SIZE_MAX when absent). */
    std::size_t np_action_;

    // Per-demand scratch (train() is single-threaded per agent).
    std::vector<std::uint32_t> actions_scratch_;
    /** The EQ entry of the current demand's actions; fill_time and
     *  fill_known keep their defaults (only queued entries fill). */
    EqEntry entry_;
};

} // namespace pythia::rl
