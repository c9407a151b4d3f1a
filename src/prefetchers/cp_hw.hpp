/**
 * @file
 * CP-HW — the context prefetcher of Peled+ [ISCA'15] restricted to
 * hardware-observable contexts, as the paper builds it for the Appendix
 * B.4 comparison. A *contextual bandit*: it scores (context, offset)
 * pairs with immediate rewards only — no bootstrapped long-term value —
 * which is exactly the "myopic" property Pythia's SARSA formulation
 * improves upon (§4.5).
 */
#pragma once

#include "common/rng.hpp"
#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** CP-HW knobs. */
struct CpHwConfig
{
    std::uint32_t table_entries = 2048; ///< context rows
    double alpha = 0.10;                ///< bandit learning rate
    double epsilon = 0.01;              ///< exploration rate
    double reward_timely = 1.0;
    double reward_late = 0.5;
    double reward_unused = -1.0;
    std::uint64_t seed = 0xC0FFEEull;

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("table_entries", c.table_entries, kTable);
        ar("alpha", c.alpha);
        ar("epsilon", c.epsilon);
        ar("reward_timely", c.reward_timely);
        ar("reward_late", c.reward_late);
        ar("reward_unused", c.reward_unused);
        ar("seed", c.seed);
    }
};

/** Contextual-bandit prefetcher over hardware contexts (PC + last delta). */
class CpHwPrefetcher : public StatefulPrefetcher<CpHwPrefetcher>
{
  public:
    explicit CpHwPrefetcher(const CpHwConfig& cfg = CpHwConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;
    void onPrefetchUsed(Addr block, bool timely) override;
    void onPrefetchEvicted(Addr block, bool used) override;

    /** The shared pruned offset action list (same as Pythia's, so the
     *  comparison isolates the learning algorithm). */
    static const std::vector<std::int32_t>& actionList();

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("cp_hw q table", s.q_);
        ar(s.tracker_, s.rng_);
        ar.table("cp_hw pending table", s.pending_);
    }

    /** Restore hook: every pending prefetch must name a context row and
     *  an action of this configuration. */
    void afterRestore() const;

  private:
    /** Pending-prefetch slots (DESIGN.md §9.1): direct-mapped by target
     *  block, a new prefetch overwriting its slot. */
    static constexpr std::size_t kPendingSlots = 2048;

    struct Pending
    {
        Addr block = 0;
        std::uint32_t ctx = 0;
        std::uint32_t action = 0;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.block, e.ctx, e.action, e.valid);
        }
    };

    std::uint32_t contextOf(Addr pc, std::int32_t delta) const;
    void reinforce(std::uint32_t ctx, std::size_t action, double reward);

    /** The slot of @p block when it holds @p block's prefetch. */
    Pending* pendingOf(Addr block);

    CpHwConfig cfg_;
    std::vector<double> q_; ///< [context * actions + action]
    PageTracker tracker_;
    Rng rng_;
    std::vector<Pending> pending_;
};

} // namespace pythia::pf
