/**
 * @file
 * QVStore — Pythia's hierarchical Q-value storage (paper §4.2.1).
 *
 * One *vault* per state-vector feature; each vault is a set of tile-coded
 * *planes* (small 2-D tables indexed by hashed feature value x action).
 * A feature-action Q-value is the sum of its partial plane values
 * (Fig. 5(b)); the state-action Q-value is the max over vaults (Eqn. 3).
 *
 * Data layout (DESIGN.md §10): the whole store is one flat float array
 * in [vault][plane][row][action] order — a structure-of-arrays whose
 * innermost dimension is the action, so every hashed plane row is one
 * contiguous `num_actions`-float run (exactly one 64-byte cache line at
 * the paper's 16 actions). Action scoring is one pass over those rows
 * in blocks of four actions (scanActions) whose sums and vault maxima
 * stay in registers. No floating-point sum is reassociated: each
 * action's partial-value chain keeps its scalar evaluation order, so
 * the blocked kernel, a scalar build and a wider-ISA build produce
 * bit-identical Q-values.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace pythia::rl {

/** Planes per vault: one design-time shift constant each (§4.2.1). */
inline constexpr std::uint32_t kMaxPlanes = 8;

/** QVStore geometry and learning parameters (paper Table 2 / Table 4). */
struct QVStoreConfig
{
    std::uint32_t num_features = 2;   ///< vaults
    std::uint32_t num_planes = 3;     ///< planes per vault
    std::uint32_t plane_index_bits = 7; ///< 128 feature rows per plane
    std::uint32_t num_actions = 16;
    double alpha = 0.0065;            ///< learning rate
    double gamma = 0.556;             ///< discount factor
    /** Optimistic initial Q-value. The paper initializes to the highest
     *  possible cumulative reward (Algorithm 1 line 2 writes it as
     *  1/(1-gamma) for unit-scale rewards); with reward levels up to
     *  R_AT this is R_max/(1-gamma). Optimism drives systematic
     *  exploration of every action. */
    double q_init = 20.0 / (1.0 - 0.556);
};

/**
 * The Q-value store. Values are kept in float; the hardware realization
 * quantizes to 16-bit fixed point (storage modelled in storage_model.*).
 *
 * The primary lookup/update entry points take the state vector as
 * pointer + length so per-demand callers (agent, EQ retirement) never
 * materialize a std::vector; the vector overloads remain for tests and
 * introspection and delegate to the span forms.
 */
class QVStore
{
  public:
    explicit QVStore(const QVStoreConfig& cfg);

    /** Q(S, A): max over vaults of the summed partial values. */
    double q(const std::uint64_t* state, std::size_t n,
             std::uint32_t action) const;
    double q(const std::vector<std::uint64_t>& state,
             std::uint32_t action) const
    {
        return q(state.data(), state.size(), action);
    }

    /** argmax_a Q(S, a); ties resolve to the lowest action index. */
    std::uint32_t maxAction(const std::uint64_t* state,
                            std::size_t n) const;
    std::uint32_t maxAction(const std::vector<std::uint64_t>& state) const
    {
        return maxAction(state.data(), state.size());
    }

    /** The @p k actions with the highest Q-values, best first (the
     *  multi-action degree extension; k=1 gives [maxAction]). */
    std::vector<std::uint32_t>
    topActions(const std::vector<std::uint64_t>& state,
               std::uint32_t k) const;

    /** topActions into @p out (cleared first), for per-demand callers
     *  that reuse one buffer. */
    void topActionsInto(const std::uint64_t* state, std::size_t n,
                        std::uint32_t k,
                        std::vector<std::uint32_t>& out) const;
    void topActionsInto(const std::vector<std::uint64_t>& state,
                        std::uint32_t k,
                        std::vector<std::uint32_t>& out) const
    {
        topActionsInto(state.data(), state.size(), k, out);
    }

    /**
     * Q(S, A) for the state of the most recent q() / maxAction() /
     * topActions() / maxQ() call on this object, without re-hashing the
     * plane rows. Per-demand callers that probe several actions of one
     * state (the agent's secondary-action filter) use this; identical
     * to q(same_state, action). After a full-scan call (maxAction /
     * topActions / maxQ) this is a single read of the cached action
     * scores; after q() it re-sums the cached rows.
     */
    double qAtLastState(std::uint32_t action) const
    {
        return scan_valid_ ? qa_[action] : qFromRows(action);
    }

    /** Q(S, argmax_a Q(S, a)). */
    double maxQ(const std::uint64_t* state, std::size_t n) const;
    double maxQ(const std::vector<std::uint64_t>& state) const
    {
        return maxQ(state.data(), state.size());
    }

    /**
     * SARSA update (paper Eqn. 1 / Algorithm 1 line 29):
     * Q(S1,A1) += alpha * (R + gamma * Q(S2,A2) - Q(S1,A1)).
     * The TD error is distributed equally over every plane of every vault,
     * as in the original artifact.
     */
    void update(const std::uint64_t* s1, std::size_t n1, std::uint32_t a1,
                double reward, const std::uint64_t* s2, std::size_t n2,
                std::uint32_t a2)
    {
        updateCached(s1, n1, nullptr, a1, reward, s2, n2, nullptr, a2);
    }
    void update(const std::vector<std::uint64_t>& s1, std::uint32_t a1,
                double reward, const std::vector<std::uint64_t>& s2,
                std::uint32_t a2)
    {
        update(s1.data(), s1.size(), a1, reward, s2.data(), s2.size(),
               a2);
    }

    /**
     * update() with cached plane rows. @p rows1 / @p rows2 are flat
     * table offsets previously exported by lastRowsInto() for s1 / s2
     * (pass nullptr to hash the corresponding state instead). Rows are
     * a pure function of the state and this store's geometry, so the
     * result is bit-identical to the hashing form; callers that hold a
     * state across time (the EQ) skip the 2x re-hash per retirement.
     */
    void updateCached(const std::uint64_t* s1, std::size_t n1,
                      const std::uint32_t* rows1, std::uint32_t a1,
                      double reward, const std::uint64_t* s2,
                      std::size_t n2, const std::uint32_t* rows2,
                      std::uint32_t a2);

    /**
     * Export the plane-row offsets of the state hashed by the most
     * recent lookup as u32 flat offsets. Returns the row count, or 0
     * when it exceeds @p max (caller falls back to re-hashing).
     */
    std::uint32_t lastRowsInto(std::uint32_t* out, std::uint32_t max) const
    {
        const std::uint32_t n =
            static_cast<std::uint32_t>(row_bases_.size());
        if (n > max)
            return 0;
        for (std::uint32_t i = 0; i < n; ++i)
            out[i] = static_cast<std::uint32_t>(row_bases_[i]);
        return n;
    }

    /** Reset all entries to the optimistic initial value 1/(1-gamma)
     *  (Algorithm 1 line 2). */
    void resetToOptimistic();

    /** Per-feature (vault) Q-value, exposed for the Fig. 13 case study. */
    double vaultQ(std::uint32_t vault, std::uint64_t feature_value,
                  std::uint32_t action) const;

    /** Number of Q-value updates performed so far. */
    std::uint64_t updates() const { return updates_; }

    const QVStoreConfig& config() const { return cfg_; }

    /** Snapshot state (snapshot/archive.hpp): the Q table, in its
     *  [vault][plane][row][action] cell order, and the update count.
     *  Lookup scratch is excluded. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("qvstore table", s.table_);
        ar(s.updates_);
    }

    /** Restore hook: the cached scan no longer matches the table. */
    void afterRestore() { scan_valid_ = false; }

  private:
    std::uint32_t planeRow(std::uint32_t plane,
                           std::uint64_t feature_value) const;
    float& cell(std::uint32_t vault, std::uint32_t plane,
                std::uint32_t row, std::uint32_t action);
    float cellValue(std::uint32_t vault, std::uint32_t plane,
                    std::uint32_t row, std::uint32_t action) const;

    /**
     * Hash the state's plane rows once per state, caching each row's
     * flat byte offset into @p table_ in @p row_bases_. The rows depend
     * only on (plane, feature value) — never on the action — so every
     * per-action evaluation afterwards is pure table reads.
     */
    void computeRows(const std::uint64_t* state, std::size_t n) const;

    /** Q(S, A) for one action from the rows of the last computeRows()
     *  call: max over vaults of the plane-partial sums, in the same
     *  order as the direct evaluation (bit-identical results). */
    double qFromRows(std::uint32_t action) const;

    /**
     * The data-oriented kernel: score ALL actions of the last
     * computeRows() state into @p qa_ in one pass over its plane rows,
     * four actions at a time (one double sum per action, added in plane
     * order, then a max over vaults), the remainder action by action.
     * Bit-identical to calling qFromRows() per action.
     */
    void scanActions() const;

    QVStoreConfig cfg_;
    std::uint32_t rows_per_plane_;
    /** [vault][plane][row * actions + action] flattened; each (vault,
     *  plane, row) is one contiguous num_actions-float run. */
    std::vector<float> table_;
    std::uint64_t updates_ = 0;
    /** computeRows() scratch: [vault * num_planes + plane] -> flat
     *  offset of the row's first action in table_. Mutable because Q
     *  evaluation is logically const; a QVStore is owned by one
     *  single-threaded simulation (DESIGN.md §6). */
    mutable std::vector<std::size_t> row_bases_;
    /** scanActions() output: Q of the last state per action. */
    mutable std::vector<double> qa_;
    /** topActionsInto() selection scratch: the kept actions' Qs. */
    mutable std::vector<double> top_q_;
    /** Whether qa_ reflects the state of the last computeRows(). */
    mutable bool scan_valid_ = false;
};

} // namespace pythia::rl
