/**
 * @file
 * ScalarQVStore — the PR 3 row-cached scalar QVStore, retained verbatim
 * as a reference implementation. The production QVStore (qvstore.hpp)
 * replaced the per-action qFromRows loop with the data-oriented
 * scanActions kernel; this class keeps the old algorithm so that
 *
 *  - tests/test_data_layout.cpp can assert the kernel is bit-exact
 *    against the straightforward evaluation across randomized configs
 *    and traffic, and
 *  - bench_micro_qvstore can sweep the SoA scan layout against the
 *    row-cached per-action layout and show the delta in the artifact.
 *
 * Header-only and deliberately unoptimized beyond the PR 3 state; not
 * used anywhere on a simulation path.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "core/qvstore.hpp"

namespace pythia::rl {

class ScalarQVStore
{
  public:
    explicit ScalarQVStore(const QVStoreConfig& cfg) : cfg_(cfg)
    {
        assert(cfg_.num_features > 0 && cfg_.num_planes > 0);
        assert(cfg_.num_planes <= std::size(kShift));
        assert(cfg_.num_actions > 0);
        rows_per_plane_ = 1u << cfg_.plane_index_bits;
        table_.assign(static_cast<std::size_t>(cfg_.num_features) *
                          cfg_.num_planes * rows_per_plane_ *
                          cfg_.num_actions,
                      0.0f);
        rows_.assign(static_cast<std::size_t>(cfg_.num_features) *
                         cfg_.num_planes,
                     0);
        scored_.reserve(cfg_.num_actions);
        resetToOptimistic();
    }

    void resetToOptimistic()
    {
        const float init =
            static_cast<float>(cfg_.q_init / cfg_.num_planes);
        for (auto& v : table_)
            v = init;
        updates_ = 0;
    }

    double q(const std::vector<std::uint64_t>& state,
             std::uint32_t action) const
    {
        computeRows(state);
        return qFromRows(action);
    }

    std::uint32_t maxAction(const std::vector<std::uint64_t>& state) const
    {
        computeRows(state);
        std::uint32_t best = 0;
        double best_q = qFromRows(0);
        for (std::uint32_t a = 1; a < cfg_.num_actions; ++a) {
            const double qa = qFromRows(a);
            if (qa > best_q) {
                best_q = qa;
                best = a;
            }
        }
        return best;
    }

    std::vector<std::uint32_t>
    topActions(const std::vector<std::uint64_t>& state,
               std::uint32_t k) const
    {
        computeRows(state);
        scored_.clear();
        for (std::uint32_t a = 0; a < cfg_.num_actions; ++a)
            scored_.emplace_back(qFromRows(a), a);
        std::sort(scored_.begin(), scored_.end(),
                  [](const auto& x, const auto& y) {
                      return x.first != y.first ? x.first > y.first
                                                : x.second < y.second;
                  });
        std::vector<std::uint32_t> out;
        for (std::uint32_t i = 0; i < k && i < scored_.size(); ++i)
            out.push_back(scored_[i].second);
        return out;
    }

    double maxQ(const std::vector<std::uint64_t>& state) const
    {
        computeRows(state);
        double best_q = qFromRows(0);
        for (std::uint32_t a = 1; a < cfg_.num_actions; ++a) {
            const double qa = qFromRows(a);
            if (qa > best_q)
                best_q = qa;
        }
        return best_q;
    }

    void update(const std::vector<std::uint64_t>& s1, std::uint32_t a1,
                double reward, const std::vector<std::uint64_t>& s2,
                std::uint32_t a2)
    {
        assert(a1 < cfg_.num_actions && a2 < cfg_.num_actions);
        const double q_s2a2 = q(s2, a2);
        const double q_sa = q(s1, a1);
        const double target = reward + cfg_.gamma * q_s2a2;
        const double err = target - q_sa;
        const float step =
            static_cast<float>(cfg_.alpha * err / cfg_.num_planes);
        const std::uint32_t* r = rows_.data();
        for (std::uint32_t v = 0; v < cfg_.num_features; ++v) {
            for (std::uint32_t p = 0; p < cfg_.num_planes; ++p)
                cell(v, p, r[p], a1) += step;
            r += cfg_.num_planes;
        }
        ++updates_;
    }

    std::uint64_t updates() const { return updates_; }
    const QVStoreConfig& config() const { return cfg_; }
    const std::vector<float>& table() const { return table_; }
    /** Writable cells, so tests can seed adversarial tables. */
    std::vector<float>& table() { return table_; }

  private:
    // Same constants as qvstore.cpp — the reference must hash
    // identically or the comparison is meaningless.
    static constexpr unsigned kShift[] = {3, 11, 19, 27, 5, 13, 21, 29};

    std::uint32_t planeRow(std::uint32_t plane,
                           std::uint64_t feature_value) const
    {
        return planeIndex(feature_value, kShift[plane],
                          cfg_.plane_index_bits);
    }

    float& cell(std::uint32_t vault, std::uint32_t plane,
                std::uint32_t row, std::uint32_t action)
    {
        const std::size_t idx =
            ((static_cast<std::size_t>(vault) * cfg_.num_planes + plane) *
                 rows_per_plane_ + row) * cfg_.num_actions + action;
        return table_[idx];
    }

    float cellValue(std::uint32_t vault, std::uint32_t plane,
                    std::uint32_t row, std::uint32_t action) const
    {
        return const_cast<ScalarQVStore*>(this)->cell(vault, plane, row,
                                                      action);
    }

    void computeRows(const std::vector<std::uint64_t>& state) const
    {
        assert(state.size() == cfg_.num_features);
        std::uint32_t* r = rows_.data();
        for (std::uint32_t v = 0; v < cfg_.num_features; ++v) {
            const std::uint64_t fv = state[v];
            for (std::uint32_t p = 0; p < cfg_.num_planes; ++p)
                *r++ = planeRow(p, fv);
        }
    }

    double qFromRows(std::uint32_t action) const
    {
        const std::uint32_t* r = rows_.data();
        double best = -1e300;
        for (std::uint32_t v = 0; v < cfg_.num_features; ++v) {
            double sum = 0.0;
            for (std::uint32_t p = 0; p < cfg_.num_planes; ++p)
                sum += cellValue(v, p, r[p], action);
            r += cfg_.num_planes;
            if (sum > best)
                best = sum;
        }
        return best;
    }

    QVStoreConfig cfg_;
    std::uint32_t rows_per_plane_;
    std::vector<float> table_;
    std::uint64_t updates_ = 0;
    mutable std::vector<std::uint32_t> rows_;
    mutable std::vector<std::pair<double, std::uint32_t>> scored_;
};

} // namespace pythia::rl
