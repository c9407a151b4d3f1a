#include "core/qvstore.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/hashing.hpp"
#include "snapshot/codec.hpp"

namespace pythia::rl {

namespace {

/// Per-plane shift constants "randomly selected at design time" (§4.2.1).
constexpr unsigned kPlaneShift[] = {3, 11, 19, 27, 5, 13, 21, 29};
static_assert(std::size(kPlaneShift) == kMaxPlanes);

} // namespace

QVStore::QVStore(const QVStoreConfig& cfg) : cfg_(cfg)
{
    rows_per_plane_ = 1u << cfg_.plane_index_bits;
    table_.assign(static_cast<std::size_t>(cfg_.num_features) *
                      cfg_.num_planes * rows_per_plane_ * cfg_.num_actions,
                  0.0f);
    row_bases_.assign(static_cast<std::size_t>(cfg_.num_features) *
                          cfg_.num_planes,
                      0);
    qa_.assign(cfg_.num_actions, 0.0);
    vault_acc_.assign(cfg_.num_actions, 0.0);
    taken_.assign(cfg_.num_actions, 0);
    resetToOptimistic();
}

void
QVStore::resetToOptimistic()
{
    // Q(S,A) is the sum of num_planes partial values; split the optimistic
    // initial value evenly so the summed Q matches.
    const float init = static_cast<float>(cfg_.q_init / cfg_.num_planes);
    for (auto& v : table_)
        v = init;
    updates_ = 0;
    scan_valid_ = false;
}

std::uint32_t
QVStore::planeRow(std::uint32_t plane, std::uint64_t feature_value) const
{
    return planeIndex(feature_value, kPlaneShift[plane],
                      cfg_.plane_index_bits);
}

float&
QVStore::cell(std::uint32_t vault, std::uint32_t plane, std::uint32_t row,
              std::uint32_t action)
{
    const std::size_t idx =
        ((static_cast<std::size_t>(vault) * cfg_.num_planes + plane) *
             rows_per_plane_ + row) * cfg_.num_actions + action;
    return table_[idx];
}

float
QVStore::cellValue(std::uint32_t vault, std::uint32_t plane,
                   std::uint32_t row, std::uint32_t action) const
{
    return const_cast<QVStore*>(this)->cell(vault, plane, row, action);
}

double
QVStore::vaultQ(std::uint32_t vault, std::uint64_t feature_value,
                std::uint32_t action) const
{
    double sum = 0.0;
    for (std::uint32_t p = 0; p < cfg_.num_planes; ++p)
        sum += cellValue(vault, p, planeRow(p, feature_value), action);
    return sum;
}

void
QVStore::computeRows(const std::uint64_t* state, std::size_t n) const
{
    assert(n == cfg_.num_features);
    (void)n;
    const std::size_t plane_stride =
        static_cast<std::size_t>(rows_per_plane_) * cfg_.num_actions;
    std::size_t* b = row_bases_.data();
    std::size_t vault_base = 0;
    for (std::uint32_t v = 0; v < cfg_.num_features; ++v) {
        const std::uint64_t fv = state[v];
        std::size_t base = vault_base;
        for (std::uint32_t p = 0; p < cfg_.num_planes; ++p) {
            *b++ = base + static_cast<std::size_t>(planeRow(p, fv)) *
                              cfg_.num_actions;
            base += plane_stride;
        }
        vault_base += static_cast<std::size_t>(cfg_.num_planes) *
                      plane_stride;
    }
    scan_valid_ = false;
}

double
QVStore::qFromRows(std::uint32_t action) const
{
    // Same evaluation order as summing vaultQ per vault: plane partials
    // accumulate into a double per vault, max over vaults.
    const std::size_t* b = row_bases_.data();
    const float* table = table_.data();
    double best = -1e300;
    for (std::uint32_t v = 0; v < cfg_.num_features; ++v) {
        double sum = 0.0;
        for (std::uint32_t p = 0; p < cfg_.num_planes; ++p)
            sum += table[b[p] + action];
        b += cfg_.num_planes;
        if (sum > best)
            best = sum;
    }
    return best;
}

void
QVStore::scanActions() const
{
    const std::uint32_t A = cfg_.num_actions;
    const float* table = table_.data();
    const std::size_t* b = row_bases_.data();
    double* acc = vault_acc_.data();
    double* qa = qa_.data();
    for (std::uint32_t a = 0; a < A; ++a)
        qa[a] = -1e300;
    for (std::uint32_t v = 0; v < cfg_.num_features; ++v) {
        for (std::uint32_t a = 0; a < A; ++a)
            acc[a] = 0.0;
        // Each plane row is one contiguous A-float run; accumulating it
        // element-wise keeps one independent addition chain per action
        // (the same order qFromRows uses), so this loop vectorizes
        // across actions without any floating-point reassociation.
        for (std::uint32_t p = 0; p < cfg_.num_planes; ++p) {
            const float* row = table + b[p];
            for (std::uint32_t a = 0; a < A; ++a)
                acc[a] += static_cast<double>(row[a]);
        }
        b += cfg_.num_planes;
        for (std::uint32_t a = 0; a < A; ++a) {
            if (acc[a] > qa[a])
                qa[a] = acc[a];
        }
    }
    scan_valid_ = true;
}

double
QVStore::q(const std::uint64_t* state, std::size_t n,
           std::uint32_t action) const
{
    computeRows(state, n);
    return qFromRows(action);
}

std::uint32_t
QVStore::maxAction(const std::uint64_t* state, std::size_t n) const
{
    computeRows(state, n);
    scanActions();
    const double* qa = qa_.data();
    std::uint32_t best = 0;
    double best_q = qa[0];
    for (std::uint32_t a = 1; a < cfg_.num_actions; ++a) {
        if (qa[a] > best_q) {
            best_q = qa[a];
            best = a;
        }
    }
    return best;
}

std::vector<std::uint32_t>
QVStore::topActions(const std::vector<std::uint64_t>& state,
                    std::uint32_t k) const
{
    std::vector<std::uint32_t> out;
    topActionsInto(state, k, out);
    return out;
}

void
QVStore::topActionsInto(const std::uint64_t* state, std::size_t n,
                        std::uint32_t k,
                        std::vector<std::uint32_t>& out) const
{
    computeRows(state, n);
    scanActions();
    // Repeated strict-> argmax over the scanned scores with a taken mask:
    // identical selection (and order) to sorting all (q, action) pairs by
    // (q desc, action asc) and keeping the first k — lower index wins
    // every tie — without the sort or the pair buffer.
    const std::uint32_t A = cfg_.num_actions;
    const double* qa = qa_.data();
    std::uint8_t* taken = taken_.data();
    std::fill_n(taken, A, std::uint8_t{0});
    out.clear();
    const std::uint32_t take = k < A ? k : A;
    for (std::uint32_t i = 0; i < take; ++i) {
        std::uint32_t best = A;
        double best_q = 0.0;
        for (std::uint32_t a = 0; a < A; ++a) {
            if (taken[a])
                continue;
            if (best == A || qa[a] > best_q) {
                best_q = qa[a];
                best = a;
            }
        }
        taken[best] = 1;
        out.push_back(best);
    }
}

double
QVStore::maxQ(const std::uint64_t* state, std::size_t n) const
{
    // Same argmax scan as maxAction (lowest index wins ties), returning
    // the winning Q directly instead of re-deriving it.
    computeRows(state, n);
    scanActions();
    const double* qa = qa_.data();
    double best_q = qa[0];
    for (std::uint32_t a = 1; a < cfg_.num_actions; ++a) {
        if (qa[a] > best_q)
            best_q = qa[a];
    }
    return best_q;
}

void
QVStore::update(const std::uint64_t* s1, std::size_t n1, std::uint32_t a1,
                double reward, const std::uint64_t* s2, std::size_t n2,
                std::uint32_t a2)
{
    assert(a1 < cfg_.num_actions && a2 < cfg_.num_actions);
    // q(s2, a2) first so row_bases_ holds s1's rows for the write loop.
    const double q_s2a2 = q(s2, n2, a2);
    const double q_sa = q(s1, n1, a1);
    const double target = reward + cfg_.gamma * q_s2a2;
    const double err = target - q_sa;
    const float step = static_cast<float>(
        cfg_.alpha * err / cfg_.num_planes);
    float* table = table_.data();
    const std::size_t* b = row_bases_.data();
    const std::size_t n_rows =
        static_cast<std::size_t>(cfg_.num_features) * cfg_.num_planes;
    for (std::size_t i = 0; i < n_rows; ++i)
        table[b[i] + a1] += step;
    scan_valid_ = false;
    ++updates_;
}

void
QVStore::updateCached(const std::uint64_t* s1, std::size_t n1,
                      const std::uint32_t* rows1, std::uint32_t a1,
                      double reward, const std::uint64_t* s2,
                      std::size_t n2, const std::uint32_t* rows2,
                      std::uint32_t a2)
{
    assert(a1 < cfg_.num_actions && a2 < cfg_.num_actions);
    const std::size_t n_rows = row_bases_.size();
    // s2 first, s1 second, exactly like update(): row_bases_ must hold
    // s1's rows when the write loop runs.
    if (rows2) {
        for (std::size_t i = 0; i < n_rows; ++i)
            row_bases_[i] = rows2[i];
        scan_valid_ = false;
    } else {
        computeRows(s2, n2);
    }
    const double q_s2a2 = qFromRows(a2);
    if (rows1) {
        for (std::size_t i = 0; i < n_rows; ++i)
            row_bases_[i] = rows1[i];
    } else {
        computeRows(s1, n1);
    }
    const double q_sa = qFromRows(a1);
    const double target = reward + cfg_.gamma * q_s2a2;
    const double err = target - q_sa;
    const float step = static_cast<float>(
        cfg_.alpha * err / cfg_.num_planes);
    float* table = table_.data();
    const std::size_t* b = row_bases_.data();
    for (std::size_t i = 0; i < n_rows; ++i)
        table[b[i] + a1] += step;
    scan_valid_ = false;
    ++updates_;
}

void
QVStore::saveState(snap::Writer& w) const
{
    w.vecF32(table_);
    w.u64(updates_);
}

void
QVStore::loadState(snap::Reader& r)
{
    std::vector<float> table = r.vecF32();
    if (table.size() != table_.size())
        throw snap::CorruptError(
            "snapshot corrupt: qvstore table has " +
            std::to_string(table.size()) +
            " cells but this configuration has " +
            std::to_string(table_.size()));
    table_ = std::move(table);
    updates_ = r.u64();
    scan_valid_ = false;
}

} // namespace pythia::rl
