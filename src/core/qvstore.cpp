#include "core/qvstore.hpp"

#include <algorithm>
#include <cassert>

#include "common/hashing.hpp"

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
    top_q_.assign(cfg_.num_actions, 0.0);
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

namespace {

/** Q(S, A) from @p rows, the flat row offsets of S: the plane partials
 *  of each vault summed into a double in plane order, then the max over
 *  vaults — the evaluation order of summing vaultQ per vault. @p Row is
 *  the offset type (the store's own size_t rows, or the u32 rows an EQ
 *  entry caches). */
template <class Row>
double
qOfRows(const float* table, const Row* rows, std::uint32_t vaults,
        std::uint32_t planes, std::uint32_t action)
{
    double best = -1e300;
    for (std::uint32_t v = 0; v < vaults; ++v) {
        double sum = 0.0;
        for (std::uint32_t p = 0; p < planes; ++p)
            sum += table[static_cast<std::size_t>(rows[p]) + action];
        rows += planes;
        if (sum > best)
            best = sum;
    }
    return best;
}

} // namespace

double
QVStore::qFromRows(std::uint32_t action) const
{
    return qOfRows(table_.data(), row_bases_.data(), cfg_.num_features,
                   cfg_.num_planes, action);
}

void
QVStore::scanActions() const
{
    const std::uint32_t A = cfg_.num_actions;
    const std::uint32_t P = cfg_.num_planes;
    const std::size_t n_rows = row_bases_.size();
    const float* table = table_.data();
    const std::size_t* rows = row_bases_.data();
    double* qa = qa_.data();
    // Blocks of four actions, their sums and maxima in registers: each
    // action still adds its plane partials into a double in plane order
    // and keeps a vault's sum only when it compares greater, exactly as
    // qFromRows does, so every score is bit-identical to it. The select
    // is the strict > update written as one expression (a maxsd); a NaN
    // sum never compares greater, so no score is ever NaN.
    std::uint32_t a = 0;
    for (; a + 4 <= A; a += 4) {
        double m0 = -1e300, m1 = -1e300, m2 = -1e300, m3 = -1e300;
        for (std::size_t v = 0; v < n_rows; v += P) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (std::size_t p = v; p < v + P; ++p) {
                const float* row = table + rows[p] + a;
                s0 += static_cast<double>(row[0]);
                s1 += static_cast<double>(row[1]);
                s2 += static_cast<double>(row[2]);
                s3 += static_cast<double>(row[3]);
            }
            m0 = s0 > m0 ? s0 : m0;
            m1 = s1 > m1 ? s1 : m1;
            m2 = s2 > m2 ? s2 : m2;
            m3 = s3 > m3 ? s3 : m3;
        }
        qa[a] = m0;
        qa[a + 1] = m1;
        qa[a + 2] = m2;
        qa[a + 3] = m3;
    }
    for (; a < A; ++a)
        qa[a] = qFromRows(a);
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
    // One pass keeping the best `take` actions sorted by (Q desc, index
    // asc): the order a full sort of every (Q, action) pair gives. An
    // action enters only when its Q is strictly greater than the current
    // last place and moves up only past strictly smaller Qs, so among
    // equal Qs the lower index (seen first) stays ahead. Scores are never
    // NaN (scanActions), so the comparisons form a total preorder.
    const std::uint32_t A = cfg_.num_actions;
    const double* qa = qa_.data();
    const std::uint32_t take = k < A ? k : A;
    out.resize(take);
    std::uint32_t* top = out.data();
    double* top_q = top_q_.data();
    std::uint32_t filled = 0;
    for (std::uint32_t a = 0; a < A; ++a) {
        const double q = qa[a];
        std::uint32_t pos;
        if (filled < take)
            pos = filled++;
        else if (q > top_q[take - 1])
            pos = take - 1;
        else
            continue;
        for (; pos > 0 && q > top_q[pos - 1]; --pos) {
            top_q[pos] = top_q[pos - 1];
            top[pos] = top[pos - 1];
        }
        top_q[pos] = q;
        top[pos] = a;
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
QVStore::updateCached(const std::uint64_t* s1, std::size_t n1,
                      const std::uint32_t* rows1, std::uint32_t a1,
                      double reward, const std::uint64_t* s2,
                      std::size_t n2, const std::uint32_t* rows2,
                      std::uint32_t a2)
{
    assert(a1 < cfg_.num_actions && a2 < cfg_.num_actions);
    const std::uint32_t V = cfg_.num_features;
    const std::uint32_t P = cfg_.num_planes;
    float* table = table_.data();
    // Q(s2, a2) before Q(s1, a1), hashing a state only when its rows are
    // not given, so a hashed s1 is what row_bases_ holds for the writes.
    double q_s2a2;
    if (rows2) {
        q_s2a2 = qOfRows(table, rows2, V, P, a2);
    } else {
        computeRows(s2, n2);
        q_s2a2 = qFromRows(a2);
    }
    double q_sa;
    if (rows1) {
        q_sa = qOfRows(table, rows1, V, P, a1);
    } else {
        computeRows(s1, n1);
        q_sa = qFromRows(a1);
    }
    const double target = reward + cfg_.gamma * q_s2a2;
    const double err = target - q_sa;
    const float step = static_cast<float>(
        cfg_.alpha * err / cfg_.num_planes);
    const std::size_t n_rows = static_cast<std::size_t>(V) * P;
    if (rows1) {
        for (std::size_t i = 0; i < n_rows; ++i)
            table[static_cast<std::size_t>(rows1[i]) + a1] += step;
    } else {
        const std::size_t* b = row_bases_.data();
        for (std::size_t i = 0; i < n_rows; ++i)
            table[b[i] + a1] += step;
    }
    scan_valid_ = false;
    ++updates_;
}

} // namespace pythia::rl
