/**
 * @file
 * Property tests for the data-oriented hot-path layouts (DESIGN.md
 * §10): the structure-of-arrays QVStore must be bit-exact against the
 * retained scalar reference across randomized configurations, adversarial
 * tables and traffic, and the flat-ring EvaluationQueue must preserve the
 * deque-era FIFO semantics (insert/evict/match/reward order) under
 * randomized traffic, including its serialized byte stream.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/eq.hpp"
#include "core/qvstore.hpp"
#include "core/qvstore_ref.hpp"
#include "snapshot/archive.hpp"

namespace {

using namespace pythia;

// ---------------------------------------------------------------------------
// QVStore (SoA) vs ScalarQVStore (PR 3 row-cached reference)

rl::QVStoreConfig
randomConfig(Rng& rng)
{
    rl::QVStoreConfig cfg;
    cfg.num_features = static_cast<std::uint32_t>(rng.nextRange(1, 4));
    cfg.num_planes = static_cast<std::uint32_t>(rng.nextRange(1, 4));
    cfg.plane_index_bits =
        static_cast<std::uint32_t>(rng.nextRange(4, 8));
    const std::uint32_t action_choices[] = {3, 8, 16, 33};
    cfg.num_actions = action_choices[rng.nextBounded(4)];
    return cfg;
}

std::vector<std::uint64_t>
randomState(Rng& rng, std::uint32_t features)
{
    std::vector<std::uint64_t> s(features);
    for (auto& v : s)
        v = rng.next64();
    return s;
}

/** Bytes snap::save() writes for a QVStore holding @p ref's table. */
std::vector<std::uint8_t>
qvBytesOf(const rl::ScalarQVStore& ref)
{
    snap::Writer w;
    w.u64(ref.table().size());
    for (const float q : ref.table())
        w.f32(q);
    w.u64(ref.updates());
    return w.buffer();
}

/**
 * Drive the SoA store and the scalar reference with identical random
 * traffic — q, maxAction, topActions at @p ks (plus random k), maxQ and
 * updates — and require bit-identical answers and, at the end, a
 * byte-identical table. Both start from @p ref's table.
 */
void
runQvTrial(rl::ScalarQVStore& ref, Rng& rng, int ops,
           const std::vector<std::uint32_t>& ks)
{
    const rl::QVStoreConfig& cfg = ref.config();
    rl::QVStore soa(cfg);
    {
        const auto bytes = qvBytesOf(ref);
        snap::Reader r(bytes.data(), bytes.size());
        snap::load(soa, r);
    }
    std::vector<std::uint32_t> soa_top;
    for (int op = 0; op < ops; ++op) {
        const auto s1 = randomState(rng, cfg.num_features);
        const auto s2 = randomState(rng, cfg.num_features);
        switch (rng.nextBounded(5)) {
        case 0: {
            const auto a = static_cast<std::uint32_t>(
                rng.nextBounded(cfg.num_actions));
            const double qs = soa.q(s1, a);
            const double qr = ref.q(s1, a);
            ASSERT_EQ(0, std::memcmp(&qs, &qr, sizeof qs))
                << "q() diverged, op " << op;
            break;
        }
        case 1:
            ASSERT_EQ(ref.maxAction(s1), soa.maxAction(s1))
                << "maxAction diverged, op " << op;
            break;
        case 2: {
            const std::uint32_t k =
                rng.nextBool(0.5)
                    ? ks[rng.nextBounded(ks.size())]
                    : static_cast<std::uint32_t>(
                          rng.nextRange(1, cfg.num_actions));
            soa.topActionsInto(s1, k, soa_top);
            ASSERT_EQ(ref.topActions(s1, k), soa_top)
                << "topActions(k=" << k << ") diverged, op " << op;
            // The secondary-action probe reads the scan's scores.
            for (std::uint32_t a = 0; a < cfg.num_actions; ++a) {
                const double qs = soa.qAtLastState(a);
                const double qr = ref.q(s1, a);
                ASSERT_EQ(0, std::memcmp(&qs, &qr, sizeof qs))
                    << "qAtLastState diverged, op " << op;
            }
            break;
        }
        case 3: {
            const double ms = soa.maxQ(s1);
            const double mr = ref.maxQ(s1);
            ASSERT_EQ(0, std::memcmp(&ms, &mr, sizeof ms))
                << "maxQ diverged, op " << op;
            break;
        }
        default: {
            const auto a1 = static_cast<std::uint32_t>(
                rng.nextBounded(cfg.num_actions));
            const auto a2 = static_cast<std::uint32_t>(
                rng.nextBounded(cfg.num_actions));
            const double r = rng.nextDouble() * 28.0 - 14.0;
            soa.update(s1, a1, r, s2, a2);
            ref.update(s1, a1, r, s2, a2);
            break;
        }
        }
    }

    // The two tables share one flat layout; after identical traffic
    // the SoA serialization must be byte-identical to a manual write
    // of the reference table.
    snap::Writer got;
    snap::save(soa, got);
    ASSERT_EQ(qvBytesOf(ref), got.buffer()) << "table bytes diverged";
}

TEST(DataLayoutQVStore, MatchesScalarReferenceAcrossRandomConfigs)
{
    Rng rng(0xD417A1A707ull);
    for (int trial = 0; trial < 12; ++trial) {
        SCOPED_TRACE("random trial " + std::to_string(trial));
        rl::ScalarQVStore ref(randomConfig(rng));
        runQvTrial(ref, rng, 1500, {1});
    }

    // Adversarial tables: ties everywhere, signed zeros, infinities and
    // NaN cells (a NaN vault sum never wins the max over vaults), at
    // action counts around the scan's four-action blocks, with k at 1,
    // A-1, A and past A.
    const std::uint32_t action_counts[] = {1, 3, 5, 16, 17, 64};
    const float specials[] = {
        0.0f, -0.0f, 1.0f, -1.0f, 2.5f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN()};
    enum Fill { kAllEqual, kSignedZeros, kInfinities, kNaNs, kMixed };
    for (const std::uint32_t A : action_counts) {
        for (const Fill fill :
             {kAllEqual, kSignedZeros, kInfinities, kNaNs, kMixed}) {
            SCOPED_TRACE("actions=" + std::to_string(A) +
                         " fill=" + std::to_string(fill));
            rl::QVStoreConfig cfg;
            cfg.num_features = static_cast<std::uint32_t>(
                rng.nextRange(1, 3));
            cfg.num_planes = static_cast<std::uint32_t>(
                rng.nextRange(1, 3));
            cfg.plane_index_bits = 2; // 4 rows: states collide often
            cfg.num_actions = A;
            rl::ScalarQVStore ref(cfg);
            for (float& cell : ref.table()) {
                switch (fill) {
                case kAllEqual: cell = 1.0f; break;
                case kSignedZeros:
                    cell = rng.nextBool(0.5) ? 0.0f : -0.0f;
                    break;
                case kInfinities:
                    cell = specials[rng.nextRange(4, 6)];
                    break;
                case kNaNs:
                    cell = rng.nextBool(0.3) ? specials[7]
                                             : specials[2];
                    break;
                case kMixed:
                    cell = specials[rng.nextBounded(std::size(specials))];
                    break;
                }
            }
            runQvTrial(ref, rng, 400, {1, A > 1 ? A - 1 : 1, A, A + 1});
        }
    }
}

TEST(DataLayoutQVStore, UpdateCachedMatchesPlainUpdate)
{
    Rng rng(0xCACE11ull);
    const rl::QVStoreConfig cfg; // shipping basic config
    rl::QVStore plain(cfg);
    rl::QVStore cached(cfg);
    std::vector<std::uint32_t> top;
    std::uint32_t rows1[rl::kEqRowSlots], rows2[rl::kEqRowSlots];

    for (int op = 0; op < 3000; ++op) {
        const auto s1 = randomState(rng, cfg.num_features);
        const auto s2 = randomState(rng, cfg.num_features);
        const auto a1 = static_cast<std::uint32_t>(
            rng.nextBounded(cfg.num_actions));
        const auto a2 = static_cast<std::uint32_t>(
            rng.nextBounded(cfg.num_actions));
        const double r = rng.nextDouble() * 28.0 - 14.0;

        plain.update(s1, a1, r, s2, a2);

        // Capture each state's rows the way the agent does (after an
        // action-selection pass), then retire through the cached path.
        cached.topActionsInto(s1, 2, top);
        const std::uint32_t n1 =
            cached.lastRowsInto(rows1, rl::kEqRowSlots);
        cached.topActionsInto(s2, 2, top);
        const std::uint32_t n2 =
            cached.lastRowsInto(rows2, rl::kEqRowSlots);
        cached.updateCached(s1.data(), s1.size(), n1 ? rows1 : nullptr,
                            a1, r, s2.data(), s2.size(),
                            n2 ? rows2 : nullptr, a2);
    }

    snap::Writer a, b;
    snap::save(plain, a);
    snap::save(cached, b);
    EXPECT_EQ(a.buffer(), b.buffer());
}

// ---------------------------------------------------------------------------
// EvaluationQueue (flat ring + open-addressed index) vs deque reference

/** Straight-line reference model of the PR 6 deque-backed EQ,
 *  including the pending-count bookkeeping (same transition points, so
 *  the serialized pending table can be compared byte-for-byte). */
struct RefEq
{
    struct Counts
    {
        std::uint32_t unrewarded = 0;
        std::uint32_t fill_unknown = 0;
    };

    std::size_t capacity;
    std::deque<rl::EqEntry> q;
    std::map<Addr, Counts> pending;

    explicit RefEq(std::size_t cap) : capacity(cap) {}

    void eraseIfDone(std::map<Addr, Counts>::iterator it)
    {
        if (it != pending.end() && it->second.unrewarded == 0 &&
            it->second.fill_unknown == 0)
            pending.erase(it);
    }

    std::optional<rl::EqEntry> insert(rl::EqEntry e)
    {
        std::optional<rl::EqEntry> evicted;
        if (q.size() >= capacity) {
            evicted = q.front();
            q.pop_front();
            if (evicted->has_prefetch) {
                auto it = pending.find(evicted->prefetch_block);
                if (it != pending.end()) {
                    if (!evicted->has_reward &&
                        it->second.unrewarded > 0)
                        --it->second.unrewarded;
                    if (!evicted->fill_known &&
                        it->second.fill_unknown > 0)
                        --it->second.fill_unknown;
                    eraseIfDone(it);
                }
            }
        }
        if (e.has_prefetch) {
            Counts& c = pending[e.prefetch_block];
            if (!e.has_reward)
                ++c.unrewarded;
            if (!e.fill_known)
                ++c.fill_unknown;
        }
        q.push_back(std::move(e));
        return evicted;
    }

    std::vector<const rl::EqEntry*> searchAll(Addr block) const
    {
        std::vector<const rl::EqEntry*> out;
        for (const auto& e : q)
            if (e.has_prefetch && e.prefetch_block == block &&
                !e.has_reward)
                out.push_back(&e);
        return out;
    }

    bool markFill(Addr block, Cycle at)
    {
        for (auto it = q.rbegin(); it != q.rend(); ++it) {
            if (it->has_prefetch && it->prefetch_block == block &&
                !it->fill_known) {
                it->fill_time = at;
                it->fill_known = true;
                auto p = pending.find(block);
                if (p != pending.end()) {
                    if (p->second.fill_unknown > 0)
                        --p->second.fill_unknown;
                    eraseIfDone(p);
                }
                return true;
            }
        }
        return false;
    }

    std::size_t rewardAll(Addr block, double reward)
    {
        std::size_t n = 0;
        auto p = pending.find(block);
        for (auto& e : q) {
            if (e.has_prefetch && e.prefetch_block == block &&
                !e.has_reward) {
                e.reward = reward;
                e.has_reward = true;
                ++n;
                if (p != pending.end() && p->second.unrewarded > 0)
                    --p->second.unrewarded;
            }
        }
        if (n > 0)
            eraseIfDone(p);
        return n;
    }
};

void
expectEntryEq(const rl::EqEntry& want, const rl::EqEntry& got,
              const char* where)
{
    EXPECT_TRUE(want.state == got.state) << where;
    EXPECT_EQ(want.action, got.action) << where;
    EXPECT_EQ(want.prefetch_block, got.prefetch_block) << where;
    EXPECT_EQ(want.has_prefetch, got.has_prefetch) << where;
    EXPECT_EQ(want.fill_time, got.fill_time) << where;
    EXPECT_EQ(want.fill_known, got.fill_known) << where;
    EXPECT_EQ(want.has_reward, got.has_reward) << where;
    EXPECT_EQ(want.reward, got.reward) << where;
}

/** snap::save() bytes the reference model predicts. */
std::vector<std::uint8_t>
expectedEqBytes(const RefEq& ref)
{
    snap::Writer w;
    w.u64(ref.capacity);
    w.u64(ref.q.size());
    for (const rl::EqEntry& e : ref.q) {
        w.u64(e.state.size());
        for (const std::uint64_t fv : e.state)
            w.u64(fv);
        w.u32(e.action);
        w.u64(e.prefetch_block);
        w.boolean(e.has_prefetch);
        w.u64(e.fill_time);
        w.boolean(e.fill_known);
        w.boolean(e.has_reward);
        w.f64(e.reward);
    }
    // std::map iterates address-ascending — the same order snap::save
    // sorts its open-addressed table into.
    w.u64(ref.pending.size());
    for (const auto& [addr, pc] : ref.pending) {
        w.u64(addr);
        w.u32(pc.unrewarded);
        w.u32(pc.fill_unknown);
    }
    return w.buffer();
}

void
runEqTrafficTrial(std::size_t capacity, std::uint64_t seed)
{
    SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                 " seed=" + std::to_string(seed));
    Rng rng(seed);
    rl::EvaluationQueue eq(capacity);
    RefEq ref(capacity);

    // Block 0 is deliberately in the pool: it is a valid address and
    // the open-addressed index must not confuse it with an empty slot.
    auto randomBlock = [&] { return rng.nextBounded(48); };

    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 40) {
            rl::EqEntry e;
            e.state = {rng.nextBounded(256), rng.nextBounded(256)};
            e.action = static_cast<std::uint32_t>(rng.nextBounded(16));
            e.has_prefetch = rng.nextBool(0.8);
            e.prefetch_block = e.has_prefetch ? randomBlock() : 0;
            if (e.has_prefetch && rng.nextBool(0.2)) {
                e.has_reward = true; // rewarded at insertion (R_NP/R_CL)
                e.reward = rng.nextDouble() * 10.0 - 5.0;
            }
            auto want = ref.insert(e);
            ASSERT_EQ(want.has_value(), eq.full());
            if (rng.nextBool(0.5)) {
                // The agent's path: retire the oldest entry in place —
                // reward it after it left the index — then push.
                if (eq.full()) {
                    rl::EqEntry& evicted = eq.popFront();
                    expectEntryEq(*want, evicted, "evicted entry");
                    if (!evicted.has_reward) {
                        evicted.reward = -8.0;
                        evicted.has_reward = true;
                    }
                }
                eq.push(e);
            } else {
                auto got = eq.insert(e);
                ASSERT_EQ(want.has_value(), got.has_value());
                if (want)
                    expectEntryEq(*want, *got, "evicted entry");
            }
        } else if (kind < 65) {
            const Addr b = randomBlock();
            const double r = rng.nextDouble() * 24.0 - 12.0;
            const std::size_t got =
                eq.rewardAll(b, [r](rl::EqEntry& e) { e.reward = r; });
            ASSERT_EQ(ref.rewardAll(b, r), got);
        } else if (kind < 80) {
            const Addr b = randomBlock();
            const Cycle at = rng.nextBounded(1 << 20);
            ASSERT_EQ(ref.markFill(b, at), eq.markFill(b, at));
        } else {
            const Addr b = randomBlock();
            auto got = eq.searchAll(b);
            auto want = ref.searchAll(b);
            ASSERT_EQ(want.size(), got.size());
            for (std::size_t i = 0; i < want.size(); ++i)
                expectEntryEq(*want[i], *got[i], "searchAll result");
        }

        ASSERT_EQ(ref.q.size(), eq.size());
        ASSERT_EQ(ref.q.empty(), eq.empty());
        if (!ref.q.empty())
            expectEntryEq(ref.q.front(), eq.head(), "head entry");
    }

    // Full-state equivalence: the ring must serialize to exactly the
    // bytes the deque-era layout produced, pending index included.
    snap::Writer w;
    snap::save(eq, w);
    ASSERT_EQ(expectedEqBytes(ref), w.buffer());
}

TEST(DataLayoutEq, RingMatchesDequeSemanticsUnderRandomTraffic)
{
    // Non-power-of-two capacities exercise the logical-capacity /
    // backing-store split; 1 exercises the degenerate evict-on-every-
    // insert case.
    runEqTrafficTrial(1, 101);
    runEqTrafficTrial(3, 202);
    runEqTrafficTrial(8, 303);
    runEqTrafficTrial(21, 404);
    runEqTrafficTrial(256, 505);
}

TEST(DataLayoutEq, SaveStateRoundTripsThroughLoad)
{
    Rng rng(0x5A7E11ull);
    rl::EvaluationQueue eq(32);
    for (int i = 0; i < 200; ++i) {
        rl::EqEntry e;
        e.state = {rng.next64(), rng.next64(), rng.next64()};
        e.action = static_cast<std::uint32_t>(rng.nextBounded(16));
        e.has_prefetch = rng.nextBool(0.7);
        e.prefetch_block = e.has_prefetch ? rng.nextBounded(64) : 0;
        eq.insert(std::move(e));
        if (rng.nextBool(0.3))
            eq.markFill(rng.nextBounded(64), i);
        if (rng.nextBool(0.3))
            eq.rewardAll(rng.nextBounded(64),
                         [](rl::EqEntry& x) { x.reward = 2.0; });
    }

    snap::Writer w;
    snap::save(eq, w);
    snap::Reader r(w.buffer().data(), w.buffer().size());
    rl::EvaluationQueue restored(32);
    snap::load(restored, r);

    snap::Writer w2;
    snap::save(restored, w2);
    EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(DataLayoutEq, LoadRejectsPendingCountsThatDisagreeWithEntries)
{
    RefEq ref(8);
    rl::EqEntry e;
    e.state = {1, 2};
    e.action = 3;
    e.prefetch_block = 40;
    e.has_prefetch = true;
    ref.insert(e);
    ref.insert(e);
    auto loads = [](const std::vector<std::uint8_t>& bytes) {
        snap::Reader r(bytes.data(), bytes.size());
        rl::EvaluationQueue eq(8);
        snap::load(eq, r);
    };
    EXPECT_NO_THROW(loads(expectedEqBytes(ref)));

    // rewardAll stops once a block's count is used up, so a count
    // below (or above) the entries' open transitions is corrupt...
    ref.pending[40].unrewarded = 1;
    EXPECT_THROW(loads(expectedEqBytes(ref)), snap::CorruptError);
    ref.pending[40].unrewarded = 3;
    EXPECT_THROW(loads(expectedEqBytes(ref)), snap::CorruptError);
    // ...and so is an open entry the index does not list.
    ref.pending.erase(40);
    EXPECT_THROW(loads(expectedEqBytes(ref)), snap::CorruptError);
}

} // namespace
