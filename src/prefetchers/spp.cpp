#include "prefetchers/spp.hpp"

#include <algorithm>

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<SppPrefetcher>("spp", SppConfig{});

} // namespace

SppPrefetcher::SppPrefetcher(const SppConfig& cfg)
    : StatefulPrefetcher("spp", 6349 /* ~6.2KB, Table 7 */), cfg_(cfg)
{
    checkKnobs(name(), cfg);
    st_.resize(cfg.st_entries);
    pt_.resize(static_cast<std::size_t>(cfg.pt_sets) * cfg.pt_ways);
}

std::uint32_t
SppPrefetcher::advanceSignature(std::uint32_t sig, std::int32_t delta)
{
    // Deltas are sign-magnitude-packed into 7 bits before mixing, as in
    // the original design (6-bit magnitude + sign).
    const std::uint32_t mag =
        static_cast<std::uint32_t>(delta < 0 ? -delta : delta) & 0x3F;
    const std::uint32_t packed = (delta < 0 ? 0x40u : 0u) | mag;
    return ((sig << 3) ^ packed) & kSigMask;
}

SppPrefetcher::StEntry&
SppPrefetcher::stEntry(Addr page)
{
    return st_[static_cast<std::size_t>(mix64(page)) % st_.size()];
}

SppPrefetcher::PtEntry*
SppPrefetcher::findPt(std::uint32_t signature)
{
    const std::size_t set =
        static_cast<std::size_t>(signature) % cfg_.pt_sets;
    PtEntry* base = &pt_[set * cfg_.pt_ways];
    for (std::uint32_t w = 0; w < cfg_.pt_ways; ++w)
        if (base[w].valid && base[w].signature == signature)
            return &base[w];
    return nullptr;
}

const SppPrefetcher::PtEntry*
SppPrefetcher::findPt(std::uint32_t signature) const
{
    return const_cast<SppPrefetcher*>(this)->findPt(signature);
}

void
SppPrefetcher::updatePattern(std::uint32_t signature, std::int32_t delta)
{
    PtEntry* e = findPt(signature);
    if (e == nullptr) {
        // Allocate: pick the way with the weakest c_sig in the set.
        const std::size_t set =
            static_cast<std::size_t>(signature) % cfg_.pt_sets;
        PtEntry* base = &pt_[set * cfg_.pt_ways];
        e = &base[0];
        for (std::uint32_t w = 1; w < cfg_.pt_ways; ++w)
            if (!base[w].valid || base[w].c_sig < e->c_sig)
                e = &base[w];
        *e = PtEntry{};
        e->valid = true;
        e->signature = signature;
    }

    // Find or replace the delta slot.
    int slot = -1;
    int weakest = 0;
    for (int i = 0; i < 4; ++i) {
        if (e->c_delta[i] > 0 && e->delta[i] == delta) {
            slot = i;
            break;
        }
        if (e->c_delta[i] < e->c_delta[weakest])
            weakest = i;
    }
    if (slot < 0) {
        slot = weakest;
        e->delta[slot] = delta;
        e->c_delta[slot] = 0;
    }
    if (e->c_delta[slot] < 0xFFF0)
        ++e->c_delta[slot];
    if (e->c_sig < 0xFFF0)
        ++e->c_sig;

    // Periodic halving keeps counters adaptive to phase changes.
    if (e->c_sig >= 4096) {
        e->c_sig /= 2;
        for (auto& c : e->c_delta)
            c /= 2;
    }
}

SppPrefetcher::Prediction
SppPrefetcher::predictBest(std::uint32_t signature) const
{
    const PtEntry* e = findPt(signature);
    Prediction p;
    // Require a minimum amount of evidence before trusting a signature;
    // a freshly-allocated entry (1/1) must not read as full confidence.
    constexpr std::uint16_t kMinEvidence = 4;
    if (e == nullptr || e->c_sig < kMinEvidence)
        return p;
    std::uint16_t best = 0;
    for (int i = 0; i < 4; ++i) {
        if (e->c_delta[i] > best) {
            best = e->c_delta[i];
            p.delta = e->delta[i];
        }
    }
    p.confidence = static_cast<double>(best) / e->c_sig;
    return p;
}

std::uint32_t
SppPrefetcher::pageSignature(Addr block) const
{
    const Addr page = pageIdOfBlock(block);
    const StEntry& e =
        const_cast<SppPrefetcher*>(this)->stEntry(page);
    return e.page == page ? e.signature : 0;
}

void
SppPrefetcher::train(const PrefetchAccess& access,
                     std::vector<PrefetchRequest>& out)
{
    const Addr page = pageIdOfBlock(access.block);
    const auto offset =
        static_cast<std::int32_t>(access.block & (kBlocksPerPage - 1));

    StEntry& st = stEntry(page);
    std::uint32_t signature = 0;
    bool has_history = false;
    if (st.page == page && st.last_offset >= 0) {
        const std::int32_t delta = offset - st.last_offset;
        if (delta != 0) {
            updatePattern(st.signature, delta);
            signature = advanceSignature(st.signature, delta);
        } else {
            signature = st.signature;
        }
        has_history = true;
    }
    st.page = page;
    st.last_offset = offset;
    st.signature = signature;

    // No lookahead without in-page delta history: signature 0 would alias
    // every page-first access onto one hot pattern-table row.
    if (!has_history)
        return;

    // Lookahead walk: follow the highest-confidence delta chain while the
    // multiplicative path confidence stays above the LLC threshold.
    double path_conf = 1.0;
    std::uint32_t sig = signature;
    std::int64_t line =
        static_cast<std::int64_t>(access.block);
    for (std::uint32_t depth = 0; depth < cfg_.max_lookahead; ++depth) {
        const Prediction p = predictBest(sig);
        if (p.confidence <= 0.0 || p.delta == 0)
            break;
        path_conf *= p.confidence;
        if (path_conf < cfg_.pf_threshold)
            break;
        line += p.delta;
        const std::int64_t base =
            static_cast<std::int64_t>(access.block);
        const auto total_off = static_cast<std::int32_t>(line - base);
        const int fill = path_conf >= cfg_.fill_threshold ? 2 : 3;
        if (!emitWithinPage(access.block, total_off, out, fill))
            break; // SPP never crosses the page in this model
        sig = advanceSignature(sig, p.delta);
    }
}

} // namespace pythia::pf
