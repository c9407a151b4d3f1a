#include "prefetchers/ipcp.hpp"

#include "common/hashing.hpp"
#include "sim/prefetcher_registry.hpp"

namespace pythia::pf {

namespace {

[[maybe_unused]] const auto registrar =
    sim::registerPrefetcher<IpcpPrefetcher>("ipcp", IpcpConfig{});

} // namespace

IpcpPrefetcher::IpcpPrefetcher(const IpcpConfig& cfg)
    : StatefulPrefetcher("ipcp",
                         cfg.ip_entries * 12 + cfg.cspt_entries * 2),
      cfg_(cfg)
{
    checkKnobs(name(), cfg);
    ip_.resize(cfg.ip_entries);
    cspt_.resize(cfg.cspt_entries);
}

void
IpcpPrefetcher::train(const PrefetchAccess& access,
                      std::vector<PrefetchRequest>& out)
{
    IpEntry& e = ip_[mix64(access.pc) % ip_.size()];
    if (!e.valid || e.pc != access.pc) {
        e = IpEntry{};
        e.pc = access.pc;
        e.last_block = access.block;
        e.valid = true;
        return;
    }

    const auto delta = static_cast<std::int32_t>(
        static_cast<std::int64_t>(access.block) -
        static_cast<std::int64_t>(e.last_block));
    if (delta == 0)
        return;

    // --- classification -----------------------------------------------
    if (delta == e.stride) {
        if (e.stride_conf < 3)
            ++e.stride_conf;
    } else {
        e.stride = delta;
        e.stride_conf = e.stride_conf > 0 ? e.stride_conf - 1 : 0;
    }
    if (delta == 1 || delta == -1) {
        if (e.stream_conf < 3)
            ++e.stream_conf;
    } else if (e.stream_conf > 0) {
        --e.stream_conf;
    }

    // Complex pattern table: signature of recent deltas -> next delta.
    CsptEntry& cs = cspt_[e.signature % cspt_.size()];
    if (cs.delta == delta) {
        if (cs.conf < 3)
            ++cs.conf;
    } else {
        if (cs.conf > 0)
            --cs.conf;
        else
            cs.delta = delta;
    }
    const std::uint32_t new_sig =
        ((e.signature << 3) ^ static_cast<std::uint32_t>(delta & 0x7F)) &
        0xFFF;

    if (e.stride_conf >= 2 && e.stride != 1 && e.stride != -1)
        e.cls = IpClass::ConstStride;
    else if (e.stream_conf >= 2)
        e.cls = IpClass::Stream;
    else if (cs.conf >= 2)
        e.cls = IpClass::Cplx;
    else
        e.cls = IpClass::None;

    // --- prediction -----------------------------------------------------
    switch (e.cls) {
      case IpClass::ConstStride:
        for (std::uint32_t d = 1; d <= cfg_.cs_degree; ++d)
            emitWithinPage(access.block,
                           e.stride * static_cast<std::int32_t>(d), out);
        break;
      case IpClass::Stream: {
        const std::int32_t dir = e.stream_conf > 0 && delta < 0 ? -1 : 1;
        for (std::uint32_t d = 1; d <= cfg_.stream_degree; ++d)
            emitWithinPage(access.block,
                           dir * static_cast<std::int32_t>(d), out);
        break;
      }
      case IpClass::Cplx: {
        // Walk the complex table a couple of steps.
        std::uint32_t sig = new_sig;
        std::int32_t acc = 0;
        for (int depth = 0; depth < 3; ++depth) {
            const CsptEntry& step = cspt_[sig % cspt_.size()];
            if (step.conf < 2 || step.delta == 0)
                break;
            acc += step.delta;
            emitWithinPage(access.block, acc, out);
            sig = ((sig << 3) ^
                   static_cast<std::uint32_t>(step.delta & 0x7F)) & 0xFFF;
        }
        break;
      }
      case IpClass::None:
        break;
    }

    e.signature = new_sig;
    e.last_block = access.block;
}

} // namespace pythia::pf
