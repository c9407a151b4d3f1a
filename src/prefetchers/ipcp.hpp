/**
 * @file
 * IPCP-style multi-class instruction-pointer prefetcher [Pakalapati &
 * Panda, ISCA'20], the DPC3-winning multi-level baseline of §6.2.4.
 * Classifies every load IP as constant-stride (CS), streaming (S) or
 * complex delta-correlated (CPLX) and prefetches per class.
 */
#pragma once

#include "prefetchers/prefetcher.hpp"

namespace pythia::pf {

/** IPCP tuning knobs. */
struct IpcpConfig
{
    std::uint32_t ip_entries = 256;
    std::uint32_t cspt_entries = 1024; ///< complex-stride pattern table
    std::uint32_t cs_degree = 4;
    std::uint32_t stream_degree = 8;

    /** Spec keys (common/knobs.hpp). */
    template <class Self, class Ar>
    static void knobs(Self& c, Ar& ar)
    {
        ar("ip_entries", c.ip_entries, kTable);
        ar("cspt_entries", c.cspt_entries, kTable);
        ar("cs_degree", c.cs_degree, kDegree);
        ar("stream_degree", c.stream_degree, kDegree);
    }
};

/** Bouquet-of-IP-classes prefetcher. */
class IpcpPrefetcher : public StatefulPrefetcher<IpcpPrefetcher>
{
  public:
    explicit IpcpPrefetcher(const IpcpConfig& cfg = IpcpConfig{});

    void train(const PrefetchAccess& access,
               std::vector<PrefetchRequest>& out) override;

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("ipcp ip table", s.ip_);
        ar.table("ipcp pattern table", s.cspt_);
    }

  private:
    enum class IpClass : std::uint8_t { None, ConstStride, Stream, Cplx };

    struct IpEntry
    {
        Addr pc = 0;
        Addr last_block = 0;
        std::int32_t stride = 0;
        std::uint8_t stride_conf = 0;
        std::uint8_t stream_conf = 0;
        std::uint32_t signature = 0;
        IpClass cls = IpClass::None;
        bool valid = false;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.pc, e.last_block, e.stride, e.stride_conf, e.stream_conf,
               e.signature, e.cls, e.valid);
        }
    };

    struct CsptEntry
    {
        std::int32_t delta = 0;
        std::uint8_t conf = 0;

        template <class Self, class Ar>
        static void fields(Self& e, Ar& ar)
        {
            ar(e.delta, e.conf);
        }
    };

    IpcpConfig cfg_;
    std::vector<IpEntry> ip_;
    std::vector<CsptEntry> cspt_;
};

} // namespace pythia::pf
