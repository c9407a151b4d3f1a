/**
 * @file
 * Cache replacement policies: LRU for the private levels and SHiP
 * (Signature-based Hit Predictor, Wu+ MICRO'11) for the LLC, matching the
 * simulated system of the paper (Table 5).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pythia::sim {

/** Per-access context handed to the replacement policy. */
struct ReplAccess
{
    Addr pc = 0;         ///< requesting PC (SHiP signature source)
    bool is_prefetch = false; ///< insertion caused by a prefetch
};

/**
 * Replacement policy driving victim selection within one cache.
 *
 * The cache identifies lines by (set, way); the policy keeps whatever
 * per-line state it needs, sized at construction.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Select the victim way in @p set among @p ways ways. Invalid ways are
     *  chosen by the cache itself before the policy is consulted. */
    virtual std::uint32_t victim(std::uint32_t set) = 0;

    /** A line was inserted at (set, way). */
    virtual void onInsert(std::uint32_t set, std::uint32_t way,
                          const ReplAccess& ctx) = 0;

    /** A line at (set, way) was hit by a demand access. */
    virtual void onHit(std::uint32_t set, std::uint32_t way,
                       const ReplAccess& ctx) = 0;

    /** A line at (set, way) was evicted; @p was_reused tells whether any
     *  demand hit it during residency. */
    virtual void onEvict(std::uint32_t set, std::uint32_t way,
                         bool was_reused) = 0;

    /** Policy display name. */
    virtual const std::string& name() const = 0;
};

/** Classic least-recently-used stack implemented with a global timestamp.
 *  final: Cache dispatches to the concrete type through a downcast
 *  pointer, and finality is what lets those calls devirtualize. */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint32_t sets, std::uint32_t ways);

    std::uint32_t victim(std::uint32_t set) override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const ReplAccess& ctx) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const ReplAccess& ctx) override;
    void onEvict(std::uint32_t set, std::uint32_t way,
                 bool was_reused) override;
    const std::string& name() const override { return name_; }

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.tick_);
        ar.table("lru stamps", s.stamp_);
    }

  private:
    void touch(std::uint32_t set, std::uint32_t way);

    std::string name_ = "lru";
    std::uint32_t ways_;
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> stamp_; ///< sets*ways timestamps
};

/**
 * SHiP: RRIP-based replacement with a signature history counter table.
 *
 * Insertions predicted dead by their PC signature enter at distant RRPV;
 * reused signatures train toward near re-reference. Prefetch insertions
 * are inserted at distant RRPV (standard SHiP practice), which matters for
 * pollution behaviour under aggressive prefetchers.
 */
class ShipPolicy final : public ReplacementPolicy
{
  public:
    ShipPolicy(std::uint32_t sets, std::uint32_t ways,
               std::uint32_t shct_entries = 16384);

    std::uint32_t victim(std::uint32_t set) override;
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const ReplAccess& ctx) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const ReplAccess& ctx) override;
    void onEvict(std::uint32_t set, std::uint32_t way,
                 bool was_reused) override;
    const std::string& name() const override { return name_; }

    /** Snapshot state (snapshot/archive.hpp). */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar.table("ship rrpv", s.rrpv_);
        ar.table("ship signatures", s.line_sig_);
        ar.table("ship shct", s.shct_);
    }

  private:
    static constexpr std::uint8_t kMaxRrpv = 3;
    static constexpr std::uint8_t kShctMax = 7;

    std::uint32_t signatureOf(Addr pc) const;

    std::string name_ = "ship";
    std::uint32_t ways_;
    std::uint32_t shct_mask_;
    std::vector<std::uint8_t> rrpv_;      ///< sets*ways
    std::vector<std::uint32_t> line_sig_; ///< sets*ways signatures
    std::vector<std::uint8_t> shct_;      ///< signature hit counters
};

/** Factory: "lru" or "ship". @throws std::invalid_argument otherwise. */
std::unique_ptr<ReplacementPolicy>
makeReplacement(const std::string& kind, std::uint32_t sets,
                std::uint32_t ways);

} // namespace pythia::sim
