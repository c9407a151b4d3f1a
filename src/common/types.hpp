/**
 * @file
 * Fundamental address/cycle types and address-arithmetic helpers shared by
 * every subsystem of the Pythia reproduction.
 *
 * The whole simulator works on byte addresses; helpers convert to cacheline
 * and page granularity assuming the paper's traditionally-sized 64B
 * cachelines and 4KB pages.
 */
#pragma once

#include <cstdint>
#include <cstddef>

namespace pythia {

/** A byte-granular physical address. */
using Addr = std::uint64_t;
/** A simulation time point, measured in core clock cycles. */
using Cycle = std::uint64_t;

/** Cacheline size in bytes (fixed at 64B as in the paper, §3.1). */
inline constexpr std::uint64_t kBlockSize = 64;
/** log2 of the cacheline size. */
inline constexpr std::uint64_t kBlockShift = 6;
/** Physical page size in bytes (fixed at 4KB as in the paper, §3.1). */
inline constexpr std::uint64_t kPageSize = 4096;
/** log2 of the page size. */
inline constexpr std::uint64_t kPageShift = 12;
/** Number of cachelines per page (64 for 4KB/64B). */
inline constexpr std::uint64_t kBlocksPerPage = kPageSize / kBlockSize;

/** Cacheline-granular address (byte address with block offset dropped). */
constexpr Addr
blockAddr(Addr byte_addr)
{
    return byte_addr >> kBlockShift;
}

/** Byte address of the first byte of the cacheline containing @p byte_addr. */
constexpr Addr
blockBase(Addr byte_addr)
{
    return byte_addr & ~(kBlockSize - 1);
}

/** Physical page number of a byte address. */
constexpr Addr
pageId(Addr byte_addr)
{
    return byte_addr >> kPageShift;
}

/** Physical page number of a cacheline-granular address. */
constexpr Addr
pageIdOfBlock(Addr block_addr)
{
    return block_addr >> (kPageShift - kBlockShift);
}

/** Cacheline index of a byte address within its page, in [0, 63]. */
constexpr std::uint32_t
pageOffset(Addr byte_addr)
{
    return static_cast<std::uint32_t>((byte_addr >> kBlockShift) &
                                      (kBlocksPerPage - 1));
}

/**
 * True when adding a (signed) cacheline offset to a cacheline address stays
 * inside the same physical page. Out-of-page actions receive the R_CL
 * reward in Pythia (paper §3.1).
 */
constexpr bool
samePageAfterOffset(Addr block_addr, std::int32_t line_offset)
{
    const std::int64_t target =
        static_cast<std::int64_t>(block_addr) + line_offset;
    if (target < 0)
        return false;
    return pageIdOfBlock(static_cast<Addr>(target)) ==
           pageIdOfBlock(block_addr);
}

/** Access type carried by a memory request. */
enum class AccessType : std::uint8_t {
    Load,       ///< demand load
    Store,      ///< demand store (write-allocate)
    Prefetch,   ///< prefetcher-issued request
    Writeback,  ///< dirty eviction travelling down the hierarchy
};

/** Human-readable name for an AccessType. */
constexpr const char*
accessTypeName(AccessType t)
{
    switch (t) {
      case AccessType::Load: return "load";
      case AccessType::Store: return "store";
      case AccessType::Prefetch: return "prefetch";
      case AccessType::Writeback: return "writeback";
    }
    return "?";
}

} // namespace pythia
