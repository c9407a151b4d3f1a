/**
 * @file
 * Hash primitives used to index tile-coded planes (Pythia QVStore),
 * signature tables (SPP) and pattern history tables (Bingo/DSPatch).
 *
 * All hashes here are cheap, deterministic and well-mixing; the QVStore
 * planes additionally apply a per-plane shift constant before hashing, as
 * described in §4.2.1 of the paper ("the given feature is first shifted by
 * a shifting constant ... followed by a hashing").
 */
#pragma once

#include <cstdint>

namespace pythia {

/** Knuth multiplicative hash of a 64-bit key. */
constexpr std::uint64_t
knuthHash(std::uint64_t x)
{
    return x * 0x9E3779B97F4A7C15ull;
}

/** Full-avalanche 64-bit mixer (murmur3 finalizer). */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

/**
 * Fold a 64-bit value down to @p bits (1 to 64) by XOR of its @p bits-wide
 * groups: the low @p bits of value ^ value >> bits ^ value >> 2*bits ^ ...
 *
 * The groups are summed by doubling — after the step at span s the low
 * bits hold the XOR of the first 2s/bits groups — so ceil(64/bits)
 * groups take ceil(log2(64/bits)) shift-XOR steps (4 at 7 bits, not
 * 10), and the mask is applied once at the end, since masking commutes
 * with XOR. Groups that start at or past bit 64 are zero, so covering
 * more of them than exist changes nothing; each shift stays below 64.
 */
constexpr std::uint32_t
foldedXor(std::uint64_t value, unsigned bits)
{
    const std::uint64_t mask = (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
    std::uint64_t folded = value;
    for (unsigned span = bits; span < 64; span *= 2)
        folded ^= folded >> span;
    return static_cast<std::uint32_t>(folded & mask);
}

/** Combine two hashes (boost::hash_combine recipe, 64-bit). */
constexpr std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t v)
{
    return seed ^ (mix64(v) + 0x9E3779B97F4A7C15ull + (seed << 12) +
                   (seed >> 4));
}

/**
 * Tile-coding plane index: shift the feature by a per-plane constant, mix,
 * and fold into @p index_bits bits. Distinct @p plane_shift values give the
 * overlapping quantizations that tile coding requires (paper Fig. 5(c)).
 */
constexpr std::uint32_t
planeIndex(std::uint64_t feature, unsigned plane_shift, unsigned index_bits)
{
    const std::uint64_t shifted = feature + (feature << plane_shift);
    return foldedXor(mix64(shifted), index_bits) &
           ((1u << index_bits) - 1);
}

} // namespace pythia
