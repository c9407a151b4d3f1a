/**
 * @file
 * Small, deterministic pseudo-random number generator.
 *
 * The simulator must be bit-reproducible given a seed (tests rely on it and
 * the paper's epsilon-greedy exploration needs a cheap uniform source), so
 * we use a self-contained xorshift128+ generator instead of std::mt19937 —
 * it is faster, trivially seedable, and its output is stable across
 * standard-library implementations.
 */
#pragma once

#include <cstdint>

namespace pythia {

/**
 * Deterministic xorshift128+ PRNG.
 *
 * Passes BigCrush except for the two lowest bits; we never expose those
 * alone. Not cryptographic — exactly what a microarchitecture simulator
 * needs and nothing more.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Snapshot state (snapshot/archive.hpp): both xorshift words, so a
     *  restore continues the stream exactly where it was. */
    template <class Self, class Ar>
    static void fields(Self& s, Ar& ar)
    {
        ar(s.s0_, s.s1_);
    }

    /** Restore hook: rejects the all-zero state (unreachable by any
     *  seed; xorshift would emit zeros forever) as snap::CorruptError. */
    void afterRestore() const;

    // The per-draw primitives are defined inline: the simulator draws
    // tens of millions of values per run (workload generators, the
    // epsilon-greedy policy), and a call per draw costs more than the
    // xorshift step itself in non-LTO builds.

    /** Next raw 64-bit value. */
    std::uint64_t next64()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound)
    {
        // Rejection-free multiply-shift; bias < 2^-64 * bound.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next64()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi)
    {
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(nextBounded(span));
    }

    /** Sample from a geometric-ish heavy-tail in [1, max_v]. */
    std::uint64_t nextHeavyTail(std::uint64_t max_v);

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
};

} // namespace pythia
