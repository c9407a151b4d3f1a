#include "common/rng.hpp"

#include "snapshot/codec.hpp"

namespace pythia {

namespace {

/** splitmix64 step, used only to expand the user seed into PRNG state. */
std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    s0_ = splitmix64(x);
    s1_ = splitmix64(x);
    if (s0_ == 0 && s1_ == 0)
        s1_ = 1; // xorshift state must not be all-zero
}

void
Rng::afterRestore() const
{
    if (s0_ == 0 && s1_ == 0)
        throw snap::CorruptError("snapshot corrupt: all-zero RNG state");
}

std::uint64_t
Rng::nextHeavyTail(std::uint64_t max_v)
{
    // Repeated halving: P(v >= 2^k) ~ 2^-k, clamped to [1, max_v].
    std::uint64_t v = 1;
    while (v < max_v && nextBool(0.5))
        v *= 2;
    return v > max_v ? max_v : v;
}

} // namespace pythia
