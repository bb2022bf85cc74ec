// Deterministic pseudo-random number generation for reproducible experiments.
//
// xoshiro256** by Blackman & Vigna (public domain reference implementation,
// re-expressed here): fast, high-quality, and -- unlike std::mt19937 --
// guaranteed to produce identical streams on every platform, which keeps
// experiment trials reproducible across machines.
#pragma once

#include <array>
#include <cstdint>

namespace bluescale {

class rng {
public:
    using result_type = std::uint64_t;

    explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /// Re-initializes the state from a single seed via splitmix64, so that
    /// any seed (including 0) yields a well-mixed state.
    void reseed(std::uint64_t seed) {
        for (auto& word : state_) {
            seed += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t next() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    // UniformRandomBitGenerator interface, so <random> distributions work too.
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~std::uint64_t{0}; }
    result_type operator()() { return next(); }

    /// Uniform integer in [lo, hi], inclusive. Requires lo <= hi.
    std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
        const std::uint64_t span = hi - lo + 1;
        if (span == 0) return next(); // full 64-bit range
        // Unbiased rejection sampling (Lemire-style threshold).
        const std::uint64_t threshold = (0 - span) % span;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold) return lo + r % span;
        }
    }

    /// Uniform double in [0, 1).
    double uniform_unit() {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform_real(double lo, double hi) {
        return lo + (hi - lo) * uniform_unit();
    }

    /// Picks an index in [0, n) (n > 0).
    std::size_t pick(std::size_t n) {
        return static_cast<std::size_t>(uniform_u64(0, n - 1));
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

/// Counter-based stream derivation: a well-mixed seed for stream `index`
/// anchored at `base`, via the splitmix64 finalizer. Nearby (base, index)
/// pairs yield statistically independent generator states, so per-trial
/// and per-client rngs can be seeded purely from their indices -- no
/// generator state is shared or consumed across streams, which is what
/// lets a trial sweep execute trials in any order (or in parallel) and
/// still reproduce the serial results bit-for-bit.
[[nodiscard]] constexpr std::uint64_t substream(std::uint64_t base,
                                                std::uint64_t index) {
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace bluescale
