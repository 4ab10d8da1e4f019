// Deterministic random source used across the simulator.
#pragma once

#include <cstdint>
#include <random>

namespace gatekit {

/// Seeded pseudo-random generator. Every component that needs randomness
/// takes an Rng& so runs are reproducible from a single seed. Rng itself
/// is the UniformRandomBitGenerator handed to distributions.
class Rng {
public:
    using result_type = std::mt19937_64::result_type;

    explicit Rng(std::uint64_t seed = 0x67617465'6b697421ULL) : eng_(seed) {}

    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }

    /// One raw engine draw (UniformRandomBitGenerator requirement).
    result_type operator()() { return eng_(); }

    /// Uniform integer in [lo, hi] (inclusive).
    std::uint32_t uniform(std::uint32_t lo, std::uint32_t hi) {
        return std::uniform_int_distribution<std::uint32_t>(lo, hi)(*this);
    }

    /// Uniform double in [0, 1).
    double uniform01() {
        return std::uniform_real_distribution<double>(0.0, 1.0)(*this);
    }

    std::uint64_t next_u64() { return (*this)(); }

private:
    std::mt19937_64 eng_;
};

} // namespace gatekit
