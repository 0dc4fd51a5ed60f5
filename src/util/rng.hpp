// Deterministic pseudo-random number generation for the simulator.
//
// Everything in p2sim must be reproducible from a single master seed: the
// nine-month workload run, per-job perturbations, and microarchitectural
// jitter (e.g. the 36-54 cycle TLB refill window) all derive their streams
// from here.  We implement splitmix64 (for seeding / stream splitting) and
// xoshiro256** (the workhorse generator) rather than relying on the
// unspecified distributions of <random>, so results are bit-identical across
// standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

#include "src/check/annotate.hpp"

namespace p2sim::util {

// Parallel-region code draws from these generators (built by value in
// the drawing function, or a measurement task's own core); every function
// here is pure state-in/state-out on the generator object itself.
P2SIM_PAR_SAFE_FILE;

/// splitmix64: tiny generator used to expand a 64-bit seed into independent
/// substreams.  Passes BigCrush when used as specified by Vigna.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state via splitmix64, as recommended by the
  /// authors (avoids the all-zero state for every seed).
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9d2c5680u) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  n must be > 0.  Uses Lemire's method
  /// (multiply-shift with rejection) for unbiased bounded output.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Box-Muller (deterministic, stateless between calls
  /// except for the cached spare value).
  double normal() noexcept;

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Log-normal such that the *median* of the distribution is `median` and
  /// the underlying normal has standard deviation `sigma`.
  double lognormal_median(double median, double sigma) noexcept;

  /// Exponential with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Poisson-distributed count (Knuth's method; intended for small means
  /// such as per-interval arrival counts).
  std::uint64_t poisson(double mean) noexcept;

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Derive an independent child generator; used to give each job / node /
  /// kernel its own stream so that adding a consumer never perturbs others.
  Xoshiro256StarStar split(std::uint64_t tag) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// Samples an index from a discrete weight table (weights need not be
/// normalized; negative weights are treated as zero).  Returns weights.size()
/// only if every weight is zero.
std::size_t sample_discrete(Xoshiro256StarStar& rng,
                            std::span<const double> weights) noexcept;

}  // namespace p2sim::util
