// Deterministic, splittable pseudo-random generation for experiments.
//
// Every experiment in this repository is seeded; re-running a bench or test
// binary reproduces the same numbers bit-for-bit. The generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64 so that any
// 64-bit seed yields a well-mixed state. `Rng::split()` derives statistically
// independent child streams, which is how parallel Monte-Carlo fault
// campaigns give per-trial determinism regardless of thread scheduling.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/contract.hpp"

namespace wnf {

/// xoshiro256** pseudo-random generator with SplitMix64 seeding.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the stream; equal seeds give equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialises the state from `seed` via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value. Inline, like uniform() and bernoulli(): the
  /// simulator's per-neuron latency draws call it in their inner loop.
  std::uint64_t next_u64() {
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

  /// Derives an independent child stream (for per-trial / per-thread use).
  Rng split();

  /// Raw xoshiro256** state, for shipping a stream across a process
  /// boundary (the transport workers replay a request's split child bit
  /// for bit). Only the four state words travel; restoring drops any
  /// cached Box-Muller deviate, so transfer freshly split streams.
  std::array<std::uint64_t, 4> state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) {
    state_ = state;
    has_cached_normal_ = false;
  }

  /// Moves the stream on to `state`: words its owner computed by stepping
  /// this stream's state() as next_u64 would (the lane-parallel latency
  /// draws). Unlike set_state, keeps any cached Box-Muller deviate, so the
  /// stream ends exactly where that many next_u64 calls leave it.
  void advance_to(const std::array<std::uint64_t, 4>& state) {
    state_ = state;
  }

  /// Uniform double in [0, 1): the 53 high bits, full mantissa resolution.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Normal with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);

  /// Bernoulli draw with probability p in [0, 1].
  bool bernoulli(double p) {
    WNF_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Uniform sign: +1.0 or -1.0 with equal probability.
  double sign();

  /// k distinct indices drawn uniformly from {0, .., n-1}, ascending order.
  /// Requires k <= n. Floyd's algorithm: O(k) expected draws.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  // UniformRandomBitGenerator interface so <algorithm> shuffles work too.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace wnf
