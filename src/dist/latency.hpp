// Per-neuron compute/transmission latency models for the message-passing
// simulator (Section V-B). A neuron's latency is the delay between hearing
// the last input it waits for and its own value arriving at every receiver.
// Three regimes: constant (synchronous rounds), uniform jitter, and a heavy
// straggler tail — the regime where Corollary 2's "don't wait for the
// slowest f_l senders" buys real completion time.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace wnf::dist {

enum class LatencyKind {
  kConstant,   ///< every draw equals `base`
  kUniform,    ///< base + U[0, spread)
  kHeavyTail,  ///< most draws near base; a `straggler_fraction` of draws
               ///< land in the top half of [base, base + spread)
};

/// Distribution of one neuron's latency. Aggregate so experiment tables can
/// brace-initialise regimes: {kind, base, spread, straggler_fraction}.
/// Every draw lies in [base, base + spread] for all kinds.
struct LatencyModel {
  LatencyKind kind = LatencyKind::kConstant;
  double base = 0.0;
  double spread = 0.0;
  double straggler_fraction = 0.0;  ///< only read by kHeavyTail

  /// One latency draw. Deterministic under `rng`'s stream.
  double sample(Rng& rng) const;

  /// One draw per neuron for layers of the given widths (the shape the
  /// simulator's set_latencies expects when `widths` = layer_widths()).
  std::vector<std::vector<double>> sample_layers(
      const std::vector<std::size_t>& widths, Rng& rng) const;

  /// sample_layers into a caller-owned buffer: `out` is reshaped to
  /// `widths` and refilled, allocation-free once the shape matches (the
  /// serving hot path). Validates the model once per call; the draws equal
  /// a loop of sample() in layer-major order, as sample_layers makes.
  void sample_layers_into(const std::vector<std::size_t>& widths, Rng& rng,
                          std::vector<std::vector<double>>& out) const;

  /// sample_layers_into for a block of requests, each with its own stream:
  /// request p draws from streams[p] into out[p * n, (p + 1) * n), where n
  /// is the sum of `widths`, in the same layer-major order. Two requests
  /// draw side by side in the lanes of one two-wide vector; every lane
  /// step is integer arithmetic or exact, so each request's draws, and
  /// the state its stream is left in (a cached normal deviate included),
  /// equal sample_layers_into's on that stream alone. An odd last request
  /// draws alone. Requires out.size() == streams.size() * n.
  void sample_block_into(const std::vector<std::size_t>& widths,
                         std::span<Rng> streams, std::span<double> out) const;
};

}  // namespace wnf::dist
