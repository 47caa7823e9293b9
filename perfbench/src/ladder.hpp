// The layer sweep of a traced run. It re-serves one id window of the
// workload's traffic down the ladder -- kernel, network forward, message
// simulator, replica pool, ring transport, open-loop replay -- and checks
// that every rung lands the in-process reference checksum. It also times
// the campaign layers (hooked forward pass, trial generation, both
// backends' run_trials, the bound) on the same network. Every per-layer
// metric is thereby measured on every workload, at that workload's shape;
// the workload then overrides the metrics its own hot path measures
// directly (set() replaces).
#pragma once

#include <optional>

#include "fixtures.hpp"

namespace perfbench {

struct LadderSpec {
  const nn::FeedForwardNetwork* net = nullptr;
  /// Inputs of requests [0, W). `timeline` (the workload's) must leave
  /// those ids fault-free; the reference serves them under it. The rungs
  /// then run no faults and repeat the window on one deployment: with
  /// full waits an output does not depend on its latency draws, so every
  /// repetition lands the same checksum.
  std::vector<std::vector<double>> window;
  std::uint64_t serve_seed = 0;
  serve::FaultTimeline timeline;
  /// Digest of what the workload's main phase served for the window, when
  /// it served the whole window under the right ids.
  std::optional<std::uint64_t> served_checksum;
  /// False when the workload's main phase is the open-loop replay.
  bool replay_rung = true;
  /// Timing budget per rung, seconds.
  double rung_seconds = 0.25;
};

void run_ladder(Run& run, const LadderSpec& spec);

}  // namespace perfbench
