// The serving-path backend: serve::ReplicaPool behind the EvalBackend seam.
// A campaign trial stream becomes pool traffic — each trial's plan is a
// serve::FaultTimeline window over that trial's request ids, every probe is
// one request, and the pool's multi-worker drain serves them. The pool's
// determinism contract (a request's result is a pure function of
// (seed, id, input, timeline)) is what makes campaign results bit-identical
// across replica counts.
#pragma once

#include <memory>

#include "exec/backend.hpp"
#include "serve/pool.hpp"

namespace wnf::exec {

/// Shape of one serve-backed execution path.
struct ServeBackendOptions {
  std::size_t replicas = 1;  ///< worker threads (0 = hardware concurrency)
  dist::SimConfig sim;       ///< per-replica channel capacity
  dist::LatencyModel latency;  ///< per-request, per-neuron latency draws
  /// Optional Corollary-2 straggler cut, size L (empty = full waits).
  std::vector<std::size_t> straggler_cut;
  std::uint64_t seed = 0x5eed;  ///< root of the per-request Rng::split tree
};

/// Wraps serve::ReplicaPool for batched, multi-worker campaign trials.
/// run_trials builds a fresh pool per call (queue sized to the whole trial
/// stream, request ids starting at 0) so results depend only on the trials
/// and the options, never on what ran before. The serial install/evaluate
/// path keeps its own single pool whose request stream advances across
/// evaluate() calls — successive probes are successive requests.
class ServeBackend final : public EvalBackend {
 public:
  explicit ServeBackend(const nn::FeedForwardNetwork& net,
                        ServeBackendOptions options = {});

  std::string_view name() const override { return "serve"; }
  const nn::FeedForwardNetwork& network() const override { return net_; }
  void install(const fault::FaultPlan& plan) override;
  void clear() override;
  ProbeResult evaluate(std::span<const double> x) override;
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override;

  const ServeBackendOptions& options() const { return options_; }

 private:
  serve::ReplicaPool& serial_pool();

  const nn::FeedForwardNetwork& net_;
  ServeBackendOptions options_;
  fault::FaultPlan plan_;
  bool plan_dirty_ = false;
  std::unique_ptr<serve::ReplicaPool> serial_pool_;  ///< lazily spawned
};

/// Runs `trials` as one trial stream on `runtime`; shared by ServeBackend
/// and TransportBackend. `runtime` is an idle serve::ReplicaPool or
/// transport::WorkerHost, bound with request ids from 0 and a queue that
/// holds every probe. The stream is every trial's probes back to back as
/// ids 0, 1, ...; a trial's non-empty plan becomes a timeline window over
/// exactly its own ids. Submission and completion interleave through the
/// async seam: the runtime starts on the head of the stream while the tail
/// is still being submitted, poll() harvests whatever has finished, and
/// wait() drains the rest — bit-identical to a synchronous
/// submit-everything-then-drain. The stream itself does no scoring work:
/// finish_trial takes each trial's worst error against the nominal outputs
/// the trial carries, on the calling thread, with no forward pass.
template <typename Runtime>
std::vector<TrialResult> serve_trial_stream(Runtime& runtime,
                                            std::span<const Trial> trials);

}  // namespace wnf::exec
