// The serving-path backends: a serving runtime behind the EvalBackend seam.
// Two runtimes serve the same way, so one class template drives both:
//   - serve::ReplicaPool: one simulator replica per worker thread;
//   - transport::WorkerHost: worker *processes* fed through shared-memory
//     rings, with crash faults optionally realised as real SIGKILLed
//     workers (TransportConfig::crash_script).
// A campaign trial stream becomes runtime traffic: each trial's plan is a
// serve::FaultTimeline window over that trial's request ids, and every
// probe is one request. Both runtimes split each request's Rng off the
// same root stream, so a request's result is a pure function of
// (seed, id, input, timeline): campaign results are bit-identical across
// replica and worker counts, across the two runtimes, and (where outputs
// are latency-independent) to SimulatorBackend and the Injector.
#pragma once

#include <memory>

#include "exec/backend.hpp"
#include "serve/pool.hpp"
#include "transport/host.hpp"

namespace wnf::exec {

/// Wraps one serving runtime (serve::ReplicaPool or transport::WorkerHost)
/// for batched, multi-worker campaign trials. Every path serves on ONE
/// persistent runtime, built on first use: every later run_trials call
/// rebind()s it first, so request ids restart at 0 on the re-applied seed
/// (and the crash script re-arms), and each call's results depend only on
/// its trials and the config, exactly as if a fresh runtime had been
/// built. Repeated campaigns, cross-checks and adversary searches pay the
/// thread spawn or fork + network shipping once. The serial
/// install/evaluate path serves on the same runtime: successive probes are
/// successive requests, and after a run_trials the next evaluate()
/// re-installs the installed plan.
template <typename Runtime>
class ServingBackend final : public EvalBackend {
 public:
  using Config = typename Runtime::Config;

  /// The runtime is built from `config` with an unbounded queue, because
  /// a trial stream is never shed; every other field is used as given.
  explicit ServingBackend(const nn::FeedForwardNetwork& net,
                          Config config = {});

  std::string_view name() const override;
  const nn::FeedForwardNetwork& network() const override { return net_; }
  void install(const fault::FaultPlan& plan) override;
  void clear() override;
  ProbeResult evaluate(std::span<const double> x) override;

  /// Runs the trials as one stream on the runtime: every trial's probes
  /// back to back as ids 0, 1, ...; a trial's non-empty plan becomes a
  /// timeline window over exactly its own ids. Submission and completion
  /// interleave (the runtime starts on the head of the stream while the
  /// tail is still being submitted), bit-identical to submitting
  /// everything and draining. finish_trial scores each trial against the
  /// nominal outputs it carries, on the calling thread, with no forward
  /// pass.
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override;

  /// The runtime: null before first use. Its report() covers the last
  /// run_trials call (and any evaluate() since): every rebind resets it.
  const Runtime* runtime() const { return runtime_.get(); }

 private:
  const nn::FeedForwardNetwork& net_;
  Config config_;
  fault::FaultPlan plan_;
  bool plan_dirty_ = false;
  std::unique_ptr<Runtime> runtime_;  ///< built on first use
};

/// The threaded serving pool, named "serve". Options are a
/// serve::ServeConfig whose queue_capacity the backend overrides
/// (unbounded).
using ServeBackend = ServingBackend<serve::ReplicaPool>;
using ServeBackendOptions = serve::ServeConfig;
template <>
std::string_view ServingBackend<serve::ReplicaPool>::name() const;

/// The forked-worker fleet, named "transport". Options are a
/// transport::TransportConfig whose queue_capacity the backend overrides
/// (unbounded). Construction forks nothing; the first use aborts where
/// transport::WorkerHost::available() is false.
using TransportBackend = ServingBackend<transport::WorkerHost>;
using TransportBackendOptions = transport::TransportConfig;
template <>
std::string_view ServingBackend<transport::WorkerHost>::name() const;

}  // namespace wnf::exec
