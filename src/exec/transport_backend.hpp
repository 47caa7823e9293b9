// The deployment-path backend: transport::WorkerHost behind the EvalBackend
// seam. The fourth execution layer — after the analytic Injector, the
// in-process message simulator, and the threaded serving pool — runs every
// campaign trial in a separate worker *process* fed through shared-memory
// rings, with crash faults optionally realised as real SIGKILLed workers.
// Because the host ships each request's split-off Rng state in its ring
// slot and the timeline segment plans as control frames, results are
// bit-identical to ServeBackend (same per-request split tree) and, where
// outputs are latency-independent, to SimulatorBackend and the Injector —
// so every cross-check and timeline scenario runs on real IPC unchanged.
#pragma once

#include <memory>

#include "exec/backend.hpp"
#include "transport/host.hpp"

namespace wnf::exec {

/// Shape of one multi-process execution path.
struct TransportBackendOptions {
  std::size_t workers = 1;  ///< worker processes (0 = hardware concurrency)
  dist::SimConfig sim;             ///< per-replica channel capacity
  dist::LatencyModel latency;  ///< per-request, per-neuron latency draws
  /// Optional Corollary-2 straggler cut, size L (empty = full waits).
  std::vector<std::size_t> straggler_cut;
  std::uint64_t seed = 0x5eed;  ///< root of the per-request Rng::split tree
  /// Worker-process deaths to execute during run_trials, timed in request
  /// ids (trial-major probe order: trial t's probes occupy ids
  /// [t*probes, (t+1)*probes)). Deaths move requests between processes,
  /// never change results — the campaign's way of demonstrating that a
  /// SIGKILLed worker's requests complete on the survivors.
  std::vector<transport::CrashWindow> crash_script;
};

/// Wraps transport::WorkerHost for batched multi-process campaign trials.
/// run_trials serves every call on ONE persistent fleet: the first call
/// forks the worker processes, every later call rebind()s them — request
/// ids restart at 0 on a reseeded root stream, so each campaign's results
/// depend only on the trials and the options, exactly as if a fresh host
/// had been built, but repeated campaigns, cross-checks, and adversary
/// searches pay fork + network shipping once instead of per call. The
/// serial install/evaluate path keeps a separate persistent host whose
/// request stream advances across evaluate() calls — mirroring
/// ServeBackend's serial pool exactly.
class TransportBackend final : public EvalBackend {
 public:
  /// True when this platform can run worker processes; construction
  /// aborts otherwise.
  static bool available();

  explicit TransportBackend(const nn::FeedForwardNetwork& net,
                            TransportBackendOptions options = {});

  std::string_view name() const override { return "transport"; }
  const nn::FeedForwardNetwork& network() const override { return net_; }
  void install(const fault::FaultPlan& plan) override;
  void clear() override;
  ProbeResult evaluate(std::span<const double> x) override;
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override;

  const TransportBackendOptions& options() const { return options_; }

  /// Deployment report of the last run_trials campaign (process-fault
  /// counters included; rebind() resets the per-campaign counters,
  /// so this is per-call even though the fleet persists); empty before the
  /// first run_trials call.
  const serve::ServeReport& last_report() const { return last_report_; }

  /// The persistent campaign fleet — forked by the first run_trials call,
  /// rebound (never re-forked) by every later one. Null before then.
  const transport::WorkerHost* fleet() const { return fleet_.get(); }

 private:
  transport::WorkerHost& serial_host();
  transport::WorkerHost& campaign_fleet(std::size_t queue_capacity);

  const nn::FeedForwardNetwork& net_;
  TransportBackendOptions options_;
  fault::FaultPlan plan_;
  bool plan_dirty_ = false;
  std::unique_ptr<transport::WorkerHost> serial_host_;  ///< lazily spawned
  std::unique_ptr<transport::WorkerHost> fleet_;  ///< lazily spawned
  serve::ServeReport last_report_;
};

}  // namespace wnf::exec
