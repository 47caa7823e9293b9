// Execution backends: one interface over every way this repository can run
// a fault scenario. The paper lives in the gap between the analytic path
// (fault::Injector + Fep bounds) and the systems path (dist::NetworkSimulator
// messages, serve::ReplicaPool traffic, transport worker processes); an
// EvalBackend is the seam that lets a campaign, a bench, or a cross-check
// drive any of them interchangeably. A backend binds one network,
// installs/clears a fault::FaultPlan, evaluates probe inputs under it, and
// reports completion metadata where the path has a clock (the Injector does
// not).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "fault/plan.hpp"
#include "nn/network.hpp"

namespace wnf::exec {

/// One probe evaluation under the installed plan. Backends without a
/// simulated clock (the Injector) report zero completion metadata.
struct ProbeResult {
  double output = 0.0;           ///< Fneu(X) under the installed faults
  double completion_time = 0.0;  ///< simulated time to the output client
  std::size_t resets_sent = 0;   ///< Section V-B reset-message accounting
};

/// One campaign trial: a fault configuration, the probe inputs to evaluate
/// under it, and each probe's fault-free output. An empty plan is a
/// fault-free trial.
struct Trial {
  fault::FaultPlan plan;
  std::vector<std::vector<double>> probes;
  /// nominal[i] is the fault-free output of probes[i] on the network of the
  /// backend that runs the trial, computed once when the trial stream is
  /// built (compute_nominal) and shared by every backend that runs it.
  /// Backends score against it and never run a fault-free pass of their
  /// own; a trial without one nominal per probe is a contract violation.
  std::vector<double> nominal;
};

/// Fills `trial.nominal` with `net`'s fault-free output for each of
/// `trial.probes`, evaluated as one probe block in the caller-owned `ws`
/// (each output bit-identical to a one-probe pass).
void compute_nominal(const nn::FeedForwardNetwork& net, Trial& trial,
                     nn::Workspace& ws);

/// Outcome of one trial: the damaged evaluation of every probe, plus the
/// trial's worst absolute output error against the trial's nominal outputs.
struct TrialResult {
  std::vector<ProbeResult> probes;  ///< per-probe, in input order
  double worst_error = 0.0;  ///< max_i |trial.nominal[i] - probes[i].output|
};

/// Interface over one fault-execution path, bound to one network (kept by
/// reference; it must outlive the backend). Backends are stateful and not
/// thread-safe from the caller's side: one driver thread installs plans and
/// evaluates probes. Parallelism lives *inside* run_trials, where each
/// implementation fans trials out its own way (per-worker evaluators for the
/// Injector and simulator, replica traffic for the serving pool) while
/// keeping results bit-identical to the sequential default.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  /// Short stable identifier ("injector", "simulator", "serve", "transport")
  /// for reports.
  virtual std::string_view name() const = 0;

  /// The network this backend is bound to.
  virtual const nn::FeedForwardNetwork& network() const = 0;

  /// Installs `plan` until the next install/clear. An empty plan clears.
  virtual void install(const fault::FaultPlan& plan) = 0;

  /// Removes the installed plan (subsequent probes run fault-free).
  virtual void clear() = 0;

  /// Evaluates one probe under the installed plan.
  virtual ProbeResult evaluate(std::span<const double> x) = 0;

  /// The trial's worst error (finish_trial): installs its plan, evaluates
  /// its probes, scores them against its nominal outputs, and clears — the
  /// scoring primitive adversary searches use, with the nominals computed
  /// once per search instead of once per candidate plan. The base drives
  /// install/evaluate probe by probe; the Injector overrides it with one
  /// probe block and the same bits.
  virtual double worst_output_error(const Trial& trial);

  /// Runs every trial: installs its plan, evaluates its probes, and scores
  /// them against the trial's nominal outputs (finish_trial). Returns one
  /// TrialResult per trial and one ProbeResult per probe. The base
  /// implementation drives install/evaluate sequentially; overrides
  /// parallelize, and must be deterministic in trial order whatever the
  /// worker count or scheduling. Overrides may organize their latency
  /// randomness differently from the serial evaluate path (e.g. per-trial
  /// child streams instead of a per-probe split stream), so the two paths
  /// are only guaranteed to coincide where results are latency-independent
  /// — no straggler cut, or outputs compared only.
  virtual std::vector<TrialResult> run_trials(std::span<const Trial> trials);
};

/// Shared scoring: sets `result.worst_error` to the max over probes of
/// |trial.nominal[i] - result.probes[i].output|, in probe order. Runs no
/// network. Requires one nominal per probe.
void finish_trial(const Trial& trial, TrialResult& result);

}  // namespace wnf::exec
