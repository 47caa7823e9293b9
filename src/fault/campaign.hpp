// Monte-Carlo fault-injection campaigns: many independent trials, each with
// a fresh victim set and probe inputs, summarised against the analytic
// bound. Trials run on any exec::EvalBackend — the hooked matrix forward
// (Injector), the message-level simulator, or the serving pool — and
// parallelise inside the backend; per-trial RNG streams are split from the
// campaign seed, so results are independent of scheduling *and* identical
// across backends that share execution semantics.
#pragma once

#include <limits>

#include "core/fep.hpp"
#include "exec/backend.hpp"
#include "fault/adversary.hpp"
#include "serve/timeline.hpp"
#include "util/stats.hpp"

namespace wnf::fault {

enum class AttackKind {
  kRandomCrash,
  kTopWeightCrash,
  kGreedyCrash,
  kRandomByzantine,
  kGradientByzantine,
  kRandomSynapseByzantine,  ///< counts must then have size L+1
};

struct CampaignConfig {
  AttackKind attack = AttackKind::kRandomCrash;
  std::size_t trials = 100;
  std::size_t probes_per_trial = 32;  ///< random inputs evaluated per trial
  double capacity = 1.0;              ///< C for Byzantine attacks
  /// Capacity convention stamped on every generated plan. Only Byzantine
  /// *neuron* faults read it; see cross_check_campaign for why cross-path
  /// comparisons need kTransmittedValueBound.
  theory::CapacityConvention convention =
      theory::CapacityConvention::kPerturbationBound;
  std::uint64_t seed = 42;
};

struct CampaignResult {
  Summary per_trial_worst;  ///< distribution of each trial's worst |error|
  double observed_max = 0.0;
  double fep_bound = 0.0;   ///< Theorem 2/4 bound for the fault counts
  /// observed_max / fep_bound. NaN when the bound is not positive, so "the
  /// bound was zero / never computed" is distinguishable from a genuinely
  /// slack campaign (which reports a small but well-defined ratio).
  double tightness() const {
    return fep_bound > 0.0 ? observed_max / fep_bound
                           : std::numeric_limits<double>::quiet_NaN();
  }
};

/// Builds the campaign's trial stream: trial t's RNG is the t-th split of
/// `config.seed`, its probes are drawn first and its plan second (so any
/// backend replays the exact trials the pre-backend campaign ran). Plan
/// construction is backend-independent — adversaries search offline. Each
/// trial also carries its probes' fault-free outputs on `net`
/// (exec::Trial::nominal): this is the stream's one nominal pass, run in
/// the same parallel per-trial loop as the plans, and every backend that
/// runs the stream scores against it. So the stream is for backends bound
/// to `net`.
std::vector<exec::Trial> make_campaign_trials(
    const nn::FeedForwardNetwork& net, std::span<const std::size_t> counts,
    const CampaignConfig& config);

/// Runs `config.trials` independent trials of `config.attack` with the
/// per-layer fault `counts` (size L, or L+1 for synapse attacks) on
/// `backend` (which must be bound to `net`), and computes the matching
/// analytic bound via `fep_options`.
CampaignResult run_campaign(const nn::FeedForwardNetwork& net,
                            std::span<const std::size_t> counts,
                            const CampaignConfig& config,
                            const theory::FepOptions& fep_options,
                            exec::EvalBackend& backend);

/// Convenience overload running on the analytic path (an InjectorBackend).
CampaignResult run_campaign(const nn::FeedForwardNetwork& net,
                            std::span<const std::size_t> counts,
                            const CampaignConfig& config,
                            const theory::FepOptions& fep_options);

/// Outcome of running one trial stream on two backends side by side.
struct CrossCheckResult {
  CampaignResult first;
  CampaignResult second;
  double max_divergence = 0.0;  ///< max |output_first - output_second| over
                                ///< every (trial, probe) evaluation
  std::size_t divergent_trial = 0;  ///< argmax trial (0 when no divergence)
  std::size_t divergent_probe = 0;  ///< argmax probe (0 when no divergence)
};

/// Cross-check mode: generates ONE trial stream via make_campaign_trials and
/// replays it on `first` and `second`, reporting both campaign summaries and
/// the maximum per-probe output divergence. This is how Injector↔Simulator
/// equivalence is pinned at campaign scale rather than on a handful of
/// hand-written plans.
///
/// Capacity-convention caveat (see the header comment in src/dist/sim.hpp):
/// under CapacityConvention::kPerturbationBound a Byzantine *neuron* means
/// different things on the two paths — the Injector perturbs the offline
/// nominal trace, while the simulator perturbs the value the neuron locally
/// computed, which may already carry upstream damage (messages have no
/// access to a clean trace). Cross-checks that expect bit-equivalence must
/// therefore set `config.convention = kTransmittedValueBound`, and give the
/// simulator a channel capacity >= the attack capacity (or non-positive,
/// i.e. unbounded) so Assumption 1's clamp is the identity on the planned
/// values. Crash, stuck-at, and synapse attacks agree under either
/// convention.
CrossCheckResult cross_check_campaign(const nn::FeedForwardNetwork& net,
                                      std::span<const std::size_t> counts,
                                      const CampaignConfig& config,
                                      const theory::FepOptions& fep_options,
                                      exec::EvalBackend& first,
                                      exec::EvalBackend& second);

/// A timeline-driven campaign: trial t runs under the faults of
/// `timeline.active_at(t)` — faults arrive and clear mid-trial-stream, the
/// scenario class of reoccurring catastrophic failures (Sardi et al.) and
/// progressive structural damage (Roxin et al.). Time is trial index, so a
/// scenario replays bit-identically on any backend and worker count.
struct TimelineCampaignConfig {
  std::size_t trials = 100;          ///< length of the trial stream
  std::size_t probes_per_trial = 8;  ///< random inputs evaluated per trial
  std::uint64_t seed = 42;
};

struct TimelineCampaignResult {
  std::vector<double> per_trial_error;  ///< worst |error| per trial, in order
  Summary per_trial_worst;
  double observed_max = 0.0;
  std::size_t faulty_trials = 0;  ///< trials covered by a non-empty plan
};

/// Runs the timeline scenario on `backend` (bound to `net`). The timeline
/// is finalized against `net` internally; windows beyond `config.trials`
/// simply never activate. The trial stream is built like
/// make_campaign_trials', nominal outputs included.
TimelineCampaignResult run_timeline_campaign(
    const nn::FeedForwardNetwork& net, const serve::FaultTimeline& timeline,
    const TimelineCampaignConfig& config, exec::EvalBackend& backend);

}  // namespace wnf::fault
