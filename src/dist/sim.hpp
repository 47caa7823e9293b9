// Message-level simulator of the paper's distributed execution model
// (Section II-A): one process per neuron, synapses as channels. Each
// evaluation replays the network as rounds of messages — every neuron
// waits for its fan-in (or, boosted per Corollary 2, for a prefix of the
// earliest senders), computes, and broadcasts through capacity-C channels
// (Assumption 1, enforced structurally on every transmitted value; a
// non-positive capacity models the unbounded channels of Lemma 1's
// impossibility regime).
//
// An evaluation runs in two passes. The timing pass computes *when*: wait
// sets, fire times, resets and the completion time, none of which depends
// on a value (crashed and Byzantine neurons fire at t = 0 whatever they
// send). The value pass computes *what*: the network's one forward pass,
// nn::FeedForwardNetwork::evaluate_hooked, whose hooks apply the per-edge
// channels, the fault semantics the Injector applies (fault/plan.hpp), the
// capacity-C clamp, the hold-last history and the stragglers' cut.
//
// A run of requests that share one fault plan can be evaluated as one
// block (evaluate_block, the serving replicas' step): each request draws
// its latencies from its own stream and gets its own timing pass, then one
// evaluate_hooked pass carries every request as one probe of the block.
// The hooks act per (row, probe), and request p's stragglers are zeroed at
// element (i, p), so every request keeps the bits of its one-request
// evaluation.
//
// One argument differs from the Injector's: the base a perturbing
// Byzantine neuron adds its value to is its *locally computed* value
// (which may already reflect upstream damage), not the offline nominal
// trace — messages have no access to a clean trace. Tests pin equivalence
// on the transmitted-value convention.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dist/latency.hpp"
#include "fault/plan.hpp"
#include "nn/network.hpp"

namespace wnf::dist {

struct SimConfig {
  /// Assumption 1's synaptic transmission capacity C: every value a neuron
  /// sends is clamped to [-C, C]. capacity <= 0 disables the clamp
  /// (Lemma 1's unbounded-transmission regime).
  double capacity = 1.0;
};

/// What a receiver substitutes for a sender it refused to wait for.
enum class ResetPolicy {
  kZero,      ///< reset to 0 — the paper's Corollary 2 semantics (a cut
              ///< sender is indistinguishable from a crashed one, so the
              ///< crash Fep bound applies)
  kHoldLast,  ///< reuse the sender's value from the previous evaluation
              ///< (empirical ablation; no worst-case guarantee, so
              ///< run_boosting never certifies it). Falls back to 0
              ///< before any history exists, and always for cut input
              ///< clients — inputs are not processes and keep no history.
};

/// Outcome of one simulated evaluation.
struct SimResult {
  double output = 0.0;           ///< Fneu(X) as the output client reads it
  double completion_time = 0.0;  ///< when the output client has heard every
                                 ///< layer-L sender it waits for (the full
                                 ///< layer unless an output cut is active)
  std::vector<double> layer_fire_times;  ///< per layer l in 1..L: when the
                                         ///< slowest neuron of l fired
  std::size_t resets_sent = 0;   ///< receiver->sender reset messages
                                 ///< (Section V-B accounting); 0 unboosted
};

/// Deterministic event-level executor for one network. Holds per-neuron
/// latencies, an active fault plan, the last transmitted values (the
/// kHoldLast history), and preallocated workspaces so steady-state
/// evaluation performs no per-layer allocation. Not thread-safe; one
/// simulator per worker (serve::ReplicaPool replicates at this boundary).
class NetworkSimulator {
 public:
  /// Binds to `net` (kept by reference; must outlive the simulator).
  NetworkSimulator(const nn::FeedForwardNetwork& net, SimConfig config);
  NetworkSimulator(const NetworkSimulator&) = delete;  // hooks_ hold `this`
  NetworkSimulator& operator=(const NetworkSimulator&) = delete;

  /// Full evaluation: every neuron waits for its complete fan-in.
  SimResult evaluate(std::span<const double> x);

  /// Corollary-2 evaluation: a neuron of layer l fires after hearing the
  /// `wait_counts[l-1]` earliest senders of layer l-1 (entry 0 counts the
  /// input clients), resetting the stragglers per `policy`. With L entries
  /// the output client waits for all of layer L (the full-wait default);
  /// an optional (L+1)-th entry extends the cut to the output synapse set —
  /// the output client hears only that many earliest layer-L senders and
  /// resets the rest per `policy`. Counts larger than the fan-in are
  /// clamped to it.
  SimResult evaluate_boosted(std::span<const double> x,
                             std::span<const std::size_t> wait_counts,
                             ResetPolicy policy = ResetPolicy::kZero);

  /// Corollary-2 evaluation of a block of requests under the installed
  /// plan, with kZero resets: request p reads inputs[p], draws its
  /// latencies from streams[p] (model.sample_block_into) and is cut per
  /// `wait_counts` (empty means full waits, as evaluate()). out[p] gets what
  /// sample_latencies(model, streams[p]) and then evaluate_boosted would
  /// return, bit for bit, except layer_fire_times, which stays empty. The
  /// streams advance as sample_latencies advances them. Writes no hold-last
  /// history and leaves the history empty, as reset_history() does; the
  /// one-request latencies are not touched.
  void evaluate_block(std::span<const std::span<const double>> inputs,
                      std::span<Rng> streams, const LatencyModel& model,
                      std::span<const std::size_t> wait_counts,
                      std::span<SimResult> out);

  /// Per-neuron latencies, shape layer_widths(). Defaults to all-zero
  /// (instantaneous network, completion_time 0).
  void set_latencies(std::vector<std::vector<double>> latencies);

  /// Redraws every per-neuron latency from `model` in place — the
  /// allocation-free equivalent of set_latencies(model.sample_layers(..))
  /// for serving hot paths. Draw order matches sample_layers exactly.
  void sample_latencies(const LatencyModel& model, Rng& rng);

  /// Installs `plan` (validated against the network) until clear_faults().
  void apply_faults(fault::FaultPlan plan);
  void clear_faults();

  /// Forgets the kHoldLast history (next hold-last cut reads 0).
  void reset_history();

  const nn::FeedForwardNetwork& network() const { return net_; }
  const SimConfig& config() const { return config_; }

 private:
  SimResult run(std::span<const double> x,
                std::span<const std::size_t> wait_counts, ResetPolicy policy);

  /// The timing pass of the block's request p, from its latencies (layer
  /// after layer, laid end to end): every receiver set's wait set and
  /// stragglers, the completion time and the resets, into `result`. Adds
  /// each layer's fire time to `fire_times` when that is non-null.
  void time_request(std::size_t p, std::span<const double> latencies,
                    std::span<const std::size_t> wait_counts,
                    SimResult& result, std::vector<double>* fire_times);

  /// Shared wait set for every receiver hearing arrival_: keeps the
  /// `wait_count` earliest senders, lists the rest in `stragglers`, and
  /// charges `receivers` reset messages per straggler. Returns the barrier
  /// time (arrival of the last sender waited for).
  double wait_for(std::size_t wait_count, std::size_t receivers,
                  std::vector<std::size_t>& stragglers, SimResult& result);

  /// Overwrites what receiver set l (1..L+1) reads from each request's
  /// stragglers in `y`, the block layer l-1 sent, per policy_: request p's
  /// straggler i at element (i, p).
  void substitute_stragglers(std::size_t l, nn::BlockView<double> y) const;

  /// Pre-activation hook: per-edge channels, then synapse faults.
  void deliver(std::size_t l, nn::BlockView<const double> y_prev,
               nn::BlockView<double> s) const;

  /// Post-activation hook: neuron faults, the capacity-C clamp, the
  /// hold-last history row (one-request passes only), then the next
  /// receiver set's cut.
  void transmit(std::size_t l, nn::BlockView<double> y);

  const nn::FeedForwardNetwork& net_;
  SimConfig config_;
  std::vector<std::size_t> widths_;             ///< cached layer_widths()
  std::vector<std::size_t> full_wait_;          ///< evaluate()'s wait counts
  std::vector<double> latencies_;  ///< per neuron, layer after layer
  fault::FaultPlan plan_;
  std::vector<std::vector<double>> history_;  ///< last transmitted values
  bool has_history_ = false;
  bool record_history_ = true;  ///< false while a block pass runs

  // Reused evaluation workspaces (sized once; no per-layer allocation).
  std::vector<std::vector<double>> history_next_;
  /// Request p's straggler list for receiver set l (1..L+1) at
  /// [p * (L + 1) + l - 1]; a one-request evaluation is request 0.
  std::vector<std::vector<std::size_t>> stragglers_;
  ResetPolicy policy_ = ResetPolicy::kZero;  ///< this evaluation's policy
  std::vector<double> arrival_;   ///< when the previous round's values arrived
  std::vector<double> fire_;      ///< fire times under construction
  std::vector<std::size_t> order_;  ///< senders sorted by arrival
  std::vector<double> input_;     ///< x (a block's x, probe-minor) with cut
                                  ///< input clients read as 0
  std::vector<double> block_latencies_;  ///< a block's draws, per request
  std::vector<double> block_output_;     ///< a block's outputs
  nn::Workspace workspace_;       ///< the forward pass's buffers
  nn::ForwardHooks hooks_;        ///< deliver() and transmit() on `this`
};

}  // namespace wnf::dist
