// A fault plan is the concrete failure configuration of one experiment:
// which neurons/synapses fail, how, and under which capacity convention.
#pragma once

#include <span>
#include <vector>

#include "core/fep.hpp"
#include "fault/model.hpp"
#include "nn/network.hpp"

namespace wnf::fault {

struct FaultPlan {
  std::vector<NeuronFault> neurons;
  std::vector<SynapseFault> synapses;
  theory::CapacityConvention convention =
      theory::CapacityConvention::kPerturbationBound;

  bool empty() const { return neurons.empty() && synapses.empty(); }

  /// Per-layer neuron fault counts f_1..f_L (the paper's Nfail tuple).
  std::vector<std::size_t> neuron_counts(std::size_t depth) const;

  /// Per-layer synapse fault counts, size L+1.
  std::vector<std::size_t> synapse_counts(std::size_t depth) const;

  /// True when any Byzantine *neuron* fault is present (these need the
  /// nominal trace under the perturbation convention).
  bool has_byzantine_neurons() const;
};

/// Validates a plan against a network's shape: layer/neuron indices in
/// range, no duplicate neuron targets, f_l <= N_l. Aborts on violation
/// (plans are experiment fixtures; a malformed one is a bug, not input).
void validate_plan(const FaultPlan& plan, const nn::FeedForwardNetwork& net);

/// The fault semantics, in one place: the Injector's and the simulator's
/// forward-pass hooks both call these two, with different arguments. Both
/// act on whole rows of a probe block (nn::BlockView), so one plan applies
/// to every probe of the block alike, and probe p of a block is damaged
/// exactly as a one-probe pass over probe p would be.
/// Applies `plan`'s synapse faults into layer l (1..L+1; L+1 is the output
/// set) to its pre-activations `s`, in plan order: a crashed synapse
/// subtracts w * d from row `to`, probe by probe, where d is what sender
/// `from` of layer l-1 delivered (`delivered` row `from`); a Byzantine one
/// adds w * value (it transmits w * (y + value)). With `edge_channels` (the
/// simulator's; the matrix path has none), a synapse of a layer with
/// per-edge capacities delivered d clamped to its own capacity.
void apply_synapse_faults(const FaultPlan& plan,
                          const nn::FeedForwardNetwork& net, std::size_t l,
                          nn::BlockView<const double> delivered,
                          nn::BlockView<double> s, bool edge_channels);

/// Applies `plan`'s neuron faults of layer l (1..L) to its outputs `y`
/// (Definition 2), row by row: a crashed neuron's row reads 0, a stuck-at
/// or Byzantine one's its planned value, or base's row plus the value for a
/// Byzantine neuron under the perturbation convention. The Injector passes
/// the nominal y^(l) as `base`; the simulator passes `y`, because messages
/// carry no nominal trace.
void apply_neuron_faults(const FaultPlan& plan, std::size_t l,
                         nn::BlockView<const double> base,
                         nn::BlockView<double> y);

}  // namespace wnf::fault
