#include "fault/plan.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "util/contract.hpp"

namespace wnf::fault {

std::vector<std::size_t> FaultPlan::neuron_counts(std::size_t depth) const {
  std::vector<std::size_t> counts(depth, 0);
  for (const auto& fault : neurons) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= depth);
    ++counts[fault.layer - 1];
  }
  return counts;
}

std::vector<std::size_t> FaultPlan::synapse_counts(std::size_t depth) const {
  std::vector<std::size_t> counts(depth + 1, 0);
  for (const auto& fault : synapses) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= depth + 1);
    ++counts[fault.layer - 1];
  }
  return counts;
}

bool FaultPlan::has_byzantine_neurons() const {
  for (const auto& fault : neurons) {
    if (fault.kind == NeuronFaultKind::kByzantine) return true;
  }
  return false;
}

void validate_plan(const FaultPlan& plan, const nn::FeedForwardNetwork& net) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const auto& fault : plan.neurons) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= net.layer_count());
    WNF_EXPECTS(fault.neuron < net.layer_width(fault.layer));
    WNF_EXPECTS(seen.emplace(fault.layer, fault.neuron).second &&
                "duplicate neuron fault");
    if (fault.kind == NeuronFaultKind::kStuckAt) {
      WNF_EXPECTS(fault.value >= 0.0 && fault.value <= 1.0);
    }
  }
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen_edges;
  for (const auto& fault : plan.synapses) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= net.layer_count() + 1);
    if (fault.layer <= net.layer_count()) {
      const auto& layer = net.layer(fault.layer);
      WNF_EXPECTS(fault.to < net.layer_width(fault.layer));
      WNF_EXPECTS(fault.from < layer.in_size());
      // A sparse layer has no synapse where it has no edge.
      if (const nn::LayerTopology* topo = layer.topology()) {
        WNF_EXPECTS(topo->has_edge(fault.to, fault.from) &&
                    "synapse fault on absent edge");
      }
    } else {
      WNF_EXPECTS(fault.to == 0);
      WNF_EXPECTS(fault.from < net.output_weights().size());
    }
    // A synapse is correct, crashed, OR Byzantine — never two at once.
    WNF_EXPECTS(seen_edges.emplace(fault.layer, fault.to, fault.from).second &&
                "duplicate synapse fault");
  }
}

void apply_synapse_faults(const FaultPlan& plan,
                          const nn::FeedForwardNetwork& net, std::size_t l,
                          nn::BlockView<const double> delivered,
                          nn::BlockView<double> s, bool edge_channels) {
  const bool hidden = l <= net.layer_count();
  const nn::LayerTopology* channels =
      edge_channels && hidden ? net.layer(l).topology() : nullptr;
  for (const auto& fault : plan.synapses) {
    if (fault.layer != l) continue;
    const double weight = hidden ? net.layer(l).weights()(fault.to, fault.from)
                                 : net.output_weights()[fault.from];
    const std::span<double> to = s.row(fault.to);
    if (fault.kind == SynapseFaultKind::kByzantine) {
      const double shift = weight * fault.value;  // transmits w * (y + value)
      for (double& v : to) v += shift;
      continue;
    }
    const bool clamped = channels != nullptr && channels->has_edge_capacities();
    const double cap =
        clamped ? channels->edge_capacity(
                      channels->edge_offset(fault.to, fault.from))
                : 0.0;
    const std::span<const double> from = delivered.row(fault.from);
    for (std::size_t p = 0; p < to.size(); ++p) {
      const double d = clamped ? std::clamp(from[p], -cap, cap) : from[p];
      to[p] -= weight * d;  // weight-0 view: the edge delivers nothing
    }
  }
}

void apply_neuron_faults(const FaultPlan& plan, std::size_t l,
                         nn::BlockView<const double> base,
                         nn::BlockView<double> y) {
  const bool perturb =
      plan.convention == theory::CapacityConvention::kPerturbationBound;
  for (const auto& fault : plan.neurons) {
    if (fault.layer != l) continue;
    const std::span<double> row = y.row(fault.neuron);
    if (fault.kind == NeuronFaultKind::kCrash) {
      std::fill(row.begin(), row.end(), 0.0);  // Definition 2: peers read 0
    } else if (fault.kind == NeuronFaultKind::kByzantine && perturb) {
      const std::span<const double> nominal = base.row(fault.neuron);
      for (std::size_t p = 0; p < row.size(); ++p) {
        row[p] = nominal[p] + fault.value;
      }
    } else {
      // Transmitted or frozen (stuck-at).
      std::fill(row.begin(), row.end(), fault.value);
    }
  }
}

}  // namespace wnf::fault
