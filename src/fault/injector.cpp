#include "fault/injector.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace wnf::fault {

Injector::Injector(const nn::FeedForwardNetwork& net) : net_(net) {}

double Injector::nominal(std::span<const double> x) {
  return net_.evaluate(x, workspace_);
}

double Injector::damaged(const FaultPlan& plan, std::span<const double> x) {
  if (plan.empty()) return nominal(x);

  // Byzantine neuron perturbations are defined relative to the nominal
  // activations, so compute the clean trace first when needed.
  nn::ForwardTrace nominal_trace;
  if (plan.has_byzantine_neurons() &&
      plan.convention == theory::CapacityConvention::kPerturbationBound) {
    nominal_trace = net_.forward_trace(x);
  }

  nn::ForwardHooks hooks;
  hooks.pre_activation = [this, &plan](std::size_t l,
                                       std::span<const double> y_prev,
                                       std::span<double> s) {
    apply_synapse_faults(plan, net_, l, y_prev, s, /*edge_channels=*/false);
  };
  hooks.post_activation = [&plan, &nominal_trace](std::size_t l,
                                                  std::span<double> y) {
    // activations[l] is y^(l) (index 0 holds the input X). Without a trace
    // no fault reads the base.
    const auto& nominal = nominal_trace.activations;
    apply_neuron_faults(
        plan, l, nominal.empty() ? y : std::span<const double>(nominal[l]), y);
  };
  return net_.evaluate_hooked(x, hooks, workspace_);
}

double Injector::output_error(const FaultPlan& plan,
                              std::span<const double> x) {
  return std::fabs(nominal(x) - damaged(plan, x));
}

double Injector::worst_output_error(
    const FaultPlan& plan, std::span<const std::vector<double>> inputs) {
  WNF_EXPECTS(!inputs.empty());
  double worst = 0.0;
  for (const auto& x : inputs) {
    worst = std::max(worst, output_error(plan, {x.data(), x.size()}));
  }
  return worst;
}

}  // namespace wnf::fault
