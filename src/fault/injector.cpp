#include "fault/injector.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace wnf::fault {

Injector::Injector(const nn::FeedForwardNetwork& net) : net_(net) {}

double Injector::nominal(std::span<const double> x) {
  return net_.evaluate(x, workspace_);
}

double Injector::damaged(const FaultPlan& plan, std::span<const double> x) {
  double out = 0.0;
  damaged_block(plan, x, {&out, 1});
  return out;
}

void Injector::damaged(const FaultPlan& plan,
                       std::span<const std::vector<double>> probes,
                       std::span<double> out) {
  WNF_EXPECTS(out.size() == probes.size());
  damaged_block(plan, workspace_.pack(probes), out);
}

void Injector::damaged_block(const FaultPlan& plan, std::span<const double> x,
                             std::span<double> out) {
  if (plan.empty()) {
    net_.evaluate_hooked(x, {}, workspace_, out);
    return;
  }
  // Byzantine neuron perturbations are defined relative to the nominal
  // activations: record y^(l) of every layer in a clean pass first (its
  // outputs land in `out`, which the damaged pass then overwrites).
  // Without the perturbation convention no fault reads the base.
  const std::vector<std::vector<double>>* nominal = nullptr;
  if (plan.has_byzantine_neurons() &&
      plan.convention == theory::CapacityConvention::kPerturbationBound) {
    auto& layers = workspace_.layers();
    layers.resize(net_.layer_count() + 1);
    nn::ForwardHooks record;
    record.post_activation = [&layers](std::size_t l,
                                       nn::BlockView<double> y) {
      layers[l].assign(y.values().begin(), y.values().end());
    };
    net_.evaluate_hooked(x, record, workspace_, out);
    nominal = &layers;
  }

  nn::ForwardHooks hooks;
  hooks.pre_activation = [this, &plan](std::size_t l,
                                       nn::BlockView<const double> y_prev,
                                       nn::BlockView<double> s) {
    apply_synapse_faults(plan, net_, l, y_prev, s, /*edge_channels=*/false);
  };
  // Two pointers of captures: std::function keeps them inline.
  hooks.post_activation = [&plan, nominal](std::size_t l,
                                           nn::BlockView<double> y) {
    apply_neuron_faults(
        plan, l,
        nominal != nullptr
            ? nn::BlockView<const double>((*nominal)[l], y.probes())
            : y,
        y);
  };
  net_.evaluate_hooked(x, hooks, workspace_, out);
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
