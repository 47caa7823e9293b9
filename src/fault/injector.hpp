// Executes fault plans: runs the shared fault functions (fault/plan.hpp)
// through ForwardHooks on the network's one forward pass and evaluates the
// damaged network. This is the experimental counterpart of Fep — the
// "costly experiment" path the paper contrasts with its analytic bound.
#pragma once

#include <span>

#include "fault/plan.hpp"
#include "nn/network.hpp"

namespace wnf::fault {

/// Stateful evaluator bound to one network. Reusable across plans/inputs;
/// not thread-safe (one Injector per worker in parallel campaigns).
class Injector {
 public:
  explicit Injector(const nn::FeedForwardNetwork& net);

  /// Nominal (undamaged) output for `x`.
  double nominal(std::span<const double> x);

  /// Output with `plan`'s faults applied. Byzantine neuron faults under the
  /// perturbation convention are applied relative to the *nominal* trace
  /// (the faulty neuron overrides its output; it does not relay upstream
  /// damage — matching Theorem 2's worst-case model).
  double damaged(const FaultPlan& plan, std::span<const double> x);

  /// damaged() for every probe of a block in one forward pass: out[i] for
  /// probes[i], bit-identical to damaged(plan, probes[i]). Under the
  /// perturbation convention a plan with Byzantine neurons first records
  /// the block's nominal activations once, in the workspace. Requires
  /// out.size() == probes.size() >= 1.
  void damaged(const FaultPlan& plan,
               std::span<const std::vector<double>> probes,
               std::span<double> out);

  /// |nominal - damaged| for `x`.
  double output_error(const FaultPlan& plan, std::span<const double> x);

  /// max over `inputs` of output_error.
  double worst_output_error(const FaultPlan& plan,
                            std::span<const std::vector<double>> inputs);

 private:
  // The damaged pass over a packed block (nn::Workspace::pack layout).
  void damaged_block(const FaultPlan& plan, std::span<const double> x,
                     std::span<double> out);

  const nn::FeedForwardNetwork& net_;
  nn::Workspace workspace_;
};

}  // namespace wnf::fault
