// The analytic-path backend: fault::Injector behind the EvalBackend seam.
// This is the "costly experiment" the paper contrasts with its bound — a
// hooked matrix forward pass with no clock, so completion metadata is zero.
#pragma once

#include "exec/backend.hpp"
#include "fault/injector.hpp"

namespace wnf::exec {

/// Wraps one fault::Injector. run_trials parallelises over the thread pool
/// with one Injector per in-flight trial and runs each trial's probes as
/// one block, reproducing bit-for-bit what the pre-backend
/// fault::run_campaign computed probe by probe. worst_output_error scores
/// an adversary search's trial as one block too.
class InjectorBackend final : public EvalBackend {
 public:
  explicit InjectorBackend(const nn::FeedForwardNetwork& net);

  std::string_view name() const override { return "injector"; }
  const nn::FeedForwardNetwork& network() const override { return net_; }
  void install(const fault::FaultPlan& plan) override;
  void clear() override;
  ProbeResult evaluate(std::span<const double> x) override;
  double worst_output_error(const Trial& trial) override;
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override;

 private:
  const nn::FeedForwardNetwork& net_;
  fault::Injector injector_;  ///< serial-path evaluator
  fault::FaultPlan plan_;
  std::vector<double> outputs_;  ///< worst_output_error's probe block
};

}  // namespace wnf::exec
