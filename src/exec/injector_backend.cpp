#include "exec/injector_backend.hpp"

#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace wnf::exec {
namespace {

// The trial's probes through `injector` as one block, scored against the
// trial's nominal outputs; `outputs` is the block's scratch.
void run_trial(fault::Injector& injector, const Trial& trial,
               std::vector<double>& outputs, TrialResult& result) {
  outputs.resize(trial.probes.size());
  if (!outputs.empty()) injector.damaged(trial.plan, trial.probes, outputs);
  result.probes.reserve(outputs.size());
  for (const double output : outputs) result.probes.push_back({output, 0.0, 0});
  finish_trial(trial, result);
}

}  // namespace

InjectorBackend::InjectorBackend(const nn::FeedForwardNetwork& net)
    : net_(net), injector_(net) {}

void InjectorBackend::install(const fault::FaultPlan& plan) {
  fault::validate_plan(plan, net_);
  plan_ = plan;
}

void InjectorBackend::clear() { plan_ = fault::FaultPlan{}; }

ProbeResult InjectorBackend::evaluate(std::span<const double> x) {
  // The hooked forward pass has no notion of time or messages.
  return {injector_.damaged(plan_, x), 0.0, 0};
}

double InjectorBackend::worst_output_error(const Trial& trial) {
  WNF_EXPECTS(!trial.probes.empty());
  fault::validate_plan(trial.plan, net_);  // as install() would
  clear();                                 // as the base leaves it
  TrialResult result;
  run_trial(injector_, trial, outputs_, result);
  return result.worst_error;
}

std::vector<TrialResult> InjectorBackend::run_trials(
    std::span<const Trial> trials) {
  std::vector<TrialResult> results(trials.size());
  parallel_for(0, trials.size(), [&](std::size_t t) {
    fault::Injector injector(net_);  // Injectors are not thread-safe
    std::vector<double> outputs;
    run_trial(injector, trials[t], outputs, results[t]);
  });
  return results;
}

}  // namespace wnf::exec
