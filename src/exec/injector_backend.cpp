#include "exec/injector_backend.hpp"

#include "util/thread_pool.hpp"

namespace wnf::exec {

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

std::vector<TrialResult> InjectorBackend::run_trials(
    std::span<const Trial> trials) {
  std::vector<TrialResult> results(trials.size());
  parallel_for(0, trials.size(), [&](std::size_t t) {
    const Trial& trial = trials[t];
    fault::Injector injector(net_);  // Injectors are not thread-safe
    results[t].probes.reserve(trial.probes.size());
    for (const auto& x : trial.probes) {
      results[t].probes.push_back(
          {injector.damaged(trial.plan, {x.data(), x.size()}), 0.0, 0});
    }
    finish_trial(trial, results[t]);
  });
  return results;
}

}  // namespace wnf::exec
