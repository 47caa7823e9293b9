#include "exec/backend.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace wnf::exec {

void finish_trial(const nn::FeedForwardNetwork& net, const Trial& trial,
                  TrialResult& result, nn::Workspace& ws) {
  WNF_ASSERT(result.probes.size() == trial.probes.size());
  result.worst_error = 0.0;
  for (std::size_t i = 0; i < trial.probes.size(); ++i) {
    const auto& x = trial.probes[i];
    const double clean = net.evaluate({x.data(), x.size()}, ws);
    result.worst_error = std::max(result.worst_error,
                                  std::fabs(clean - result.probes[i].output));
  }
}

double EvalBackend::worst_output_error(
    const fault::FaultPlan& plan,
    std::span<const std::vector<double>> probes) {
  WNF_EXPECTS(!probes.empty());
  install(plan);
  double worst = 0.0;
  for (const auto& x : probes) {
    const double damaged = evaluate({x.data(), x.size()}).output;
    worst = std::max(worst, std::fabs(nominal({x.data(), x.size()}) - damaged));
  }
  clear();
  return worst;
}

std::vector<TrialResult> EvalBackend::run_trials(
    std::span<const Trial> trials) {
  std::vector<TrialResult> results(trials.size());
  nn::Workspace ws;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const Trial& trial = trials[t];
    install(trial.plan);
    results[t].probes.reserve(trial.probes.size());
    for (const auto& x : trial.probes) {
      results[t].probes.push_back(evaluate({x.data(), x.size()}));
    }
    finish_trial(network(), trial, results[t], ws);
  }
  clear();
  return results;
}

}  // namespace wnf::exec
