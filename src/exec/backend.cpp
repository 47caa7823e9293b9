#include "exec/backend.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace wnf::exec {

void compute_nominal(const nn::FeedForwardNetwork& net, Trial& trial,
                     nn::Workspace& ws) {
  trial.nominal.resize(trial.probes.size());
  if (trial.probes.empty()) return;
  net.evaluate_hooked(ws.pack(trial.probes), {}, ws, trial.nominal);
}

void finish_trial(const Trial& trial, TrialResult& result) {
  WNF_EXPECTS(trial.nominal.size() == trial.probes.size());
  WNF_ASSERT(result.probes.size() == trial.probes.size());
  result.worst_error = 0.0;
  for (std::size_t i = 0; i < trial.probes.size(); ++i) {
    result.worst_error =
        std::max(result.worst_error,
                 std::fabs(trial.nominal[i] - result.probes[i].output));
  }
}

double EvalBackend::worst_output_error(const Trial& trial) {
  WNF_EXPECTS(!trial.probes.empty());
  install(trial.plan);
  TrialResult result;
  result.probes.reserve(trial.probes.size());
  for (const auto& x : trial.probes) {
    result.probes.push_back(evaluate({x.data(), x.size()}));
  }
  clear();
  finish_trial(trial, result);
  return result.worst_error;
}

std::vector<TrialResult> EvalBackend::run_trials(
    std::span<const Trial> trials) {
  std::vector<TrialResult> results(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const Trial& trial = trials[t];
    install(trial.plan);
    results[t].probes.reserve(trial.probes.size());
    for (const auto& x : trial.probes) {
      results[t].probes.push_back(evaluate({x.data(), x.size()}));
    }
    finish_trial(trial, results[t]);
  }
  clear();
  return results;
}

}  // namespace wnf::exec
