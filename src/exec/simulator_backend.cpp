#include "exec/simulator_backend.hpp"

#include "dist/boosting.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace wnf::exec {

SimulatorBackend::SimulatorBackend(const nn::FeedForwardNetwork& net,
                                   SimulatorBackendOptions options)
    : net_(net),
      options_(std::move(options)),
      sim_(net, options_.sim),
      latency_root_(options_.latency_seed) {
  if (!options_.straggler_cut.empty()) {
    WNF_EXPECTS(options_.straggler_cut.size() == net_.layer_count());
    wait_counts_ = dist::wait_counts_from_cut(net_, options_.straggler_cut);
  }
}

void SimulatorBackend::install(const fault::FaultPlan& plan) {
  if (plan.empty()) {
    sim_.clear_faults();
  } else {
    sim_.apply_faults(plan);
  }
}

void SimulatorBackend::clear() { sim_.clear_faults(); }

ProbeResult SimulatorBackend::run_probe(dist::NetworkSimulator& sim,
                                        Rng& latency_rng,
                                        std::span<const double> x) const {
  sim.sample_latencies(options_.latency, latency_rng);
  const dist::SimResult result =
      wait_counts_.empty()
          ? sim.evaluate(x)
          : sim.evaluate_boosted(x, {wait_counts_.data(), wait_counts_.size()},
                                 options_.policy);
  return {result.output, result.completion_time, result.resets_sent};
}

ProbeResult SimulatorBackend::evaluate(std::span<const double> x) {
  Rng probe_rng = latency_root_.split();
  return run_probe(sim_, probe_rng, x);
}

std::vector<TrialResult> SimulatorBackend::run_trials(
    std::span<const Trial> trials) {
  // One child latency stream per trial, split up front so results are
  // independent of which worker runs which trial.
  Rng seeder(options_.latency_seed);
  std::vector<Rng> trial_rngs;
  trial_rngs.reserve(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    trial_rngs.push_back(seeder.split());
  }

  std::vector<TrialResult> results(trials.size());
  parallel_for(0, trials.size(), [&](std::size_t t) {
    const Trial& trial = trials[t];
    dist::NetworkSimulator sim(net_, options_.sim);  // one per worker trial
    if (!trial.plan.empty()) sim.apply_faults(trial.plan);
    Rng rng = trial_rngs[t];
    results[t].probes.reserve(trial.probes.size());
    for (const auto& x : trial.probes) {
      results[t].probes.push_back(run_probe(sim, rng, {x.data(), x.size()}));
    }
    finish_trial(trial, results[t]);
  });
  return results;
}

}  // namespace wnf::exec
