#include "fault/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "exec/injector_backend.hpp"
#include "nn/gradients.hpp"
#include "util/contract.hpp"

namespace wnf::fault {
namespace {

/// Outgoing-weight influence score of neuron `i` in layer `l`: the largest
/// |weight| on any synapse this neuron feeds.
double outgoing_influence(const nn::FeedForwardNetwork& net, std::size_t l,
                          std::size_t i) {
  if (l == net.layer_count()) return std::fabs(net.output_weights()[i]);
  const auto& upper = net.layer(l + 1).weights();
  double best = 0.0;
  for (std::size_t j = 0; j < upper.rows(); ++j) {
    best = std::max(best, std::fabs(upper(j, i)));
  }
  return best;
}

/// A search's scoring trial: `probes` with their nominal outputs, computed
/// once. The search varies only the trial's plan.
exec::Trial scoring_trial(const nn::FeedForwardNetwork& net,
                          std::span<const std::vector<double>> probes) {
  exec::Trial trial;
  trial.probes.assign(probes.begin(), probes.end());
  nn::Workspace ws;
  exec::compute_nominal(net, trial, ws);
  return trial;
}

/// Indices of the `k` largest scores (descending), stable for ties.
std::vector<std::size_t> top_k(const std::vector<double>& scores,
                               std::size_t k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  order.resize(std::min(k, order.size()));
  return order;
}

}  // namespace

FaultPlan random_crash_plan(const nn::FeedForwardNetwork& net,
                            std::span<const std::size_t> counts, Rng& rng) {
  WNF_EXPECTS(counts.size() == net.layer_count());
  FaultPlan plan;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const std::size_t width = net.layer_width(l);
    WNF_EXPECTS(counts[l - 1] <= width);
    for (std::size_t victim : rng.sample_indices(width, counts[l - 1])) {
      plan.neurons.push_back({l, victim, NeuronFaultKind::kCrash, 0.0});
    }
  }
  return plan;
}

FaultPlan top_weight_crash_plan(const nn::FeedForwardNetwork& net,
                                std::span<const std::size_t> counts) {
  WNF_EXPECTS(counts.size() == net.layer_count());
  FaultPlan plan;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const std::size_t width = net.layer_width(l);
    WNF_EXPECTS(counts[l - 1] <= width);
    std::vector<double> scores(width);
    for (std::size_t i = 0; i < width; ++i) {
      scores[i] = outgoing_influence(net, l, i);
    }
    for (std::size_t victim : top_k(scores, counts[l - 1])) {
      plan.neurons.push_back({l, victim, NeuronFaultKind::kCrash, 0.0});
    }
  }
  return plan;
}

FaultPlan random_byzantine_plan(const nn::FeedForwardNetwork& net,
                                std::span<const std::size_t> counts,
                                double capacity, Rng& rng) {
  WNF_EXPECTS(counts.size() == net.layer_count());
  WNF_EXPECTS(capacity > 0.0);
  FaultPlan plan;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const std::size_t width = net.layer_width(l);
    WNF_EXPECTS(counts[l - 1] <= width);
    for (std::size_t victim : rng.sample_indices(width, counts[l - 1])) {
      plan.neurons.push_back(
          {l, victim, NeuronFaultKind::kByzantine, capacity * rng.sign()});
    }
  }
  return plan;
}

FaultPlan gradient_directed_byzantine_plan(const nn::FeedForwardNetwork& net,
                                           std::span<const std::size_t> counts,
                                           double capacity,
                                           std::span<const double> x) {
  WNF_EXPECTS(counts.size() == net.layer_count());
  WNF_EXPECTS(capacity > 0.0);
  const auto trace = net.forward_trace(x);
  const auto gradients = nn::output_gradients(net, trace);
  FaultPlan plan;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const auto& g = gradients[l - 1];
    WNF_EXPECTS(counts[l - 1] <= g.size());
    std::vector<double> scores(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) scores[i] = std::fabs(g[i]);
    for (std::size_t victim : top_k(scores, counts[l - 1])) {
      const double sign = g[victim] >= 0.0 ? 1.0 : -1.0;
      plan.neurons.push_back(
          {l, victim, NeuronFaultKind::kByzantine, capacity * sign});
    }
  }
  return plan;
}

FaultPlan stuck_at_extreme_plan(const nn::FeedForwardNetwork& net,
                                std::span<const std::size_t> counts,
                                std::span<const double> x) {
  WNF_EXPECTS(counts.size() == net.layer_count());
  const auto trace = net.forward_trace(x);
  const auto gradients = nn::output_gradients(net, trace);
  FaultPlan plan;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const auto& g = gradients[l - 1];
    WNF_EXPECTS(counts[l - 1] <= g.size());
    std::vector<double> scores(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      // Achievable first-order damage: |g| * distance to the chosen
      // extreme (freeze at 1 when the gradient is positive, else at 0).
      const double distance = g[i] >= 0.0
                                  ? 1.0 - trace.activations[l][i]
                                  : trace.activations[l][i];
      scores[i] = std::fabs(g[i]) * distance;
    }
    for (std::size_t victim : top_k(scores, counts[l - 1])) {
      const double frozen = g[victim] >= 0.0 ? 1.0 : 0.0;
      plan.neurons.push_back(
          {l, victim, NeuronFaultKind::kStuckAt, frozen});
    }
  }
  return plan;
}

FaultPlan random_synapse_byzantine_plan(const nn::FeedForwardNetwork& net,
                                        std::span<const std::size_t> counts,
                                        double capacity, Rng& rng) {
  WNF_EXPECTS(counts.size() == net.layer_count() + 1);
  WNF_EXPECTS(capacity > 0.0);
  FaultPlan plan;
  for (std::size_t l = 1; l <= net.layer_count() + 1; ++l) {
    // Sparse layers expose only their realised edges to the adversary: the
    // flat sample ranges over CSR offsets instead of the dense receiver x
    // sender cross product (a fault on an absent edge would be rejected by
    // validate_plan). Dense layers keep the historical draw verbatim.
    const nn::LayerTopology* topo =
        l <= net.layer_count() ? net.layer(l).topology() : nullptr;
    const std::size_t senders = l <= net.layer_count()
                                    ? net.layer(l).in_size()
                                    : net.output_weights().size();
    const std::size_t total =
        topo != nullptr
            ? topo->edge_count()
            : (l <= net.layer_count() ? net.layer_width(l) : 1) * senders;
    WNF_EXPECTS(counts[l - 1] <= total);
    for (std::size_t flat : rng.sample_indices(total, counts[l - 1])) {
      const std::size_t to =
          topo != nullptr ? topo->edge_row(flat) : flat / senders;
      const std::size_t from =
          topo != nullptr ? topo->cols()[flat] : flat % senders;
      plan.synapses.push_back({l, to, from, SynapseFaultKind::kByzantine,
                               capacity * rng.sign()});
    }
  }
  return plan;
}

std::size_t combination_count(std::size_t n, std::size_t f) {
  WNF_EXPECTS(f <= n);
  std::size_t result = 1;
  for (std::size_t i = 1; i <= f; ++i) {
    const std::size_t numerator = n - f + i;
    if (result > std::numeric_limits<std::size_t>::max() / numerator) {
      return std::numeric_limits<std::size_t>::max();  // saturate
    }
    result = result * numerator / i;
  }
  return result;
}

FaultPlan exhaustive_worst_crash_plan(
    const nn::FeedForwardNetwork& net, std::size_t layer, std::size_t f,
    std::span<const std::vector<double>> probe_inputs, double& worst_error,
    exec::EvalBackend& backend, std::size_t combination_limit) {
  WNF_EXPECTS(layer >= 1 && layer <= net.layer_count());
  WNF_EXPECTS(&backend.network() == &net);
  const std::size_t width = net.layer_width(layer);
  WNF_EXPECTS(f <= width);
  WNF_EXPECTS(combination_count(width, f) <= combination_limit);

  exec::Trial trial = scoring_trial(net, probe_inputs);
  FaultPlan best_plan;
  worst_error = -1.0;

  // Lexicographic combination enumeration over victim subsets.
  std::vector<std::size_t> victims(f);
  std::iota(victims.begin(), victims.end(), std::size_t{0});
  auto advance = [&]() -> bool {
    if (f == 0) return false;
    std::size_t i = f;
    while (i-- > 0) {
      if (victims[i] + (f - i) < width) {
        ++victims[i];
        for (std::size_t j = i + 1; j < f; ++j) victims[j] = victims[j - 1] + 1;
        return true;
      }
    }
    return false;
  };
  do {
    trial.plan.neurons.clear();
    for (std::size_t victim : victims) {
      trial.plan.neurons.push_back(
          {layer, victim, NeuronFaultKind::kCrash, 0.0});
    }
    const double error = backend.worst_output_error(trial);
    if (error > worst_error) {
      worst_error = error;
      best_plan = trial.plan;
    }
  } while (advance());
  return best_plan;
}

FaultPlan exhaustive_worst_crash_plan(
    const nn::FeedForwardNetwork& net, std::size_t layer, std::size_t f,
    std::span<const std::vector<double>> probe_inputs, double& worst_error,
    std::size_t combination_limit) {
  exec::InjectorBackend backend(net);
  return exhaustive_worst_crash_plan(net, layer, f, probe_inputs, worst_error,
                                     backend, combination_limit);
}

FaultPlan greedy_worst_crash_plan(
    const nn::FeedForwardNetwork& net, std::span<const std::size_t> counts,
    std::span<const std::vector<double>> probes, exec::EvalBackend& backend) {
  WNF_EXPECTS(counts.size() == net.layer_count());
  WNF_EXPECTS(&backend.network() == &net);
  exec::Trial trial = scoring_trial(net, probes);
  FaultPlan& plan = trial.plan;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const std::size_t width = net.layer_width(l);
    WNF_EXPECTS(counts[l - 1] <= width);
    std::vector<bool> killed(width, false);
    for (std::size_t step = 0; step < counts[l - 1]; ++step) {
      double best_error = -1.0;
      std::size_t best_victim = width;
      for (std::size_t candidate = 0; candidate < width; ++candidate) {
        if (killed[candidate]) continue;
        plan.neurons.push_back(
            {l, candidate, NeuronFaultKind::kCrash, 0.0});
        const double error = backend.worst_output_error(trial);
        plan.neurons.pop_back();
        if (error > best_error) {
          best_error = error;
          best_victim = candidate;
        }
      }
      WNF_ASSERT(best_victim < width);
      killed[best_victim] = true;
      plan.neurons.push_back({l, best_victim, NeuronFaultKind::kCrash, 0.0});
    }
  }
  return std::move(trial.plan);
}

FaultPlan greedy_worst_crash_plan(
    const nn::FeedForwardNetwork& net, std::span<const std::size_t> counts,
    std::span<const std::vector<double>> probes) {
  exec::InjectorBackend backend(net);
  return greedy_worst_crash_plan(net, counts, probes, backend);
}

}  // namespace wnf::fault
