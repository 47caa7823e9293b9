#include "dist/sim.hpp"

#include <algorithm>
#include <numeric>

#include "util/contract.hpp"

namespace wnf::dist {
namespace {

/// Assumption 1's channel: |transmitted| <= C; C <= 0 means unbounded.
double channel(double value, double capacity) {
  if (capacity <= 0.0) return value;
  return std::clamp(value, -capacity, capacity);
}

}  // namespace

NetworkSimulator::NetworkSimulator(const nn::FeedForwardNetwork& net,
                                   SimConfig config)
    : net_(net), config_(config), widths_(net.layer_widths()) {
  const std::size_t depth = net_.layer_count();
  latencies_.resize(depth);
  // Both history buffers carry one row per layer from the start so the
  // end-of-run swap always exchanges fully shaped workspaces.
  history_.resize(depth);
  history_next_.resize(depth);
  full_wait_.resize(depth);
  std::size_t max_width = net_.input_dim();
  for (std::size_t l = 1; l <= depth; ++l) {
    latencies_[l - 1].assign(widths_[l - 1], 0.0);
    full_wait_[l - 1] = l == 1 ? net_.input_dim() : widths_[l - 2];
    max_width = std::max(max_width, widths_[l - 1]);
  }
  stragglers_.resize(depth + 1);
  for (auto& row : stragglers_) row.reserve(max_width);
  arrival_.reserve(max_width);
  fire_.reserve(max_width);
  order_.reserve(max_width);
  input_.reserve(net_.input_dim());
  hooks_.pre_activation = [this](std::size_t l,
                                 nn::BlockView<const double> y_prev,
                                 nn::BlockView<double> s) {
    deliver(l, y_prev, s);
  };
  hooks_.post_activation = [this](std::size_t l, nn::BlockView<double> y) {
    transmit(l, y);
  };
}

SimResult NetworkSimulator::evaluate(std::span<const double> x) {
  return run(x, full_wait_, ResetPolicy::kZero);
}

SimResult NetworkSimulator::evaluate_boosted(
    std::span<const double> x, std::span<const std::size_t> wait_counts,
    ResetPolicy policy) {
  return run(x, wait_counts, policy);
}

void NetworkSimulator::set_latencies(
    std::vector<std::vector<double>> latencies) {
  WNF_EXPECTS(latencies.size() == net_.layer_count());
  for (std::size_t l = 1; l <= net_.layer_count(); ++l) {
    WNF_EXPECTS(latencies[l - 1].size() == net_.layer_width(l));
    for (const double latency : latencies[l - 1]) {
      WNF_EXPECTS(latency >= 0.0);
    }
  }
  latencies_ = std::move(latencies);
}

void NetworkSimulator::sample_latencies(const LatencyModel& model, Rng& rng) {
  model.sample_layers_into(widths_, rng, latencies_);
}

void NetworkSimulator::apply_faults(fault::FaultPlan plan) {
  fault::validate_plan(plan, net_);
  plan_ = std::move(plan);
}

void NetworkSimulator::clear_faults() { plan_ = fault::FaultPlan{}; }

void NetworkSimulator::reset_history() {
  // The rows stay allocated (they are workspace); the flag alone gates
  // every hold-last read, so stale values are never observed.
  has_history_ = false;
}

double NetworkSimulator::wait_for(std::size_t wait_count,
                                  std::size_t receivers,
                                  std::vector<std::size_t>& stragglers,
                                  SimResult& result) {
  const std::size_t fan_in = arrival_.size();
  const std::size_t wait = std::min(wait_count, fan_in);
  stragglers.clear();
  double barrier = 0.0;
  if (wait >= fan_in) {
    for (const double t : arrival_) barrier = std::max(barrier, t);
    return barrier;
  }
  // Every receiver hears the same senders at the same times, so they share
  // one wait set: the `wait` earliest arrivals (ties broken by sender
  // index). Stragglers past the cut are reset.
  order_.resize(fan_in);
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return arrival_[a] < arrival_[b];
                   });
  for (std::size_t k = 0; k < wait; ++k) {
    barrier = std::max(barrier, arrival_[order_[k]]);
  }
  stragglers.assign(order_.begin() + wait, order_.end());
  // Each receiver tells each straggler to stand down.
  result.resets_sent += (fan_in - wait) * receivers;
  return barrier;
}

void NetworkSimulator::substitute_stragglers(std::size_t l,
                                             std::span<double> y) const {
  // Corollary 2 reads a straggler as 0; hold-last reuses what it sent last
  // time (input clients, l = 1, keep no history).
  const std::vector<double>* history =
      policy_ == ResetPolicy::kHoldLast && has_history_ && l >= 2
          ? &history_[l - 2]
          : nullptr;
  for (const std::size_t i : stragglers_[l - 1]) {
    y[i] = history != nullptr ? (*history)[i] : 0.0;
  }
}

void NetworkSimulator::deliver(std::size_t l,
                               nn::BlockView<const double> y_prev_block,
                               nn::BlockView<double> s_block) const {
  const nn::LayerTopology* topo =
      l <= net_.layer_count() ? net_.layer(l).topology() : nullptr;
  if (topo != nullptr && topo->has_edge_capacities()) {
    const std::span<const double> y_prev = y_prev_block.values();
    const std::span<double> s = s_block.values();
    // Per-edge channels clamp what each edge delivers (receiver side, on
    // top of the sender-side global C), so the layer's rows are recomputed
    // through them. With uniform non-binding capacities this accumulates
    // term for term like gemv_csr, so the two are bit-identical.
    const auto& layer = net_.layer(l);
    const auto row_ptr = topo->row_ptr();
    const auto cols = topo->cols();
    const auto caps = topo->edge_capacities();
    const auto bias = layer.bias();
    for (std::size_t j = 0; j < s.size(); ++j) {
      double sum = 0.0;
      for (std::size_t e = row_ptr[j]; e < row_ptr[j + 1]; ++e) {
        sum += layer.weights()(j, cols[e]) * channel(y_prev[cols[e]], caps[e]);
      }
      s[j] = sum;
      s[j] += bias[j];
    }
  }
  fault::apply_synapse_faults(plan_, net_, l, y_prev_block, s_block,
                              /*edge_channels=*/true);
}

void NetworkSimulator::transmit(std::size_t l, nn::BlockView<double> block) {
  // Messages carry no nominal trace, so a perturbing neuron perturbs y.
  fault::apply_neuron_faults(plan_, l, block, block);
  const std::span<double> y = block.values();
  const double capacity = config_.capacity;  // a local: `y` cannot alias it
  for (double& v : y) v = channel(v, capacity);
  history_next_[l - 1].assign(y.begin(), y.end());
  substitute_stragglers(l + 1, y);  // what layer l+1 (or the output) reads
}

SimResult NetworkSimulator::run(std::span<const double> x,
                                std::span<const std::size_t> wait_counts,
                                ResetPolicy policy) {
  WNF_EXPECTS(x.size() == net_.input_dim());
  const std::size_t depth = net_.layer_count();
  WNF_EXPECTS(wait_counts.size() == depth || wait_counts.size() == depth + 1);

  // When: every receiver set's wait set and every fire time. No value is
  // needed — a crashed or Byzantine neuron fires at t = 0 whatever it
  // sends. Input clients all arrive at t = 0.
  SimResult result;
  result.layer_fire_times.reserve(depth);
  arrival_.assign(x.size(), 0.0);
  for (std::size_t l = 1; l <= depth; ++l) {
    const double barrier =
        wait_for(wait_counts[l - 1], widths_[l - 1], stragglers_[l - 1],
                 result);
    fire_.resize(widths_[l - 1]);
    for (std::size_t j = 0; j < fire_.size(); ++j) {
      fire_[j] = barrier + latencies_[l - 1][j];
    }
    for (const auto& fault : plan_.neurons) {
      // A crashed process delays nobody and a Byzantine one does not
      // compute: both fire at t = 0. A stuck-at neuron keeps its clock.
      if (fault.layer == l && fault.kind != fault::NeuronFaultKind::kStuckAt) {
        fire_[fault.neuron] = 0.0;
      }
    }
    double layer_fire = 0.0;
    for (const double t : fire_) layer_fire = std::max(layer_fire, t);
    result.layer_fire_times.push_back(layer_fire);
    std::swap(arrival_, fire_);
  }
  // The output node is a client: it waits for all of layer L — or, when a
  // top-layer cut is active (an (L+1)-th wait count), only for the earliest
  // senders, resetting the rest per `policy`.
  const std::size_t out_wait =
      wait_counts.size() == depth + 1 ? wait_counts[depth] : arrival_.size();
  result.completion_time = wait_for(out_wait, 1, stragglers_[depth], result);

  // What: the network's one forward pass, through deliver() and transmit().
  policy_ = policy;
  if (!stragglers_[0].empty()) {
    input_.assign(x.begin(), x.end());
    substitute_stragglers(1, input_);
    x = input_;
  }
  result.output = net_.evaluate_hooked(x, hooks_, workspace_);

  std::swap(history_, history_next_);
  has_history_ = true;
  return result;
}

}  // namespace wnf::dist
