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
  latencies_.assign(net_.neuron_count(), 0.0);
  // Both history buffers carry one row per layer from the start so the
  // end-of-run swap always exchanges fully shaped workspaces.
  history_.resize(depth);
  history_next_.resize(depth);
  full_wait_.resize(depth);
  std::size_t max_width = net_.input_dim();
  for (std::size_t l = 1; l <= depth; ++l) {
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
  auto at = latencies_.begin();
  for (const auto& layer : latencies) {
    at = std::copy(layer.begin(), layer.end(), at);
  }
}

void NetworkSimulator::sample_latencies(const LatencyModel& model, Rng& rng) {
  model.sample_block_into(widths_, {&rng, 1}, latencies_);
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
                                             nn::BlockView<double> y) const {
  // Corollary 2 reads a straggler as 0; hold-last reuses what it sent last
  // time (input clients, l = 1, keep no history).
  const std::vector<double>* history =
      policy_ == ResetPolicy::kHoldLast && has_history_ && l >= 2
          ? &history_[l - 2]
          : nullptr;
  const std::size_t probes = y.probes();
  const std::size_t sets = widths_.size() + 1;
  const std::span<double> values = y.values();
  for (std::size_t p = 0; p < probes; ++p) {
    for (const std::size_t i : stragglers_[p * sets + l - 1]) {
      values[i * probes + p] = history != nullptr ? (*history)[i] : 0.0;
    }
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
    const std::size_t probes = s_block.probes();
    // Per-edge channels clamp what each edge delivers (receiver side, on
    // top of the sender-side global C), so the layer's rows are recomputed
    // through them, probe by probe. With uniform non-binding capacities
    // this accumulates term for term like gemv_csr, so the two are
    // bit-identical.
    const auto& layer = net_.layer(l);
    const auto row_ptr = topo->row_ptr();
    const auto cols = topo->cols();
    const auto caps = topo->edge_capacities();
    const auto bias = layer.bias();
    for (std::size_t j = 0; j < layer.out_size(); ++j) {
      for (std::size_t p = 0; p < probes; ++p) {
        double sum = 0.0;
        for (std::size_t e = row_ptr[j]; e < row_ptr[j + 1]; ++e) {
          sum += layer.weights()(j, cols[e]) *
                 channel(y_prev[cols[e] * probes + p], caps[e]);
        }
        double& out = s[j * probes + p];
        out = sum;
        out += bias[j];
      }
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
  if (record_history_) history_next_[l - 1].assign(y.begin(), y.end());
  substitute_stragglers(l + 1, block);  // what layer l+1 (or the output) reads
}

void NetworkSimulator::time_request(std::size_t p,
                                    std::span<const double> latencies,
                                    std::span<const std::size_t> wait_counts,
                                    SimResult& result,
                                    std::vector<double>* fire_times) {
  // When: every receiver set's wait set and every fire time. No value is
  // needed — a crashed or Byzantine neuron fires at t = 0 whatever it
  // sends. Input clients all arrive at t = 0.
  const std::size_t depth = widths_.size();
  std::vector<std::size_t>* stragglers = &stragglers_[p * (depth + 1)];
  arrival_.assign(net_.input_dim(), 0.0);
  for (std::size_t l = 1; l <= depth; ++l) {
    const double barrier =
        wait_for(wait_counts[l - 1], widths_[l - 1], stragglers[l - 1],
                 result);
    fire_.resize(widths_[l - 1]);
    for (std::size_t j = 0; j < fire_.size(); ++j) {
      fire_[j] = barrier + latencies[j];
    }
    latencies = latencies.subspan(fire_.size());
    for (const auto& fault : plan_.neurons) {
      // A crashed process delays nobody and a Byzantine one does not
      // compute: both fire at t = 0. A stuck-at neuron keeps its clock.
      if (fault.layer == l && fault.kind != fault::NeuronFaultKind::kStuckAt) {
        fire_[fault.neuron] = 0.0;
      }
    }
    if (fire_times != nullptr) {
      double layer_fire = 0.0;
      for (const double t : fire_) layer_fire = std::max(layer_fire, t);
      fire_times->push_back(layer_fire);
    }
    std::swap(arrival_, fire_);
  }
  // The output node is a client: it waits for all of layer L — or, when a
  // top-layer cut is active (an (L+1)-th wait count), only for the earliest
  // senders, resetting the rest.
  const std::size_t out_wait =
      wait_counts.size() == depth + 1 ? wait_counts[depth] : arrival_.size();
  result.completion_time = wait_for(out_wait, 1, stragglers[depth], result);
}

SimResult NetworkSimulator::run(std::span<const double> x,
                                std::span<const std::size_t> wait_counts,
                                ResetPolicy policy) {
  WNF_EXPECTS(x.size() == net_.input_dim());
  const std::size_t depth = net_.layer_count();
  WNF_EXPECTS(wait_counts.size() == depth || wait_counts.size() == depth + 1);
  SimResult result;
  result.layer_fire_times.reserve(depth);
  time_request(0, latencies_, wait_counts, result, &result.layer_fire_times);

  // What: the network's one forward pass, through deliver() and transmit().
  policy_ = policy;
  if (!stragglers_[0].empty()) {
    input_.assign(x.begin(), x.end());
    substitute_stragglers(1, {input_, 1});
    x = input_;
  }
  result.output = net_.evaluate_hooked(x, hooks_, workspace_);

  std::swap(history_, history_next_);
  has_history_ = true;
  return result;
}

void NetworkSimulator::evaluate_block(
    std::span<const std::span<const double>> inputs, std::span<Rng> streams,
    const LatencyModel& model, std::span<const std::size_t> wait_counts,
    std::span<SimResult> out) {
  const std::size_t probes = inputs.size();
  const std::size_t depth = widths_.size();
  const std::size_t dim = net_.input_dim();
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(streams.size() == probes && out.size() == probes);
  if (wait_counts.empty()) wait_counts = full_wait_;
  WNF_EXPECTS(wait_counts.size() == depth || wait_counts.size() == depth + 1);

  // The block's buffers grow on first use and are reused after.
  const std::size_t neurons = latencies_.size();
  block_latencies_.resize(probes * neurons);
  if (stragglers_.size() < probes * (depth + 1)) {
    stragglers_.resize(probes * (depth + 1));
  }
  model.sample_block_into(widths_, streams, block_latencies_);
  for (std::size_t p = 0; p < probes; ++p) {
    out[p].resets_sent = 0;
    out[p].layer_fire_times.clear();
    time_request(p, {block_latencies_.data() + p * neurons, neurons},
                 wait_counts, out[p], nullptr);
  }

  // One forward pass over the block, each request one probe of it.
  input_.resize(dim * probes);
  for (std::size_t p = 0; p < probes; ++p) {
    WNF_EXPECTS(inputs[p].size() == dim);
    for (std::size_t i = 0; i < dim; ++i) {
      input_[i * probes + p] = inputs[p][i];
    }
  }
  policy_ = ResetPolicy::kZero;
  substitute_stragglers(1, {input_, probes});
  block_output_.resize(probes);
  record_history_ = false;
  net_.evaluate_hooked(input_, hooks_, workspace_, block_output_);
  record_history_ = true;
  has_history_ = false;
  for (std::size_t p = 0; p < probes; ++p) out[p].output = block_output_[p];
}

}  // namespace wnf::dist
