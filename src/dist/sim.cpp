#include "dist/sim.hpp"

#include <algorithm>
#include <numeric>

#include "tensor/ops.hpp"
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
  sent_.reserve(max_width);
  arrival_.reserve(max_width);
  incoming_.reserve(max_width);
  preact_.reserve(max_width);
  value_.reserve(max_width);
  fire_.reserve(max_width);
  order_.reserve(max_width);
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

double NetworkSimulator::cut_stragglers(std::size_t wait_count,
                                        std::size_t receivers,
                                        const std::vector<double>* history_row,
                                        ResetPolicy policy, SimResult& result,
                                        const std::vector<double>** inputs) {
  const std::size_t fan_in = sent_.size();
  const std::size_t wait = std::min(wait_count, fan_in);
  double barrier = 0.0;
  if (wait >= fan_in) {
    for (const double t : arrival_) barrier = std::max(barrier, t);
    *inputs = &sent_;
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
  incoming_ = sent_;
  for (std::size_t k = 0; k < wait; ++k) {
    barrier = std::max(barrier, arrival_[order_[k]]);
  }
  for (std::size_t k = wait; k < fan_in; ++k) {
    const std::size_t cut = order_[k];
    double substitute = 0.0;  // Corollary 2: read the straggler as 0
    if (policy == ResetPolicy::kHoldLast && has_history_ &&
        history_row != nullptr) {
      substitute = (*history_row)[cut];
    }
    incoming_[cut] = substitute;
  }
  // Each receiver tells each straggler to stand down.
  result.resets_sent += (fan_in - wait) * receivers;
  *inputs = &incoming_;
  return barrier;
}

SimResult NetworkSimulator::run(std::span<const double> x,
                                std::span<const std::size_t> wait_counts,
                                ResetPolicy policy) {
  WNF_EXPECTS(x.size() == net_.input_dim());
  const std::size_t depth = net_.layer_count();
  WNF_EXPECTS(wait_counts.size() == depth || wait_counts.size() == depth + 1);

  SimResult result;
  result.layer_fire_times.reserve(depth);

  // State entering each round: what every sender of the previous set
  // transmitted and when it arrived. Input clients all arrive at t = 0.
  sent_.assign(x.begin(), x.end());
  arrival_.assign(x.size(), 0.0);

  for (std::size_t l = 1; l <= depth; ++l) {
    const auto& layer = net_.layer(l);
    const std::size_t width = layer.out_size();
    const std::vector<double>* hist =
        has_history_ && l >= 2 ? &history_[l - 2] : nullptr;
    const std::vector<double>* inputs = nullptr;
    const double barrier =
        cut_stragglers(wait_counts[l - 1], width, hist, policy, result,
                       &inputs);

    // Pre-activations via the same affine kernel as the matrix path (sparse
    // layers take the CSR route inside affine, so messages only travel along
    // existing edges), then synapse faults exactly as Injector's
    // pre_activation hook applies them. A topology carrying per-edge
    // capacities switches to an explicit CSR loop that clamps what each edge
    // delivers (receiver side, on top of the sender-side global C); with
    // uniform non-binding capacities the loop accumulates term-for-term like
    // gemv_csr, so the two paths are bit-identical.
    preact_.resize(width);
    const nn::LayerTopology* topo = layer.topology();
    const bool edge_caps = topo != nullptr && topo->has_edge_capacities();
    if (edge_caps) {
      const auto row_ptr = topo->row_ptr();
      const auto cols = topo->cols();
      const auto caps = topo->edge_capacities();
      const auto bias = layer.bias();
      for (std::size_t j = 0; j < width; ++j) {
        double sum = 0.0;
        for (std::size_t e = row_ptr[j]; e < row_ptr[j + 1]; ++e) {
          sum += layer.weights()(j, cols[e]) *
                 channel((*inputs)[cols[e]], caps[e]);
        }
        preact_[j] = sum;
        preact_[j] += bias[j];
      }
    } else {
      layer.affine(*inputs, preact_);
    }
    for (const auto& fault : plan_.synapses) {
      if (fault.layer != l) continue;
      const double weight = layer.weights()(fault.to, fault.from);
      if (fault.kind == fault::SynapseFaultKind::kCrash) {
        // edge delivers nothing: subtract what it actually delivered
        double delivered = (*inputs)[fault.from];
        if (edge_caps) {
          const std::size_t e = topo->edge_offset(fault.to, fault.from);
          if (e != nn::LayerTopology::npos) {
            delivered = channel(delivered, topo->edge_capacity(e));
          }
        }
        preact_[fault.to] -= weight * delivered;
      } else {
        preact_[fault.to] += weight * fault.value;  // edge sends w*(y + value)
      }
    }

    // Fire: activation on the local clock, then neuron faults, then the
    // capacity-C channel on every transmitted value.
    value_.resize(width);
    fire_.resize(width);
    net_.activation().apply(preact_, value_);
    for (std::size_t j = 0; j < width; ++j) {
      fire_[j] = barrier + latencies_[l - 1][j];
    }
    for (const auto& fault : plan_.neurons) {
      if (fault.layer != l) continue;
      switch (fault.kind) {
        case fault::NeuronFaultKind::kCrash:
          value_[fault.neuron] = 0.0;  // Definition 2: peers read 0
          fire_[fault.neuron] = 0.0;   // a silent process delays nobody
          break;
        case fault::NeuronFaultKind::kByzantine:
          // An attacker does not compute; it fires immediately. Under the
          // perturbation convention it perturbs its own (possibly already
          // damaged) value — messages carry no nominal trace.
          value_[fault.neuron] =
              plan_.convention ==
                      theory::CapacityConvention::kPerturbationBound
                  ? value_[fault.neuron] + fault.value
                  : fault.value;
          fire_[fault.neuron] = 0.0;
          break;
        case fault::NeuronFaultKind::kStuckAt:
          value_[fault.neuron] = fault.value;  // frozen value, normal clock
          break;
      }
    }
    for (double& v : value_) v = channel(v, config_.capacity);

    double layer_fire = 0.0;
    for (const double t : fire_) layer_fire = std::max(layer_fire, t);
    result.layer_fire_times.push_back(layer_fire);

    history_next_[l - 1] = value_;
    std::swap(sent_, value_);
    std::swap(arrival_, fire_);
  }

  // The output node is a client: it waits for all of layer L — or, when a
  // top-layer cut is active (an (L+1)-th wait count), only for the earliest
  // senders, resetting the rest per `policy` — and sums the (L+1)-th
  // synapse set, which is part of the network and can fail.
  const std::size_t out_wait =
      wait_counts.size() == depth + 1 ? wait_counts[depth] : sent_.size();
  const std::vector<double>* out_hist =
      has_history_ && depth >= 1 ? &history_[depth - 1] : nullptr;
  const std::vector<double>* out_inputs = nullptr;
  const double out_barrier =
      cut_stragglers(out_wait, 1, out_hist, policy, result, &out_inputs);

  double out = dot({out_inputs->data(), out_inputs->size()},
                   {net_.output_weights().data(),
                    net_.output_weights().size()}) +
               net_.output_bias();
  for (const auto& fault : plan_.synapses) {
    if (fault.layer != depth + 1) continue;
    const double weight = net_.output_weights()[fault.from];
    if (fault.kind == fault::SynapseFaultKind::kCrash) {
      out -= weight * (*out_inputs)[fault.from];
    } else {
      out += weight * fault.value;
    }
  }
  result.output = out;
  result.completion_time = out_barrier;

  std::swap(history_, history_next_);
  has_history_ = true;
  return result;
}

}  // namespace wnf::dist
