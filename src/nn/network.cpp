#include "nn/network.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/contract.hpp"

namespace wnf::nn {

FeedForwardNetwork::FeedForwardNetwork(std::size_t input_dim,
                                       std::vector<DenseLayer> hidden,
                                       std::vector<double> output_weights,
                                       double output_bias,
                                       Activation activation)
    : input_dim_(input_dim),
      hidden_(std::move(hidden)),
      output_weights_(std::move(output_weights)),
      output_bias_(output_bias),
      activation_(activation) {
  WNF_EXPECTS(input_dim_ > 0);
  WNF_EXPECTS(!hidden_.empty());
  std::size_t prev = input_dim_;
  for (const auto& layer : hidden_) {
    WNF_EXPECTS(layer.in_size() == prev);
    prev = layer.out_size();
  }
  WNF_EXPECTS(output_weights_.size() == prev);
}

std::size_t FeedForwardNetwork::layer_width(std::size_t l) const {
  WNF_EXPECTS(l >= 1 && l <= hidden_.size());
  return hidden_[l - 1].out_size();
}

std::vector<std::size_t> FeedForwardNetwork::layer_widths() const {
  std::vector<std::size_t> widths;
  widths.reserve(hidden_.size());
  for (const auto& layer : hidden_) widths.push_back(layer.out_size());
  return widths;
}

std::size_t FeedForwardNetwork::neuron_count() const {
  std::size_t total = 0;
  for (const auto& layer : hidden_) total += layer.out_size();
  return total;
}

std::size_t FeedForwardNetwork::synapse_count() const {
  std::size_t total = output_weights_.size() + 1;  // + output bias
  for (const auto& layer : hidden_) {
    total += layer.edge_count() + layer.out_size();  // realised edges + bias
  }
  return total;
}

DenseLayer& FeedForwardNetwork::layer(std::size_t l) {
  WNF_EXPECTS(l >= 1 && l <= hidden_.size());
  return hidden_[l - 1];
}

const DenseLayer& FeedForwardNetwork::layer(std::size_t l) const {
  WNF_EXPECTS(l >= 1 && l <= hidden_.size());
  return hidden_[l - 1];
}

double FeedForwardNetwork::weight_max(std::size_t l,
                                      WeightMaxConvention convention) const {
  WNF_EXPECTS(l >= 1 && l <= hidden_.size() + 1);
  if (l <= hidden_.size()) return hidden_[l - 1].weight_max(convention);
  double best = max_abs({output_weights_.data(), output_weights_.size()});
  if (convention == WeightMaxConvention::kIncludeBias) {
    best = std::max(best, std::fabs(output_bias_));
  }
  return best;
}

std::vector<double> FeedForwardNetwork::weight_maxima(
    WeightMaxConvention convention) const {
  std::vector<double> maxima;
  maxima.reserve(hidden_.size() + 1);
  for (std::size_t l = 1; l <= hidden_.size() + 1; ++l) {
    maxima.push_back(weight_max(l, convention));
  }
  return maxima;
}

double FeedForwardNetwork::evaluate(std::span<const double> x,
                                    Workspace& ws) const {
  return evaluate_hooked(x, {}, ws);
}

double FeedForwardNetwork::evaluate(std::span<const double> x) const {
  Workspace ws;
  return evaluate(x, ws);
}

double FeedForwardNetwork::evaluate_hooked(std::span<const double> x,
                                           const ForwardHooks& hooks,
                                           Workspace& ws) const {
  double out = 0.0;
  evaluate_hooked(x, hooks, ws, {&out, 1});
  return out;
}

void FeedForwardNetwork::evaluate_hooked(std::span<const double> x,
                                         const ForwardHooks& hooks,
                                         Workspace& ws,
                                         std::span<double> out) const {
  const std::size_t probes = out.size();
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(x.size() == input_dim_ * probes);
  auto& current = ws.buffer_a();
  auto& next = ws.buffer_b();
  current.assign(x.begin(), x.end());
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    const auto& layer = hidden_[i];
    const std::size_t l = i + 1;  // paper layer index
    next.resize(layer.out_size() * probes);
    layer.affine(current, next, probes);
    if (hooks.pre_activation) {
      hooks.pre_activation(l, {current, probes}, {next, probes});
    }
    activation_.apply(next, next);
    if (hooks.post_activation) hooks.post_activation(l, {next, probes});
    std::swap(current, next);
  }
  if (probes == 1) {
    out[0] = dot(current, output_weights_);
  } else {
    dot_block(output_weights_, current, probes, out);
  }
  for (double& value : out) value += output_bias_;
  if (hooks.pre_activation) {
    hooks.pre_activation(hidden_.size() + 1, {current, probes}, {out, probes});
  }
}

ForwardTrace FeedForwardNetwork::forward_trace(
    std::span<const double> x) const {
  ForwardTrace trace;
  trace.activations.emplace_back(x.begin(), x.end());
  ForwardHooks hooks;
  hooks.pre_activation = [this, &trace](std::size_t l,
                                        BlockView<const double>,
                                        BlockView<double> s) {
    if (l <= layer_count()) {  // l = L+1 is the output node
      trace.preactivations.emplace_back(s.values().begin(), s.values().end());
    }
  };
  hooks.post_activation = [&trace](std::size_t, BlockView<double> y) {
    trace.activations.emplace_back(y.values().begin(), y.values().end());
  };
  Workspace ws;
  trace.output = evaluate_hooked(x, hooks, ws);
  return trace;
}

std::span<const double> Workspace::pack(
    std::span<const std::vector<double>> probes) {
  const std::size_t count = probes.size();
  const std::size_t dim = probes.empty() ? 0 : probes.front().size();
  inputs_.resize(dim * count);
  for (std::size_t p = 0; p < count; ++p) {
    WNF_EXPECTS(probes[p].size() == dim);
    for (std::size_t i = 0; i < dim; ++i) inputs_[i * count + p] = probes[p][i];
  }
  return inputs_;
}

bool FeedForwardNetwork::approx_equal(const FeedForwardNetwork& other,
                                      double tol) const {
  if (input_dim_ != other.input_dim_ ||
      hidden_.size() != other.hidden_.size() ||
      output_weights_.size() != other.output_weights_.size() ||
      activation_.kind() != other.activation_.kind() ||
      std::fabs(activation_.lipschitz() - other.activation_.lipschitz()) >
          tol ||
      std::fabs(output_bias_ - other.output_bias_) > tol) {
    return false;
  }
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    if (!hidden_[i].weights().approx_equal(other.hidden_[i].weights(), tol)) {
      return false;
    }
    for (std::size_t j = 0; j < hidden_[i].out_size(); ++j) {
      if (std::fabs(hidden_[i].bias()[j] - other.hidden_[i].bias()[j]) > tol) {
        return false;
      }
    }
    if (hidden_[i].receptive_field() != other.hidden_[i].receptive_field()) {
      return false;
    }
    const LayerTopology* mine = hidden_[i].topology();
    const LayerTopology* theirs = other.hidden_[i].topology();
    if ((mine == nullptr) != (theirs == nullptr)) return false;
    if (mine != nullptr && !(*mine == *theirs)) return false;
  }
  for (std::size_t i = 0; i < output_weights_.size(); ++i) {
    if (std::fabs(output_weights_[i] - other.output_weights_[i]) > tol) {
      return false;
    }
  }
  return true;
}

}  // namespace wnf::nn
