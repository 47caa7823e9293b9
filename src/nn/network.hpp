// The paper's multilayer perceptron (Section II-A, Equations 1-3):
//
//   Fneu(X) = sum_i w^(L+1)_i y^(L)_i (X)        (linear output node)
//   y^(l)_j = phi(s^(l)_j),  y^(0)_j = x_j
//   s^(l)_j = sum_i w^(l)_{ji} y^(l-1)_i (+ constant-neuron bias)
//
// Input nodes and the output node are *clients*, not part of the network
// (Fig. 1); the (L+1)-th set of synapses (output weights) IS part of the
// network. All theory code indexes layers 1..L as in the paper.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "nn/layer.hpp"

namespace wnf::nn {

/// Mutation hooks threaded through a forward pass. This is the seam the
/// fault injector, the message simulator (both through the shared fault
/// functions fault::apply_synapse_faults and fault::apply_neuron_faults),
/// training's dropout and the fixed-point quantiser plug into, so the
/// forward code has exactly one implementation: evaluate_hooked.
struct ForwardHooks {
  /// Called after s^(l) = W^(l) y^(l-1) + b is computed, before phi.
  /// l runs over 1..L for hidden layers and L+1 for the output node (where
  /// `s` has size 1). Mutating `s` models synapse-level faults (and the
  /// simulator's per-edge channels).
  std::function<void(std::size_t l, std::span<const double> y_prev,
                     std::span<double> s)>
      pre_activation;

  /// Called after y^(l) = phi(s^(l)), l in 1..L; layer l+1 reads the
  /// result. Mutating `y` models neuron-level faults (crash: y[j] = 0;
  /// Byzantine: y[j] += lambda), reduced-precision implementations
  /// (quantise y), dropout, and the simulator's clamp and cuts.
  std::function<void(std::size_t l, std::span<double> y)> post_activation;
};

/// Full record of one forward pass (needed by backprop and by the
/// empirical-Lipschitz and boosting analyses).
struct ForwardTrace {
  std::vector<std::vector<double>> preactivations;  ///< s^(1..L), 0-indexed
  std::vector<std::vector<double>> activations;     ///< y^(0..L), y^(0) = X
  double output = 0.0;
};

/// Reusable buffers so steady-state evaluation performs no allocation.
class Workspace {
 public:
  std::vector<double>& buffer_a() { return a_; }
  std::vector<double>& buffer_b() { return b_; }

 private:
  std::vector<double> a_;
  std::vector<double> b_;
};

/// Feed-forward network with L hidden layers and a linear output node.
class FeedForwardNetwork {
 public:
  FeedForwardNetwork() = default;

  /// `input_dim` = d, `hidden` owns layers 1..L in order, `output_weights`
  /// are w^(L+1) (size N_L), `activation` is shared by every hidden layer
  /// (the paper's single-phi model).
  FeedForwardNetwork(std::size_t input_dim, std::vector<DenseLayer> hidden,
                     std::vector<double> output_weights, double output_bias,
                     Activation activation);

  std::size_t input_dim() const { return input_dim_; }

  /// L, the number of hidden layers.
  std::size_t layer_count() const { return hidden_.size(); }

  /// N_l for l in 1..L.
  std::size_t layer_width(std::size_t l) const;

  /// All N_l in order (size L).
  std::vector<std::size_t> layer_widths() const;

  /// Total neuron count sum_l N_l.
  std::size_t neuron_count() const;

  /// Total number of synapses (weights + biases + output weights).
  std::size_t synapse_count() const;

  /// Hidden layer l (1-based, matching the paper).
  DenseLayer& layer(std::size_t l);
  const DenseLayer& layer(std::size_t l) const;

  std::vector<double>& output_weights() { return output_weights_; }
  const std::vector<double>& output_weights() const { return output_weights_; }
  double& output_bias() { return output_bias_; }
  double output_bias() const { return output_bias_; }

  const Activation& activation() const { return activation_; }
  /// Replaces the activation (keeping weights); used by K-sweeps.
  void set_activation(Activation activation) { activation_ = activation; }

  /// w^(l)_m for l in 1..L+1 (L+1 selects the output weights).
  double weight_max(std::size_t l, WeightMaxConvention convention) const;

  /// All w^(l)_m, l = 1..L+1 (size L+1).
  std::vector<double> weight_maxima(WeightMaxConvention convention) const;

  /// Fneu(X): evaluate_hooked with no hooks. Allocation-free when reusing
  /// `ws` across calls.
  double evaluate(std::span<const double> x, Workspace& ws) const;

  /// Convenience overload (allocates).
  double evaluate(std::span<const double> x) const;

  /// Fneu(X) with fault/precision hooks applied (see ForwardHooks).
  double evaluate_hooked(std::span<const double> x, const ForwardHooks& hooks,
                         Workspace& ws) const;

  /// Full trace for backprop / analysis, recorded through the hooks.
  ForwardTrace forward_trace(std::span<const double> x) const;

  /// Structural + numeric equality within `tol` (serialization tests).
  bool approx_equal(const FeedForwardNetwork& other, double tol) const;

 private:
  std::size_t input_dim_ = 0;
  std::vector<DenseLayer> hidden_;
  std::vector<double> output_weights_;
  double output_bias_ = 0.0;
  Activation activation_;
};

}  // namespace wnf::nn
