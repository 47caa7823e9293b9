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
#include <type_traits>
#include <vector>

#include "nn/activation.hpp"
#include "nn/layer.hpp"

namespace wnf::nn {

/// One layer's values for a block of probes, stored probe-minor: row j
/// (neuron j, or the output node's single row) holds its `probes()` values
/// contiguously, at [j * probes(), (j + 1) * probes()). A one-probe block
/// is the layer's plain vector: values()[j] is neuron j.
template <typename T>
class BlockView {
 public:
  BlockView(std::span<T> values, std::size_t probes)
      : values_(values), probes_(probes) {}

  /// A read-only view of a mutable block.
  template <typename U>
    requires std::is_same_v<const U, T> && (!std::is_same_v<U, T>)
  BlockView(BlockView<U> other)
      : values_(other.values()), probes_(other.probes()) {}

  std::size_t probes() const { return probes_; }
  /// Row j's value for every probe of the block.
  std::span<T> row(std::size_t j) const {
    return values_.subspan(j * probes_, probes_);
  }
  /// Every value, row after row.
  std::span<T> values() const { return values_; }

 private:
  std::span<T> values_;
  std::size_t probes_;
};

/// Mutation hooks threaded through a forward pass. This is the seam the
/// fault injector, the message simulator (both through the shared fault
/// functions fault::apply_synapse_faults and fault::apply_neuron_faults),
/// training's dropout and the fixed-point quantiser plug into, so the
/// forward code has exactly one implementation: evaluate_hooked. Hooks see
/// the pass's whole probe block; every one-probe pass hands them one-probe
/// blocks.
struct ForwardHooks {
  /// Called after s^(l) = W^(l) y^(l-1) + b is computed, before phi.
  /// l runs over 1..L for hidden layers and L+1 for the output node (where
  /// `s` has one row). Mutating `s` models synapse-level faults (and the
  /// simulator's per-edge channels).
  std::function<void(std::size_t l, BlockView<const double> y_prev,
                     BlockView<double> s)>
      pre_activation;

  /// Called after y^(l) = phi(s^(l)), l in 1..L; layer l+1 reads the
  /// result. Mutating `y` models neuron-level faults (crash: row j = 0;
  /// Byzantine: row j += lambda), reduced-precision implementations
  /// (quantise y), dropout, and the simulator's clamp and cuts.
  std::function<void(std::size_t l, BlockView<double> y)> post_activation;
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

  /// Packs `probes` (all of one width) into this workspace's input block,
  /// probe-minor: coordinate i of probe p lands at [i * P + p], the layout
  /// evaluate_hooked's block form reads. The view lives until the next
  /// pack.
  std::span<const double> pack(std::span<const std::vector<double>> probes);

  /// Per-layer blocks a hooked pass may record for a later pass to read
  /// (the Injector's nominal activations); evaluate_hooked never touches
  /// them.
  std::vector<std::vector<double>>& layers() { return layers_; }

 private:
  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<double> inputs_;
  std::vector<std::vector<double>> layers_;
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

  /// Fneu(X) with fault/precision hooks applied (see ForwardHooks): the
  /// block form below over one probe.
  double evaluate_hooked(std::span<const double> x, const ForwardHooks& hooks,
                         Workspace& ws) const;

  /// Fneu for a block of P = out.size() probes in one forward pass, with
  /// hooks. `x` holds the probes probe-minor (x[i * P + p] is coordinate i
  /// of probe p; Workspace::pack builds it), every layer's values travel
  /// the same way, and out[p] receives probe p's output. Each out[p] is
  /// bit-identical to a one-probe pass over probe p under the same hooks'
  /// row operations. One probe runs gemv/gemv_csr and dot; more run their
  /// block kernels. This is the network's one layer loop.
  void evaluate_hooked(std::span<const double> x, const ForwardHooks& hooks,
                       Workspace& ws, std::span<double> out) const;

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
