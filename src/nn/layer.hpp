// One hidden layer of the paper's model: the synapse block W^(l) feeding
// layer l plus the bias realised through the constant-neuron convention
// (paper footnote 4).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "nn/topology.hpp"
#include "tensor/matrix.hpp"

namespace wnf::nn {

/// Whether the paper's w^(l)_m (max |weight| into layer l) should range over
/// bias weights too. Under the constant-neuron convention the bias *is* a
/// synapse weight, so kIncludeBias is the faithful reading; kExcludeBias is
/// provided because several follow-up works read w_m over non-constant
/// synapses only. Ablated in bench_thm2_fep_tightness.
enum class WeightMaxConvention { kIncludeBias, kExcludeBias };

/// Dense synapse block: `weights(j, i)` is w^(l)_{ji}, `bias[j]` the weight
/// from the constant neuron of layer l-1 to neuron j of layer l.
///
/// A layer may carry a sparse `LayerTopology`. The dense `Matrix` stays the
/// single source of truth for weight values; the topology is structure-only,
/// with every non-edge weight held at exactly 0.0 (`mask_to_topology`). The
/// forward path then iterates CSR rows instead of the full block -- the two
/// kernels accumulate identically, so attaching a topology never changes a
/// network's outputs, only the work done to compute them.
class DenseLayer {
 public:
  DenseLayer() = default;

  /// `out_size` x `in_size` block, zero weights; `fan_in` defaults to the
  /// full input width (dense). Conv-style layers set fan_in to the receptive
  /// field size R(l) (paper Section VI).
  DenseLayer(std::size_t out_size, std::size_t in_size);

  std::size_t in_size() const { return weights_.cols(); }
  std::size_t out_size() const { return weights_.rows(); }

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }

  std::span<double> bias() { return {bias_.data(), bias_.size()}; }
  std::span<const double> bias() const { return {bias_.data(), bias_.size()}; }

  /// s = W y_prev + bias for a block of `probes` probes stored probe-minor
  /// (tensor/ops.hpp): y_prev holds in_size() * probes values, s
  /// out_size() * probes. `s` may not alias `y_prev`. Sparse layers take
  /// the CSR path, dense layers the dense one; one probe runs gemv or
  /// gemv_csr, more run their block kernels, and every probe's rows are
  /// bit-identical either way.
  void affine(std::span<const double> y_prev, std::span<double> s,
              std::size_t probes = 1) const;

  /// max |w^(l)_{ji}| under the given convention (paper's w^(l)_m).
  double weight_max(WeightMaxConvention convention) const;

  /// Number of distinct sending neurons any receiving neuron listens to;
  /// R(l) in the paper's convolutional remark. in_size() for dense layers;
  /// the max in-degree once a topology is attached.
  std::size_t receptive_field() const { return receptive_field_; }
  void set_receptive_field(std::size_t r);

  /// Sparse adjacency, or nullptr when the layer is fully connected.
  const LayerTopology* topology() const {
    return topology_ ? &*topology_ : nullptr;
  }
  bool is_sparse() const { return topology_.has_value(); }

  /// Attaches an adjacency (dimensions must match), zeroes every non-edge
  /// weight, and sets the receptive field to the max in-degree. A full
  /// topology is dropped (the layer stays on the dense kernel).
  void set_topology(LayerTopology topology);
  void clear_topology();

  /// Re-zeroes non-edge weights; call after bulk weight mutation (the
  /// optimiser step) to restore the sparse invariant. No-op when dense.
  void mask_to_topology();

  /// In-edges of receiver `j` (in_size() when dense).
  std::size_t in_degree(std::size_t j) const;

  /// Realised synapse count excluding bias: nnz when sparse, out*in dense.
  std::size_t edge_count() const;

 private:
  Matrix weights_;
  std::vector<double> bias_;
  std::size_t receptive_field_ = 0;
  std::optional<LayerTopology> topology_;
};

}  // namespace wnf::nn
