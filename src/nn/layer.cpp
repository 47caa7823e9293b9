#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "util/contract.hpp"

namespace wnf::nn {

DenseLayer::DenseLayer(std::size_t out_size, std::size_t in_size)
    : weights_(out_size, in_size),
      bias_(out_size, 0.0),
      receptive_field_(in_size) {
  WNF_EXPECTS(out_size > 0);
  WNF_EXPECTS(in_size > 0);
}

void DenseLayer::affine(std::span<const double> y_prev, std::span<double> s,
                        std::size_t probes) const {
  WNF_EXPECTS(probes >= 1);
  WNF_EXPECTS(y_prev.size() == in_size() * probes);
  WNF_EXPECTS(s.size() == out_size() * probes);
  if (topology_ && probes == 1) {
    gemv_csr(weights_, topology_->row_ptr(), topology_->cols(), y_prev, s);
  } else if (topology_) {
    gemv_csr_block(weights_, topology_->row_ptr(), topology_->cols(), y_prev,
                   probes, s);
  } else if (probes == 1) {
    gemv(weights_, y_prev, s);
  } else {
    gemv_block(weights_, y_prev, probes, s);
  }
  if (probes == 1) {
    for (std::size_t j = 0; j < s.size(); ++j) s[j] += bias_[j];
    return;
  }
  auto row = s.begin();  // row j holds its probes' values
  for (const double b : bias_) {
    for (std::size_t p = 0; p < probes; ++p) *row++ += b;
  }
}

double DenseLayer::weight_max(WeightMaxConvention convention) const {
  double best = weights_.max_abs();
  if (convention == WeightMaxConvention::kIncludeBias) {
    for (double b : bias_) best = std::max(best, std::fabs(b));
  }
  return best;
}

void DenseLayer::set_receptive_field(std::size_t r) {
  WNF_EXPECTS(r >= 1 && r <= in_size());
  receptive_field_ = r;
}

void DenseLayer::set_topology(LayerTopology topology) {
  WNF_EXPECTS(topology.out_size() == out_size());
  WNF_EXPECTS(topology.in_size() == in_size());
  if (topology.is_full() && !topology.has_edge_capacities()) {
    clear_topology();
    return;
  }
  topology_ = std::move(topology);
  receptive_field_ = topology_->max_in_degree();
  mask_to_topology();
}

void DenseLayer::clear_topology() {
  topology_.reset();
  receptive_field_ = in_size();
}

void DenseLayer::mask_to_topology() {
  if (!topology_) return;
  for (std::size_t j = 0; j < out_size(); ++j) {
    const auto row = weights_.row(j);
    const auto edges = topology_->row(j);
    std::size_t e = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (e < edges.size() && edges[e] == i) {
        ++e;
      } else {
        row[i] = 0.0;
      }
    }
  }
}

std::size_t DenseLayer::in_degree(std::size_t j) const {
  WNF_EXPECTS(j < out_size());
  return topology_ ? topology_->in_degree(j) : in_size();
}

std::size_t DenseLayer::edge_count() const {
  return topology_ ? topology_->edge_count() : out_size() * in_size();
}

}  // namespace wnf::nn
