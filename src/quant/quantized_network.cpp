#include "quant/quantized_network.hpp"

#include "util/contract.hpp"

namespace wnf::quant {

std::vector<double> PrecisionScheme::lambdas() const {
  std::vector<double> result;
  result.reserve(bits.size());
  for (std::size_t b : bits) {
    result.push_back(FixedPoint(b, rounding).max_error());
  }
  return result;
}

double evaluate_quantized(const nn::FeedForwardNetwork& net,
                          std::span<const double> x,
                          const PrecisionScheme& scheme, nn::Workspace& ws) {
  WNF_EXPECTS(scheme.bits.size() == net.layer_count());
  std::vector<FixedPoint> quantizers;
  quantizers.reserve(scheme.bits.size());
  for (std::size_t b : scheme.bits) {
    quantizers.emplace_back(b, scheme.rounding);
  }
  Rng stochastic_rng(scheme.stochastic_seed);
  nn::ForwardHooks hooks;
  hooks.post_activation = [&](std::size_t l, nn::BlockView<double> y) {
    const auto& q = quantizers[l - 1];
    for (double& value : y.values()) value = q.quantize(value, stochastic_rng);
  };
  return net.evaluate_hooked(x, hooks, ws);
}

double quantization_error_bound(const nn::FeedForwardNetwork& net,
                                const PrecisionScheme& scheme,
                                const theory::FepOptions& options) {
  WNF_EXPECTS(scheme.bits.size() == net.layer_count());
  const auto prof = theory::profile_of(net, options);
  const auto lambdas = scheme.lambdas();
  return theory::precision_error_bound(prof, lambdas, options);
}

nn::FeedForwardNetwork quantize_weights(const nn::FeedForwardNetwork& net,
                                        std::size_t bits) {
  const FixedPoint q(bits, Rounding::kNearest);
  std::vector<nn::DenseLayer> hidden;
  hidden.reserve(net.layer_count());
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const auto& src = net.layer(l);
    nn::DenseLayer dst(src.out_size(), src.in_size());
    for (std::size_t j = 0; j < src.out_size(); ++j) {
      for (std::size_t i = 0; i < src.in_size(); ++i) {
        dst.weights()(j, i) = q.quantize(src.weights()(j, i));
      }
      dst.bias()[j] = q.quantize(src.bias()[j]);
    }
    dst.set_receptive_field(src.receptive_field());
    hidden.push_back(std::move(dst));
  }
  std::vector<double> output_weights;
  output_weights.reserve(net.output_weights().size());
  for (double w : net.output_weights()) {
    output_weights.push_back(q.quantize(w));
  }
  return nn::FeedForwardNetwork(net.input_dim(), std::move(hidden),
                                std::move(output_weights),
                                q.quantize(net.output_bias()),
                                net.activation());
}

}  // namespace wnf::quant
