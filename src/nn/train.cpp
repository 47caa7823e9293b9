#include "nn/train.hpp"

#include <cmath>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"
#include "util/contract.hpp"

namespace wnf::nn {
namespace {

/// Gradient and optimiser-state buffers mirroring a network's parameters.
struct ParamBuffers {
  std::vector<Matrix> layer_w;              // per hidden layer
  std::vector<std::vector<double>> layer_b;
  std::vector<double> output_w;
  double output_b = 0.0;

  explicit ParamBuffers(const FeedForwardNetwork& net) {
    layer_w.reserve(net.layer_count());
    layer_b.reserve(net.layer_count());
    for (std::size_t l = 1; l <= net.layer_count(); ++l) {
      const auto& layer = net.layer(l);
      layer_w.emplace_back(layer.out_size(), layer.in_size());
      layer_b.emplace_back(layer.out_size(), 0.0);
    }
    output_w.assign(net.output_weights().size(), 0.0);
  }

  void zero() {
    for (auto& m : layer_w) {
      for (double& w : m.flat()) w = 0.0;
    }
    for (auto& b : layer_b) {
      for (double& v : b) v = 0.0;
    }
    for (double& w : output_w) w = 0.0;
    output_b = 0.0;
  }
};

/// Scratch state for one sample's forward + backward pass, with dropout.
struct BackpropScratch {
  std::vector<std::vector<double>> preacts;   // s^(1..L)
  std::vector<std::vector<double>> acts;      // y^(0..L) post-dropout
  std::vector<std::vector<double>> masks;     // inverted-dropout scale per unit
  std::vector<std::vector<double>> deltas;    // dL/ds^(l)
  Workspace ws;                               // the forward pass's buffers
};

/// Forward pass with inverted dropout; fills scratch, returns the output.
double forward_train(const FeedForwardNetwork& net,
                     std::span<const double> x, double dropout, Rng& rng,
                     BackpropScratch& scratch) {
  const std::size_t depth = net.layer_count();
  scratch.preacts.resize(depth);
  scratch.acts.resize(depth + 1);
  scratch.masks.resize(depth);
  scratch.deltas.resize(depth);
  scratch.acts[0].assign(x.begin(), x.end());
  const double keep = 1.0 - dropout;
  ForwardHooks hooks;
  hooks.pre_activation = [&scratch](std::size_t l, BlockView<const double>,
                                    BlockView<double> block) {
    if (l <= scratch.preacts.size()) {  // l = L+1 is the output node
      const std::span<double> s = block.values();
      scratch.preacts[l - 1].assign(s.begin(), s.end());
    }
  };
  hooks.post_activation = [&](std::size_t l, BlockView<double> block) {
    const std::span<double> y = block.values();
    auto& mask = scratch.masks[l - 1];
    mask.assign(y.size(), 1.0);
    if (dropout > 0.0) {
      for (std::size_t j = 0; j < y.size(); ++j) {
        // Inverted dropout: zero with probability `dropout`, otherwise
        // scale by 1/keep so the expected activation is unchanged.
        mask[j] = rng.bernoulli(dropout) ? 0.0 : 1.0 / keep;
        y[j] *= mask[j];
      }
    }
    scratch.acts[l].assign(y.begin(), y.end());
  };
  return net.evaluate_hooked(x, hooks, scratch.ws);
}

/// Accumulates dLoss/dparams for one sample into `grads`.
void backward(const FeedForwardNetwork& net, double output,
              double label, BackpropScratch& scratch, ParamBuffers& grads) {
  const std::size_t depth = net.layer_count();
  const double delta_out = 2.0 * (output - label);  // d(MSE sample)/d(out)

  // Output synapses (the (L+1)-th set).
  const auto& y_top = scratch.acts[depth];
  for (std::size_t j = 0; j < y_top.size(); ++j) {
    grads.output_w[j] += delta_out * y_top[j];
  }
  grads.output_b += delta_out;

  // Top hidden layer: dL/ds^(L)_j = delta_out * w_out_j * mask_j * phi'(s).
  auto& delta_top = scratch.deltas[depth - 1];
  delta_top.resize(y_top.size());
  for (std::size_t j = 0; j < y_top.size(); ++j) {
    delta_top[j] = delta_out * net.output_weights()[j] *
                   scratch.masks[depth - 1][j] *
                   net.activation().derivative(scratch.preacts[depth - 1][j]);
  }

  // Remaining layers, top-down.
  for (std::size_t l = depth; l-- > 1;) {
    const auto& upper = net.layer(l + 1);
    auto& delta = scratch.deltas[l - 1];
    delta.resize(net.layer_width(l));
    gemv_transposed(upper.weights(), scratch.deltas[l], delta);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] *= scratch.masks[l - 1][i] *
                  net.activation().derivative(scratch.preacts[l - 1][i]);
    }
  }

  // Weight/bias gradients: dL/dW^(l) = delta^(l) (y^(l-1))^T.
  for (std::size_t l = 1; l <= depth; ++l) {
    rank1_update(grads.layer_w[l - 1], 1.0,
                 {scratch.deltas[l - 1].data(), scratch.deltas[l - 1].size()},
                 {scratch.acts[l - 1].data(), scratch.acts[l - 1].size()});
    for (std::size_t j = 0; j < scratch.deltas[l - 1].size(); ++j) {
      grads.layer_b[l - 1][j] += scratch.deltas[l - 1][j];
    }
  }
}

/// One optimiser step over every parameter, given accumulated gradients.
class OptimizerState {
 public:
  OptimizerState(const FeedForwardNetwork& net, const TrainConfig& config)
      : config_(config), velocity_(net), adam_m_(net), adam_v_(net) {}

  void step(FeedForwardNetwork& net, ParamBuffers& grads, double batch_scale) {
    ++t_;
    for (std::size_t l = 1; l <= net.layer_count(); ++l) {
      auto weights = net.layer(l).weights().flat();
      update_block(weights, grads.layer_w[l - 1].flat(),
                   velocity_.layer_w[l - 1].flat(), adam_m_.layer_w[l - 1].flat(),
                   adam_v_.layer_w[l - 1].flat(), batch_scale);
      // Weight decay (and numerically non-zero gradients through masked
      // positions) can nudge non-edge weights off 0; restore the sparse
      // invariant before anyone reads the block.
      net.layer(l).mask_to_topology();
      auto bias = net.layer(l).bias();
      update_block(bias, {grads.layer_b[l - 1].data(), bias.size()},
                   {velocity_.layer_b[l - 1].data(), bias.size()},
                   {adam_m_.layer_b[l - 1].data(), bias.size()},
                   {adam_v_.layer_b[l - 1].data(), bias.size()}, batch_scale);
    }
    auto& out = net.output_weights();
    update_block({out.data(), out.size()},
                 {grads.output_w.data(), out.size()},
                 {velocity_.output_w.data(), out.size()},
                 {adam_m_.output_w.data(), out.size()},
                 {adam_v_.output_w.data(), out.size()}, batch_scale);
    std::span<double> ob{&net.output_bias(), 1};
    std::span<double> gob{&grads.output_b, 1};
    std::span<double> vob{&velocity_.output_b, 1};
    std::span<double> mob{&adam_m_.output_b, 1};
    std::span<double> vvob{&adam_v_.output_b, 1};
    update_block(ob, gob, vob, mob, vvob, batch_scale);
  }

 private:
  void update_block(std::span<double> param, std::span<double> grad,
                    std::span<double> velocity, std::span<double> m,
                    std::span<double> v, double batch_scale) {
    const double lr = config_.learning_rate;
    for (std::size_t i = 0; i < param.size(); ++i) {
      double g = grad[i] * batch_scale + config_.weight_decay * param[i];
      switch (config_.optimizer) {
        case Optimizer::kSgd:
          param[i] -= lr * g;
          break;
        case Optimizer::kMomentum:
          velocity[i] = config_.momentum * velocity[i] - lr * g;
          param[i] += velocity[i];
          break;
        case Optimizer::kAdam: {
          m[i] = config_.adam_beta1 * m[i] + (1.0 - config_.adam_beta1) * g;
          v[i] =
              config_.adam_beta2 * v[i] + (1.0 - config_.adam_beta2) * g * g;
          const double m_hat =
              m[i] / (1.0 - std::pow(config_.adam_beta1,
                                     static_cast<double>(t_)));
          const double v_hat =
              v[i] / (1.0 - std::pow(config_.adam_beta2,
                                     static_cast<double>(t_)));
          param[i] -= lr * m_hat / (std::sqrt(v_hat) + config_.adam_epsilon);
          break;
        }
      }
    }
  }

  const TrainConfig& config_;
  ParamBuffers velocity_;
  ParamBuffers adam_m_;
  ParamBuffers adam_v_;
  std::size_t t_ = 0;
};

}  // namespace

TrainResult train(FeedForwardNetwork& net, const data::Dataset& dataset,
                  const TrainConfig& config, Rng& rng) {
  WNF_EXPECTS(dataset.size() > 0);
  WNF_EXPECTS(dataset.dim == net.input_dim());
  WNF_EXPECTS(config.batch_size > 0);
  WNF_EXPECTS(config.dropout >= 0.0 && config.dropout < 1.0);

  ParamBuffers grads(net);
  OptimizerState optimizer(net, config);
  BackpropScratch scratch;
  const FepRegularizer fep_reg(config.fep_lambda, config.fep_p);

  TrainResult result;
  result.mse_history.reserve(config.epochs);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto order = rng.permutation(dataset.size());
    std::size_t cursor = 0;
    while (cursor < order.size()) {
      const std::size_t batch_end =
          std::min(order.size(), cursor + config.batch_size);
      grads.zero();
      for (std::size_t b = cursor; b < batch_end; ++b) {
        const auto& x = dataset.inputs[order[b]];
        const double out = forward_train(net, {x.data(), x.size()},
                                         config.dropout, rng, scratch);
        backward(net, out, dataset.labels[order[b]], scratch, grads);
      }
      const double batch_scale =
          1.0 / static_cast<double>(batch_end - cursor);
      optimizer.step(net, grads, batch_scale);
      if (config.fep_lambda > 0.0) {
        fep_reg.apply_gradient_step(net, config.learning_rate);
        for (std::size_t l = 1; l <= net.layer_count(); ++l) {
          net.layer(l).mask_to_topology();
        }
      }
      if (config.post_step_projection) config.post_step_projection(net);
      cursor = batch_end;
    }
    const double epoch_mse = mse(net, dataset);
    result.mse_history.push_back(epoch_mse);
    result.epochs_run = epoch + 1;
    result.final_mse = epoch_mse;
    if (config.target_mse > 0.0 && epoch_mse <= config.target_mse) {
      result.reached_target = true;
      break;
    }
  }
  return result;
}

}  // namespace wnf::nn
