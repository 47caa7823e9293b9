// Tests for layers, the builder, and the paper's network model (Eqs. 1-3):
// manual forward computation, hooks, weight maxima, traces, conv layers.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "nn/gradients.hpp"
#include "nn/network.hpp"
#include "util/rng.hpp"

namespace wnf::nn {
namespace {

/// 2-input, one hidden layer of 2, hand-checkable fixture.
FeedForwardNetwork tiny_network(double k = 1.0) {
  DenseLayer layer(2, 2);
  layer.weights() = Matrix{{1.0, -2.0}, {0.5, 0.25}};
  layer.bias()[0] = 0.1;
  layer.bias()[1] = -0.3;
  return FeedForwardNetwork(2, {layer}, {2.0, -1.0}, 0.05,
                            Activation(ActivationKind::kSigmoid, k));
}

TEST(DenseLayer, AffineMatchesManualComputation) {
  DenseLayer layer(2, 3);
  layer.weights() = Matrix{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  layer.bias()[0] = 0.5;
  layer.bias()[1] = -0.5;
  std::vector<double> in{1.0, 0.0, -1.0};
  std::vector<double> out(2);
  layer.affine(in, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0 - 3.0 + 0.5);
  EXPECT_DOUBLE_EQ(out[1], 4.0 - 6.0 - 0.5);
}

TEST(DenseLayer, WeightMaxConventions) {
  DenseLayer layer(1, 2);
  layer.weights() = Matrix{{0.5, -0.75}};
  layer.bias()[0] = -2.0;
  EXPECT_DOUBLE_EQ(layer.weight_max(WeightMaxConvention::kExcludeBias), 0.75);
  EXPECT_DOUBLE_EQ(layer.weight_max(WeightMaxConvention::kIncludeBias), 2.0);
}

TEST(DenseLayer, ReceptiveFieldDefaultsToFanIn) {
  DenseLayer layer(4, 7);
  EXPECT_EQ(layer.receptive_field(), 7u);
  layer.set_receptive_field(3);
  EXPECT_EQ(layer.receptive_field(), 3u);
}

TEST(Network, EvaluateMatchesManualForward) {
  const auto net = tiny_network();
  const Activation phi(ActivationKind::kSigmoid, 1.0);
  const std::vector<double> x{0.3, 0.7};
  const double s0 = 1.0 * 0.3 - 2.0 * 0.7 + 0.1;
  const double s1 = 0.5 * 0.3 + 0.25 * 0.7 - 0.3;
  const double expected =
      2.0 * phi.value(s0) - 1.0 * phi.value(s1) + 0.05;
  EXPECT_NEAR(net.evaluate(x), expected, 1e-14);
}

TEST(Network, ForwardTraceRecordsEverything) {
  const auto net = tiny_network();
  const std::vector<double> x{0.3, 0.7};
  const auto trace = net.forward_trace(x);
  ASSERT_EQ(trace.activations.size(), 2u);   // y^(0), y^(1)
  ASSERT_EQ(trace.preactivations.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.activations[0][0], 0.3);
  EXPECT_NEAR(trace.preactivations[0][0], 1.0 * 0.3 - 2.0 * 0.7 + 0.1, 1e-14);
  EXPECT_NEAR(trace.output, net.evaluate(x), 1e-14);
}

TEST(Network, WorkspaceReuseGivesSameResult) {
  const auto net = tiny_network();
  Workspace ws;
  const std::vector<double> a{0.1, 0.2};
  const std::vector<double> b{0.9, 0.4};
  const double first = net.evaluate(a, ws);
  net.evaluate(b, ws);
  EXPECT_DOUBLE_EQ(net.evaluate(a, ws), first);
}

TEST(Network, WeightMaxPerLayerAndOutput) {
  const auto net = tiny_network();
  EXPECT_DOUBLE_EQ(net.weight_max(1, WeightMaxConvention::kExcludeBias), 2.0);
  EXPECT_DOUBLE_EQ(net.weight_max(2, WeightMaxConvention::kExcludeBias), 2.0);
  const auto maxima = net.weight_maxima(WeightMaxConvention::kExcludeBias);
  ASSERT_EQ(maxima.size(), 2u);
}

TEST(Network, CountsAndWidths) {
  Rng rng(3);
  const auto net = NetworkBuilder(4).hidden(8).hidden(6).build(rng);
  EXPECT_EQ(net.layer_count(), 2u);
  EXPECT_EQ(net.layer_width(1), 8u);
  EXPECT_EQ(net.layer_width(2), 6u);
  EXPECT_EQ(net.neuron_count(), 14u);
  EXPECT_EQ(net.layer_widths(), (std::vector<std::size_t>{8, 6}));
  // synapses: 8*4 + 8 biases + 6*8 + 6 biases + 6 output + 1 output bias.
  EXPECT_EQ(net.synapse_count(), 32u + 8u + 48u + 6u + 6u + 1u);
}

TEST(Network, PostActivationHookOverridesNeuron) {
  const auto net = tiny_network();
  const std::vector<double> x{0.3, 0.7};
  ForwardHooks hooks;
  hooks.post_activation = [](std::size_t l, BlockView<double> y) {
    if (l == 1) y.values()[0] = 0.0;  // crash neuron 0
  };
  Workspace ws;
  const double damaged = net.evaluate_hooked(x, hooks, ws);
  const Activation phi(ActivationKind::kSigmoid, 1.0);
  const double s1 = 0.5 * 0.3 + 0.25 * 0.7 - 0.3;
  EXPECT_NEAR(damaged, -1.0 * phi.value(s1) + 0.05, 1e-14);
}

TEST(Network, PreActivationHookSeesOutputNode) {
  const auto net = tiny_network();
  const std::vector<double> x{0.3, 0.7};
  std::vector<std::size_t> layers_seen;
  ForwardHooks hooks;
  hooks.pre_activation = [&](std::size_t l, BlockView<const double>,
                             BlockView<double> s) {
    layers_seen.push_back(l);
    if (l == 2) {
      ASSERT_EQ(s.values().size(), 1u);  // the single output node
      s.values()[0] += 10.0;
    }
  };
  Workspace ws;
  const double out = net.evaluate_hooked(x, hooks, ws);
  EXPECT_EQ(layers_seen, (std::vector<std::size_t>{1, 2}));
  EXPECT_NEAR(out, net.evaluate(x) + 10.0, 1e-14);
}

TEST(Network, HookedWithoutHooksEqualsPlain) {
  Rng rng(17);
  const auto net = NetworkBuilder(3).hidden(5).hidden(4).build(rng);
  Workspace ws;
  const std::vector<double> x{0.2, 0.4, 0.9};
  EXPECT_DOUBLE_EQ(net.evaluate_hooked(x, ForwardHooks{}, ws),
                   net.evaluate(x, ws));
}

TEST(Network, SetActivationChangesOutput) {
  auto net = tiny_network(1.0);
  const std::vector<double> x{0.5, 0.5};
  const double before = net.evaluate(x);
  net.set_activation(net.activation().with_k(4.0));
  EXPECT_NE(net.evaluate(x), before);
  EXPECT_DOUBLE_EQ(net.activation().lipschitz(), 4.0);
}

TEST(Builder, ShapesAndDeterminism) {
  Rng rng_a(21);
  Rng rng_b(21);
  const auto make = [](Rng& rng) {
    return NetworkBuilder(2)
        .activation(ActivationKind::kTanh01, 0.5)
        .hidden_layers({4, 3})
        .init(InitKind::kUniform, 0.7)
        .build(rng);
  };
  const auto a = make(rng_a);
  const auto b = make(rng_b);
  EXPECT_TRUE(a.approx_equal(b, 0.0));
  EXPECT_EQ(a.activation().kind(), ActivationKind::kTanh01);
  EXPECT_LE(a.layer(1).weights().max_abs(), 0.7);
}

TEST(Builder, ScaledInitRespectsFanIn) {
  Rng rng(23);
  const auto net = NetworkBuilder(100)
                       .hidden(10)
                       .init(InitKind::kScaledUniform, 1.0)
                       .build(rng);
  EXPECT_LE(net.layer(1).weights().max_abs(), 1.0 / 10.0);  // 1/sqrt(100)
}

TEST(Builder, ConstantInit) {
  Rng rng(29);
  const auto net =
      NetworkBuilder(2).hidden(3).init(InitKind::kConstant, 0.5).build(rng);
  for (double w : net.layer(1).weights().flat()) EXPECT_DOUBLE_EQ(w, 0.5);
}

TEST(Conv1D, SpecShapes) {
  Conv1DSpec spec{10, 3, 1};
  EXPECT_EQ(spec.out_size(), 8u);
  Conv1DSpec strided{10, 4, 2};
  EXPECT_EQ(strided.out_size(), 4u);
}

TEST(Conv1D, DenseRealisationMatchesDirectConvolution) {
  Conv1DSpec spec{6, 3, 1};
  const std::vector<double> kernel{0.5, -1.0, 0.25};
  const auto layer = make_conv1d(spec, kernel, 0.1);
  EXPECT_EQ(layer.receptive_field(), 3u);
  std::vector<double> in{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> out(spec.out_size());
  layer.affine(in, out);
  for (std::size_t j = 0; j < spec.out_size(); ++j) {
    double expected = 0.1;
    for (std::size_t k = 0; k < 3; ++k) expected += kernel[k] * in[j + k];
    EXPECT_NEAR(out[j], expected, 1e-14);
  }
}

TEST(Conv1D, OutOfFieldWeightsAreZero) {
  Conv1DSpec spec{8, 2, 2};
  const auto layer = make_conv1d(spec, std::vector<double>{1.0, 1.0}, 0.0);
  for (std::size_t j = 0; j < spec.out_size(); ++j) {
    for (std::size_t i = 0; i < spec.in_size; ++i) {
      const bool in_field = i >= j * 2 && i < j * 2 + 2;
      if (!in_field) {
        EXPECT_EQ(layer.weights()(j, i), 0.0);
      }
    }
  }
}

TEST(Conv1D, KernelExtractionRoundTrip) {
  Conv1DSpec spec{9, 3, 2};
  const std::vector<double> kernel{0.3, -0.6, 0.9};
  const auto layer = make_conv1d(spec, kernel, -0.2);
  const auto extracted = extract_kernel(layer, spec);
  ASSERT_EQ(extracted.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_NEAR(extracted[k], kernel[k], 1e-14);
}

TEST(Conv1D, ProjectionRestoresSharing) {
  Conv1DSpec spec{6, 2, 1};
  auto layer = make_conv1d(spec, std::vector<double>{1.0, -1.0}, 0.0);
  // Break sharing at one position, as a gradient step would.
  layer.weights()(2, 2) += 0.5;
  project_shared_kernel(layer, spec);
  const auto kernel = extract_kernel(layer, spec);
  for (std::size_t j = 0; j < spec.out_size(); ++j) {
    EXPECT_NEAR(layer.weights()(j, j), kernel[0], 1e-14);
    EXPECT_NEAR(layer.weights()(j, j + 1), kernel[1], 1e-14);
  }
}

TEST(Gradients, MatchFiniteDifferenceSensitivities) {
  Rng rng(31);
  const auto net = NetworkBuilder(3)
                       .activation(ActivationKind::kSigmoid, 1.0)
                       .hidden(5)
                       .hidden(4)
                       .build(rng);
  const std::vector<double> x{0.2, 0.8, 0.5};
  const auto trace = net.forward_trace(x);
  const auto grads = output_gradients(net, trace);
  ASSERT_EQ(grads.size(), 2u);

  // Perturb each y^(l)_j via a hook and compare the output delta.
  const double h = 1e-6;
  Workspace ws;
  for (std::size_t l = 1; l <= 2; ++l) {
    for (std::size_t j = 0; j < net.layer_width(l); ++j) {
      ForwardHooks hooks;
      hooks.post_activation = [&](std::size_t hl, BlockView<double> y) {
        if (hl == l) y.values()[j] += h;
      };
      const double perturbed = net.evaluate_hooked(x, hooks, ws);
      const double numeric = (perturbed - trace.output) / h;
      EXPECT_NEAR(grads[l - 1][j], numeric, 1e-4);
    }
  }
}

}  // namespace
}  // namespace wnf::nn
