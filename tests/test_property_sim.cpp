// Property suite for the distributed substrate: over randomized topologies,
// latencies and MIXED fault plans (crash + Byzantine + stuck-at neurons,
// crash + Byzantine synapses), the message-passing simulator and the
// matrix-path Injector must agree bit for bit, the nominal simulator must
// match the per-sample forward pass bit for bit, and the conv-aware bound
// must stay sound on conv topologies.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <tuple>

#include "dist/sim.hpp"
#include "fault/adversary.hpp"
#include "fault/injector.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"

namespace wnf {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

nn::FeedForwardNetwork random_net(Rng& rng) {
  const std::size_t depth = 1 + rng.uniform_index(3);
  nn::NetworkBuilder builder(2);
  builder.activation(nn::ActivationKind::kSigmoid,
                     0.25 * std::pow(2.0, double(rng.uniform_index(5))));
  for (std::size_t l = 0; l < depth; ++l) {
    builder.hidden(3 + rng.uniform_index(8));
  }
  builder.init(nn::InitKind::kUniform, rng.uniform(0.2, 1.2));
  return builder.build(rng);
}

/// A random plan mixing every fault species the model supports, using the
/// transmitted-value convention (the one the simulator executes natively).
fault::FaultPlan random_mixed_plan(const nn::FeedForwardNetwork& net,
                                   Rng& rng) {
  fault::FaultPlan plan;
  plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const std::size_t width = net.layer_width(l);
    for (std::size_t victim : rng.sample_indices(width, rng.uniform_index(
                                                            width / 2 + 1))) {
      const auto kind = static_cast<fault::NeuronFaultKind>(
          rng.uniform_index(3));
      double value = 0.0;
      if (kind == fault::NeuronFaultKind::kByzantine) {
        value = rng.uniform(-2.0, 2.0);
      } else if (kind == fault::NeuronFaultKind::kStuckAt) {
        value = rng.uniform();
      }
      plan.neurons.push_back({l, victim, kind, value});
    }
  }
  // A couple of synapse faults, including possibly into the output set.
  // One fault per edge (a synapse is crashed OR Byzantine, never both —
  // validate_plan enforces this).
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> edges;
  for (int s = 0; s < 2; ++s) {
    const std::size_t l = 1 + rng.uniform_index(net.layer_count() + 1);
    const std::size_t receivers =
        l <= net.layer_count() ? net.layer_width(l) : 1;
    const std::size_t senders = l <= net.layer_count()
                                    ? net.layer(l).in_size()
                                    : net.output_weights().size();
    const std::size_t to = rng.uniform_index(receivers);
    const std::size_t from = rng.uniform_index(senders);
    if (!edges.emplace(l, to, from).second) continue;
    const auto kind =
        rng.bernoulli(0.5) ? fault::SynapseFaultKind::kCrash
                           : fault::SynapseFaultKind::kByzantine;
    plan.synapses.push_back({l, to, from, kind,
                             kind == fault::SynapseFaultKind::kByzantine
                                 ? rng.uniform(-1.0, 1.0)
                                 : 0.0});
  }
  fault::validate_plan(plan, net);
  return plan;
}

TEST(SimEquivalence, MixedFaultPlansMatchInjectorExactly) {
  Rng rng(20240611);
  for (int round = 0; round < 60; ++round) {
    const auto net = random_net(rng);
    auto plan = random_mixed_plan(net, rng);
    // The simulator clamps Byzantine *transmitted* values at capacity;
    // use a roomy channel so both paths see the same values.
    dist::SimConfig config;
    config.capacity = 10.0;
    dist::NetworkSimulator sim(net, config);
    sim.apply_faults(plan);
    fault::Injector injector(net);
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<double> x{rng.uniform(), rng.uniform()};
      EXPECT_EQ(bits(sim.evaluate(x).output), bits(injector.damaged(plan, x)))
          << "divergence at round " << round;
    }
  }
}

TEST(SimEquivalence, NominalAgreesWithPerSamplePath) {
  Rng rng(777);
  for (int round = 0; round < 25; ++round) {
    const auto net = random_net(rng);
    dist::NetworkSimulator sim(net, dist::SimConfig{});
    std::vector<std::vector<double>> inputs;
    for (int n = 0; n < 8; ++n) {
      inputs.push_back({rng.uniform(), rng.uniform()});
    }
    nn::Workspace ws;
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      const double per_sample = net.evaluate(inputs[n], ws);
      EXPECT_EQ(bits(sim.evaluate(inputs[n]).output), bits(per_sample));
    }
  }
}

TEST(ConvProperty, ConvAwareBoundSoundOnRandomConvTopologies) {
  // Random dense->conv stacks with random kernels: the receptive-field cap
  // must never fall below the measured crash error.
  Rng rng(909);
  theory::FepOptions options;
  options.mode = theory::FailureMode::kCrash;
  options.use_receptive_field = true;
  for (int round = 0; round < 30; ++round) {
    const std::size_t features = 6 + rng.uniform_index(8);
    const std::size_t kernel_size = 2 + rng.uniform_index(
                                            std::min<std::size_t>(3, features - 1));
    nn::DenseLayer dense(features, 2);
    nn::initialize(dense, nn::InitKind::kUniform, rng.uniform(0.2, 0.8), rng);
    nn::Conv1DSpec spec{features, kernel_size, 1};
    std::vector<double> kernel(kernel_size);
    for (double& v : kernel) v = rng.uniform(-0.6, 0.6);
    auto conv = nn::make_conv1d(spec, kernel, rng.uniform(-0.2, 0.2));
    std::vector<nn::DenseLayer> layers;
    layers.push_back(std::move(dense));
    layers.push_back(std::move(conv));
    std::vector<double> out(spec.out_size());
    nn::initialize({out.data(), out.size()}, nn::InitKind::kUniform,
                   rng.uniform(0.2, 0.8), rng);
    const nn::FeedForwardNetwork net(
        2, std::move(layers), std::move(out), 0.0,
        nn::Activation(nn::ActivationKind::kSigmoid, rng.uniform(0.5, 2.0)));

    const auto prof = theory::profile_of(net, options);
    fault::Injector injector(net);
    std::vector<std::size_t> counts{1 + rng.uniform_index(features - 1), 0};
    const double bound =
        theory::forward_error_propagation(prof, counts, options);
    const auto plan = fault::random_crash_plan(net, counts, rng);
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<double> x{rng.uniform(), rng.uniform()};
      EXPECT_LE(injector.output_error(plan, x), bound + 1e-9)
          << "conv-aware bound violated at round " << round;
    }
  }
}

}  // namespace
}  // namespace wnf
