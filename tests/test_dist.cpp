// Message-passing simulator tests: equivalence with the matrix forward
// pass, fault semantics matching the Injector, capacity clamping
// (Assumption 1), latencies, and the Corollary-2 boosting engine.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dist/boosting.hpp"
#include "dist/sim.hpp"
#include "fault/injector.hpp"
#include "nn/builder.hpp"

namespace wnf::dist {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

nn::FeedForwardNetwork sim_net(std::uint64_t seed = 3) {
  Rng rng(seed);
  return nn::NetworkBuilder(3)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(7)
      .hidden(5)
      .init(nn::InitKind::kUniform, 0.5)
      .build(rng);
}

TEST(Simulator, NoFaultOutputMatchesMatrixForward) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  Rng rng(7);
  nn::Workspace ws;
  for (int n = 0; n < 50; ++n) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    const auto result = sim.evaluate(x);
    EXPECT_NEAR(result.output, net.evaluate(x, ws), 1e-12);
  }
}

TEST(Simulator, ZeroLatencyZeroCompletionTime) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  const std::vector<double> x{0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(sim.evaluate(x).completion_time, 0.0);
}

TEST(Simulator, CompletionTimeIsCriticalPath) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  // Layer 1 latencies all 1 except one neuron at 5; layer 2 all 2.
  std::vector<std::vector<double>> latencies{
      std::vector<double>(7, 1.0), std::vector<double>(5, 2.0)};
  latencies[0][3] = 5.0;
  sim.set_latencies(latencies);
  const std::vector<double> x{0.2, 0.4, 0.6};
  const auto result = sim.evaluate(x);
  // Critical path: slowest layer-1 neuron (5) + layer-2 latency (2).
  EXPECT_DOUBLE_EQ(result.completion_time, 7.0);
  ASSERT_EQ(result.layer_fire_times.size(), 2u);
  EXPECT_DOUBLE_EQ(result.layer_fire_times[0], 5.0);
  EXPECT_DOUBLE_EQ(result.layer_fire_times[1], 7.0);
}

TEST(Simulator, CrashMatchesInjectorSemantics) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  fault::FaultPlan plan;
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                  {2, 0, fault::NeuronFaultKind::kCrash, 0.0}};
  sim.apply_faults(plan);
  fault::Injector injector(net);
  Rng rng(11);
  for (int n = 0; n < 20; ++n) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_NEAR(sim.evaluate(x).output, injector.damaged(plan, x), 1e-12);
  }
}

TEST(Simulator, ByzantineTransmittedValueMatchesInjector) {
  const auto net = sim_net();
  SimConfig config;
  config.capacity = 10.0;  // roomy: no clamping
  NetworkSimulator sim(net, config);
  fault::FaultPlan plan;
  plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  plan.neurons = {{2, 3, fault::NeuronFaultKind::kByzantine, 0.8}};
  sim.apply_faults(plan);
  fault::Injector injector(net);
  const std::vector<double> x{0.3, 0.6, 0.9};
  EXPECT_NEAR(sim.evaluate(x).output, injector.damaged(plan, x), 1e-12);
}

TEST(Simulator, ChannelClampsByzantineValues) {
  // Assumption 1 enforced structurally: a Byzantine process tries to send
  // 1e9 but the synapse caps it at C.
  const auto net = sim_net();
  SimConfig config;
  config.capacity = 2.0;
  NetworkSimulator sim(net, config);
  fault::FaultPlan plan;
  plan.neurons = {{2, 1, fault::NeuronFaultKind::kByzantine, 1e9}};
  sim.apply_faults(plan);
  const std::vector<double> x{0.5, 0.5, 0.5};
  // Reference: the same fault transmitting exactly C.
  fault::FaultPlan clamped;
  clamped.convention = theory::CapacityConvention::kTransmittedValueBound;
  clamped.neurons = {{2, 1, fault::NeuronFaultKind::kByzantine, 2.0}};
  fault::Injector injector(net);
  EXPECT_NEAR(sim.evaluate(x).output, injector.damaged(clamped, x), 1e-12);
}

TEST(Simulator, UnboundedChannelLetsByzantineDiverge) {
  // Lemma 1's regime: capacity <= 0 disables the clamp and a single
  // Byzantine neuron moves the output arbitrarily far.
  const auto net = sim_net();
  SimConfig config;
  config.capacity = 0.0;
  NetworkSimulator sim(net, config);
  fault::FaultPlan plan;
  plan.neurons = {{2, 1, fault::NeuronFaultKind::kByzantine, 1e12}};
  sim.apply_faults(plan);
  const std::vector<double> x{0.5, 0.5, 0.5};
  nn::Workspace ws;
  EXPECT_GT(std::fabs(sim.evaluate(x).output - net.evaluate(x, ws)), 1e6);
}

TEST(Simulator, ClearFaultsRestoresNominal) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  const std::vector<double> x{0.2, 0.2, 0.2};
  const double nominal = sim.evaluate(x).output;
  fault::FaultPlan plan;
  plan.neurons = {{1, 0, fault::NeuronFaultKind::kCrash, 0.0}};
  sim.apply_faults(plan);
  EXPECT_NE(sim.evaluate(x).output, nominal);
  sim.clear_faults();
  EXPECT_DOUBLE_EQ(sim.evaluate(x).output, nominal);
}

TEST(Simulator, SynapseFaultsMatchInjector) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  fault::FaultPlan plan;
  plan.synapses = {{2, 1, 3, fault::SynapseFaultKind::kCrash, 0.0},
                   {3, 0, 2, fault::SynapseFaultKind::kByzantine, 0.4}};
  sim.apply_faults(plan);
  fault::Injector injector(net);
  const std::vector<double> x{0.7, 0.2, 0.5};
  EXPECT_NEAR(sim.evaluate(x).output, injector.damaged(plan, x), 1e-12);
}

TEST(Simulator, BoostedFullWaitEqualsEvaluate) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  const std::vector<std::size_t> full_wait{3, 7};  // full fan-in per layer
  const std::vector<double> x{0.4, 0.8, 0.1};
  EXPECT_DOUBLE_EQ(sim.evaluate_boosted(x, full_wait).output,
                   sim.evaluate(x).output);
}

TEST(Simulator, BoostedCutsSlowestSenders) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  // Make layer-1 neuron 4 very slow; a layer-2 wait count of 6 (of 7)
  // must drop exactly that neuron, i.e. behave like its crash.
  std::vector<std::vector<double>> latencies{
      std::vector<double>(7, 1.0), std::vector<double>(5, 0.0)};
  latencies[0][4] = 100.0;
  sim.set_latencies(latencies);
  const std::vector<std::size_t> wait{3, 6};
  const std::vector<double> x{0.3, 0.3, 0.3};
  const auto boosted = sim.evaluate_boosted(x, wait);
  fault::FaultPlan crash;
  crash.neurons = {{1, 4, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::Injector injector(net);
  EXPECT_NEAR(boosted.output, injector.damaged(crash, x), 1e-12);
  // And the boosted run no longer waits for the straggler.
  EXPECT_LT(boosted.completion_time, 100.0);
}

TEST(Simulator, HoldLastPolicyReusesPreviousValue) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  std::vector<std::vector<double>> latencies{
      std::vector<double>(7, 1.0), std::vector<double>(5, 0.0)};
  latencies[0][2] = 50.0;
  sim.set_latencies(latencies);
  const std::vector<std::size_t> wait{3, 6};
  const std::vector<double> x{0.6, 0.6, 0.6};
  // First evaluation primes the history with the full-wait values.
  sim.reset_history();
  sim.evaluate(x);
  const auto held = sim.evaluate_boosted(x, wait, ResetPolicy::kHoldLast);
  // With history equal to the nominal activations, hold-last equals the
  // nominal output exactly.
  nn::Workspace ws;
  EXPECT_NEAR(held.output, net.evaluate(x, ws), 1e-12);
}

TEST(Simulator, ZeroPolicyIgnoresHistoryAfterReset) {
  // reset_history() must leave kZero untouched and make kHoldLast fall
  // back to reset-to-zero: with no history, both policies cut identically.
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  std::vector<std::vector<double>> latencies{
      std::vector<double>(7, 1.0), std::vector<double>(5, 0.0)};
  latencies[0][4] = 100.0;
  sim.set_latencies(latencies);
  const std::vector<std::size_t> wait{3, 6};
  const std::vector<double> x{0.3, 0.3, 0.3};
  sim.evaluate(x);  // primes history with the nominal activations
  sim.reset_history();
  const double zero = sim.evaluate_boosted(x, wait).output;
  sim.reset_history();
  const double held =
      sim.evaluate_boosted(x, wait, ResetPolicy::kHoldLast).output;
  EXPECT_DOUBLE_EQ(held, zero);
  // And both equal the crash of the cut straggler — history played no part.
  fault::FaultPlan crash;
  crash.neurons = {{1, 4, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::Injector injector(net);
  EXPECT_NEAR(zero, injector.damaged(crash, x), 1e-12);
}

TEST(Simulator, NegativeCapacityDisablesClampLikeZero) {
  // capacity <= 0 is Lemma 1's unbounded regime; negative values must not
  // be read as a (nonsensical) tiny channel.
  const auto net = sim_net();
  SimConfig config;
  config.capacity = -1.0;
  NetworkSimulator sim(net, config);
  fault::FaultPlan plan;
  plan.neurons = {{2, 1, fault::NeuronFaultKind::kByzantine, 1e12}};
  sim.apply_faults(plan);
  const std::vector<double> x{0.5, 0.5, 0.5};
  nn::Workspace ws;
  EXPECT_GT(std::fabs(sim.evaluate(x).output - net.evaluate(x, ws)), 1e6);
}

TEST(Latency, ModelsProduceSaneDraws) {
  Rng rng(5);
  for (auto kind :
       {LatencyKind::kConstant, LatencyKind::kUniform, LatencyKind::kHeavyTail}) {
    LatencyModel model;
    model.kind = kind;
    model.base = 2.0;
    model.spread = 8.0;
    for (int n = 0; n < 500; ++n) {
      const double latency = model.sample(rng);
      EXPECT_GE(latency, 2.0);
      EXPECT_LE(latency, 16.0);
    }
  }
}

TEST(Latency, SampleLayersShapes) {
  Rng rng(7);
  LatencyModel model;
  const auto latencies = model.sample_layers({4, 6, 2}, rng);
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_EQ(latencies[0].size(), 4u);
  EXPECT_EQ(latencies[1].size(), 6u);
  EXPECT_EQ(latencies[2].size(), 2u);
}

TEST(Boosting, WaitCountsFromCut) {
  const auto net = sim_net();  // widths 7, 5
  const auto wait = wait_counts_from_cut(net, {2, 1});
  ASSERT_EQ(wait.size(), 3u);  // one entry per receiver set, output included
  EXPECT_EQ(wait[0], 3u);      // layer 1 waits for all inputs
  EXPECT_EQ(wait[1], 5u);      // layer 2 waits for 7 - 2 senders
  EXPECT_EQ(wait[2], 4u);      // the output client waits for 5 - 1 senders
}

TEST(Boosting, OversizedCutClampsInsteadOfUnderflowing) {
  const auto net = sim_net();  // widths 7, 5
  const auto wait = wait_counts_from_cut(net, {100, 0});
  ASSERT_EQ(wait.size(), 3u);
  EXPECT_EQ(wait[0], 3u);  // inputs are clients; never cut
  EXPECT_EQ(wait[1], 0u);  // cut >= N_1 clamps to "wait for nobody"
  EXPECT_EQ(wait[2], 5u);  // no top-layer cut: full output wait
  // Waiting for nobody reads every layer-1 sender as 0 — exactly the
  // whole-layer crash.
  NetworkSimulator sim(net, SimConfig{});
  const std::vector<double> x{0.2, 0.5, 0.8};
  fault::FaultPlan crash_all;
  for (std::size_t j = 0; j < 7; ++j) {
    crash_all.neurons.push_back({1, j, fault::NeuronFaultKind::kCrash, 0.0});
  }
  fault::Injector injector(net);
  EXPECT_NEAR(sim.evaluate_boosted(x, wait).output,
              injector.damaged(crash_all, x), 1e-12);
}

TEST(Boosting, ReportSpeedsUpAndStaysInBound) {
  const auto net = sim_net(13);
  Rng rng(17);
  std::vector<std::vector<double>> workload;
  for (int n = 0; n < 24; ++n) {
    workload.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  BoostingConfig config;
  config.straggler_cut = {2, 0};
  config.latency.kind = LatencyKind::kHeavyTail;
  config.latency.base = 1.0;
  config.latency.spread = 50.0;
  config.latency.straggler_fraction = 0.3;
  const theory::ErrorBudget budget{0.9, 1e-6};
  const auto report = run_boosting(net, workload, config, budget);
  EXPECT_LT(report.mean_boosted_time, report.mean_full_time);
  EXPECT_GT(report.speedup, 1.0);
  EXPECT_LE(report.max_abs_error, report.crash_fep_bound + 1e-9);
}

TEST(Boosting, ZeroCutIsFreeAndExact) {
  const auto net = sim_net(19);
  Rng rng(23);
  std::vector<std::vector<double>> workload;
  for (int n = 0; n < 8; ++n) {
    workload.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  BoostingConfig config;
  config.straggler_cut = {0, 0};
  const auto report = run_boosting(net, workload, config, {0.5, 1e-6});
  EXPECT_DOUBLE_EQ(report.max_abs_error, 0.0);
  EXPECT_DOUBLE_EQ(report.crash_fep_bound, 0.0);
  EXPECT_TRUE(report.certified);
}

TEST(Simulator, OutputCutDropsSlowestTopLayerSender) {
  // An (L+1)-th wait count extends the cut to the output synapse set: the
  // output client refuses the slowest layer-L sender, which must read
  // exactly like that neuron's crash — and stop charging its latency.
  const auto net = sim_net();  // widths 7, 5
  NetworkSimulator sim(net, SimConfig{});
  std::vector<std::vector<double>> latencies{
      std::vector<double>(7, 0.0), std::vector<double>(5, 1.0)};
  latencies[1][1] = 100.0;
  sim.set_latencies(latencies);
  const std::vector<std::size_t> wait{3, 7, 4};  // full waits + output cut 1
  const std::vector<double> x{0.4, 0.2, 0.7};
  const auto boosted = sim.evaluate_boosted(x, wait);
  fault::FaultPlan crash;
  crash.neurons = {{2, 1, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::Injector injector(net);
  EXPECT_NEAR(boosted.output, injector.damaged(crash, x), 1e-12);
  EXPECT_DOUBLE_EQ(boosted.completion_time, 1.0);
  // layer_fire_times still reports when the slow neuron itself fired.
  EXPECT_DOUBLE_EQ(boosted.layer_fire_times[1], 100.0);
}

TEST(Simulator, OutputCutHoldLastReusesTopLayerHistory) {
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  std::vector<std::vector<double>> latencies{
      std::vector<double>(7, 0.0), std::vector<double>(5, 1.0)};
  latencies[1][3] = 100.0;
  sim.set_latencies(latencies);
  const std::vector<std::size_t> wait{3, 7, 4};
  const std::vector<double> x{0.9, 0.1, 0.5};
  sim.reset_history();
  sim.evaluate(x);  // primes layer-L history with the nominal values
  const auto held = sim.evaluate_boosted(x, wait, ResetPolicy::kHoldLast);
  nn::Workspace ws;
  EXPECT_NEAR(held.output, net.evaluate(x, ws), 1e-12);
}

TEST(Simulator, ResetsSentAccountsEveryReceiverSet) {
  // wait {3, 5, 4} on widths (7, 5): layer 2's five receivers each cut 2
  // of layer 1's senders, and the output client cuts 1 of layer 2's.
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  const std::vector<double> x{0.3, 0.6, 0.9};
  EXPECT_EQ(sim.evaluate(x).resets_sent, 0u);
  const std::vector<std::size_t> hidden_only{3, 5};
  EXPECT_EQ(sim.evaluate_boosted(x, hidden_only).resets_sent, 2u * 5u);
  const std::vector<std::size_t> with_output{3, 5, 4};
  EXPECT_EQ(sim.evaluate_boosted(x, with_output).resets_sent,
            2u * 5u + 1u * 1u);
  // Wait counts past the fan-in clamp: nothing is cut, nothing is reset.
  const std::vector<std::size_t> oversized{100, 100, 100};
  EXPECT_EQ(sim.evaluate_boosted(x, oversized).resets_sent, 0u);
}

TEST(Latency, HeavyTailDrawsDeterministicUnderSplit) {
  // Equal-seeded roots yield bit-identical child streams — the property
  // every per-request split seeding in boosting and serving rests on.
  LatencyModel model{LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  Rng root_a(41);
  Rng root_b(41);
  Rng child_a1 = root_a.split();
  Rng child_a2 = root_a.split();
  Rng child_b1 = root_b.split();
  Rng child_b2 = root_b.split();
  bool siblings_differ = false;
  for (int n = 0; n < 200; ++n) {
    const double first = model.sample(child_a1);
    EXPECT_DOUBLE_EQ(first, model.sample(child_b1));
    const double second = model.sample(child_a2);
    EXPECT_DOUBLE_EQ(second, model.sample(child_b2));
    siblings_differ = siblings_differ || first != second;
  }
  EXPECT_TRUE(siblings_differ);  // distinct splits are independent streams
}

TEST(Latency, SampleLayersIntoMatchesSampleLayers) {
  // sample_layers_into validates the model once per call instead of per
  // draw; its draws must still be exactly a loop of sample(), bit for bit,
  // into a reshaped buffer, and leave the stream where that loop leaves
  // it, for every kind. sample_layers returns the same draws.
  const std::vector<std::size_t> widths{5, 1, 12};
  for (const auto kind :
       {LatencyKind::kConstant, LatencyKind::kUniform, LatencyKind::kHeavyTail}) {
    const LatencyModel model{kind, 1.5, 30.0, 0.25};
    Rng rng_a(43);
    Rng rng_b(43);
    Rng rng_c(43);
    const auto fresh = model.sample_layers(widths, rng_c);
    std::vector<std::vector<double>> reused{{9.0, 9.0}};  // wrong shape
    model.sample_layers_into(widths, rng_a, reused);
    ASSERT_EQ(reused.size(), widths.size());
    for (std::size_t l = 0; l < widths.size(); ++l) {
      ASSERT_EQ(reused[l].size(), widths[l]);
      for (std::size_t j = 0; j < widths[l]; ++j) {
        EXPECT_EQ(bits(reused[l][j]), bits(model.sample(rng_b)))
            << static_cast<int>(kind) << " layer " << l;
        EXPECT_EQ(bits(fresh[l][j]), bits(reused[l][j]));
      }
    }
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64()) << static_cast<int>(kind);
  }
}

TEST(Latency, BlockDrawsMatchPerRequestDraws) {
  // Each request's block draws are sample_layers_into's on a copy of its
  // stream, bit for bit, and each stream ends where that call leaves it,
  // a cached normal deviate included, for every kind and block size
  // (pairs in vector lanes, an odd request alone).
  const std::vector<std::vector<std::size_t>> shapes{{64, 64, 64}, {5, 3}};
  for (const auto kind :
       {LatencyKind::kConstant, LatencyKind::kUniform, LatencyKind::kHeavyTail}) {
    const LatencyModel model{kind, 1.5, 30.0, 0.25};
    for (const auto& widths : shapes) {
      std::size_t n = 0;
      for (const std::size_t w : widths) n += w;
      for (const std::size_t probes : {1u, 2u, 3u, 8u, 17u}) {
        Rng root(91 + probes);
        std::vector<Rng> streams;
        for (std::size_t p = 0; p < probes; ++p) {
          streams.push_back(root.split());
          // Caches a deviate, in either lane of a pair and alone.
          if (p % 3 == 1) streams.back().normal();
        }
        const std::vector<Rng> reference_streams = streams;
        std::vector<double> block(probes * n, -1.0);
        model.sample_block_into(widths, streams, block);
        for (std::size_t p = 0; p < probes; ++p) {
          Rng reference = reference_streams[p];
          std::vector<std::vector<double>> layers;
          model.sample_layers_into(widths, reference, layers);
          std::vector<double> expected;
          for (const auto& layer : layers) {
            expected.insert(expected.end(), layer.begin(), layer.end());
          }
          ASSERT_EQ(expected.size(), n);
          EXPECT_EQ(std::memcmp(block.data() + p * n, expected.data(),
                                n * sizeof(double)),
                    0)
              << static_cast<int>(kind) << ", P = " << probes << ", p = "
              << p << ", n = " << n;
          Rng after = streams[p];
          if (p % 3 == 1) {
            EXPECT_EQ(bits(after.normal()), bits(reference.normal()))
                << static_cast<int>(kind) << ", P = " << probes << ", p = "
                << p;
          }
          EXPECT_EQ(after.next_u64(), reference.next_u64())
              << static_cast<int>(kind) << ", P = " << probes << ", p = "
              << p;
        }
      }
    }
  }
}

TEST(LatencyDeathTest, InvalidModelAbortsThroughSampleLayersInto) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::size_t> widths{3, 2};
  std::vector<std::vector<double>> out;
  Rng rng(53);
  const LatencyModel invalid[3] = {
      {LatencyKind::kUniform, -1.0, 2.0, 0.0},
      {LatencyKind::kUniform, 1.0, -2.0, 0.0},
      {LatencyKind::kHeavyTail, 1.0, 2.0, 1.5},
  };
  for (const LatencyModel& model : invalid) {
    EXPECT_DEATH(model.sample_layers_into(widths, rng, out), "precondition");
    EXPECT_DEATH(model.sample(rng), "precondition");
  }
  // An empty shape draws nothing, but the model is still checked.
  EXPECT_DEATH(invalid[0].sample_layers_into({}, rng, out), "precondition");
}

TEST(Boosting, TopLayerCutIsExecutedNotJustCounted) {
  // A cut of layer L's stragglers must now buy completion time (the output
  // client stops waiting for them) while the error stays inside the bound
  // that always counted f_L.
  const auto net = sim_net(13);
  Rng rng(29);
  std::vector<std::vector<double>> workload;
  for (int n = 0; n < 24; ++n) {
    workload.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  BoostingConfig config;
  config.straggler_cut = {0, 2};  // top layer only
  config.latency.kind = LatencyKind::kHeavyTail;
  config.latency.base = 1.0;
  config.latency.spread = 50.0;
  config.latency.straggler_fraction = 0.3;
  const auto report = run_boosting(net, workload, config, {0.9, 1e-6});
  EXPECT_LT(report.mean_boosted_time, report.mean_full_time);
  EXPECT_GT(report.speedup, 1.0);
  EXPECT_LE(report.max_abs_error, report.crash_fep_bound + 1e-9);
  EXPECT_GT(report.max_abs_error, 0.0);
}

TEST(Boosting, ParallelWorkloadLoopIsReproducible) {
  // The kZero workload loop fans out over the global thread pool; the
  // report must still be a pure function of the seed.
  const auto net = sim_net(13);
  Rng rng(17);
  std::vector<std::vector<double>> workload;
  for (int n = 0; n < 64; ++n) {
    workload.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  BoostingConfig config;
  config.straggler_cut = {2, 1};
  config.latency.kind = LatencyKind::kHeavyTail;
  config.latency.base = 1.0;
  config.latency.spread = 50.0;
  config.latency.straggler_fraction = 0.3;
  const theory::ErrorBudget budget{0.9, 1e-6};
  const auto first = run_boosting(net, workload, config, budget);
  const auto second = run_boosting(net, workload, config, budget);
  EXPECT_DOUBLE_EQ(first.mean_full_time, second.mean_full_time);
  EXPECT_DOUBLE_EQ(first.mean_boosted_time, second.mean_boosted_time);
  EXPECT_DOUBLE_EQ(first.mean_abs_error, second.mean_abs_error);
  EXPECT_DOUBLE_EQ(first.max_abs_error, second.max_abs_error);
}

/// 8 -> 12 -> 10 -> 6 with a small-world layer 2 whose per-edge channels
/// alternate binding (0.3) and non-binding (4.0) capacities.
nn::FeedForwardNetwork capped_small_world_net() {
  Rng rng(71);
  auto net = nn::NetworkBuilder(8)
                 .activation(nn::ActivationKind::kSigmoid, 1.0)
                 .hidden(12)
                 .hidden(10, nn::Topology::small_world(4, 0.3))
                 .hidden(6)
                 .init(nn::InitKind::kUniform, 0.6)
                 .build(rng);
  nn::LayerTopology topo = *net.layer(2).topology();
  std::vector<double> caps(topo.edge_count());
  for (std::size_t e = 0; e < caps.size(); ++e) {
    caps[e] = e % 3 == 0 ? 0.3 : 4.0;
  }
  topo.set_edge_capacities(std::move(caps));
  net.layer(2).set_topology(std::move(topo));
  return net;
}

TEST(Simulator, ResultBitsPinnedUnderCutsFaultsAndChannels) {
  // Golden bits for every SimResult field under everything the simulator
  // layers on the forward pass at once: cuts on every receiver set (output
  // included) under hold-last and then kZero, heavy-tail latencies, a
  // binding global capacity, per-edge channels, and a perturbation-
  // convention plan mixing every neuron species with synapse faults on a
  // capped edge and on the output set.
  const auto net = capped_small_world_net();
  const auto* topo = net.layer(2).topology();
  ASSERT_EQ(topo->edge_capacity(0), 0.3);
  fault::FaultPlan plan;  // perturbation convention (the default)
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                  {1, 7, fault::NeuronFaultKind::kByzantine, 0.4},
                  {2, 5, fault::NeuronFaultKind::kStuckAt, 0.7},
                  {3, 1, fault::NeuronFaultKind::kByzantine, -0.5}};
  plan.synapses = {{2, topo->edge_row(0), topo->cols()[0],
                    fault::SynapseFaultKind::kCrash, 0.0},
                   {4, 0, 3, fault::SynapseFaultKind::kByzantine, 0.6}};
  SimConfig config;
  config.capacity = 0.9;
  NetworkSimulator sim(net, config);
  sim.apply_faults(plan);
  const LatencyModel latency{LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  const std::vector<std::size_t> cut{6, 9, 7, 4};

  struct Golden {
    std::uint64_t output;
    std::uint64_t completion_time;
    std::size_t resets_sent;
    std::uint64_t fire[3];
  };
  const Golden golden[4] = {
      {0xbfbd8bdd82651b42ull, 0x404fca385575f3dbull, 74,
       {0x404790a07c70b627ull, 0x4052ccdee2b4d6cdull, 0x4056ee8ca44a6106ull}},
      {0xbfac6a6d764a69b4ull, 0x404543e43649d763ull, 74,
       {0x40444005cbbe228full, 0x4049d33eb41e729dull, 0x4053a79486c166cbull}},
      {0x3f940b41d3ac8e88ull, 0x4041252a2411fab4ull, 74,
       {0x4046eccb43a5ee31ull, 0x40536af775e5cbc0ull, 0x4051b262069e6ab6ull}},
      {0xbfddcdd91a650a02ull, 0x401383277c5cff18ull, 74,
       {0x403c5684b0251626ull, 0x4043f6b1eaf4f5d4ull, 0x4049c59c3a1e0c0cull}},
  };
  Rng root(73);
  for (int round = 0; round < 4; ++round) {
    Rng child = root.split();
    sim.sample_latencies(latency, child);
    std::vector<double> x(net.input_dim());
    for (double& v : x) v = child.uniform();
    const auto policy = round < 3 ? ResetPolicy::kHoldLast : ResetPolicy::kZero;
    const auto result = sim.evaluate_boosted(x, cut, policy);
    EXPECT_EQ(bits(result.output), golden[round].output) << round;
    EXPECT_EQ(bits(result.completion_time), golden[round].completion_time)
        << round;
    EXPECT_EQ(result.resets_sent, golden[round].resets_sent) << round;
    ASSERT_EQ(result.layer_fire_times.size(), 3u);
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_EQ(bits(result.layer_fire_times[l]), golden[round].fire[l])
          << round << " layer " << l + 1;
    }
  }
}

TEST(Simulator, BlockMatchesPerRequestBitForBit) {
  // evaluate_block against the one-request path: a fresh simulator per
  // configuration draws each request's latencies with sample_latencies
  // and runs evaluate_boosted. Every request's output and completion time
  // keep their bits and its resets their count, under full waits, cuts
  // (with and without the output entry), every neuron and synapse fault
  // species (the output set included), per-edge channels, and binding,
  // unit and unbounded capacities. One block simulator serves every
  // block size in turn, so a block also reads nothing a larger earlier
  // block left behind.
  using fault::NeuronFaultKind;
  using fault::SynapseFaultKind;
  const auto dense = sim_net(13);
  const auto capped = capped_small_world_net();
  const LatencyModel latency{LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  struct Case {
    const nn::FeedForwardNetwork* net;
    std::vector<std::size_t> waits;  // empty: full waits, as evaluate()
  };
  const std::vector<Case> cases{
      {&dense, {}},
      {&dense, {3, 7}},                                // full, explicit
      {&dense, wait_counts_from_cut(dense, {2, 1})},   // size L + 1
      {&dense, {3, 5}},                                // L entries: a cut
      {&capped, {}},
      {&capped, {6, 9, 7, 4}},                         // output entry too
      {&capped, {8, 12, 7}},
  };
  for (const Case& c : cases) {
    const nn::FeedForwardNetwork& net = *c.net;
    const std::size_t depth = net.layer_count();
    fault::FaultPlan faults;
    faults.neurons = {{1, 2, NeuronFaultKind::kCrash, 0.0},
                      {1, 4, NeuronFaultKind::kByzantine, 0.4},
                      {2, 1, NeuronFaultKind::kStuckAt, 0.7}};
    if (depth == 3) {
      faults.neurons.push_back({3, 1, NeuronFaultKind::kByzantine, -0.5});
      const auto* topo = net.layer(2).topology();
      faults.synapses = {{2, topo->edge_row(0), topo->cols()[0],
                          SynapseFaultKind::kCrash, 0.0},
                         {2, topo->edge_row(3), topo->cols()[3],
                          SynapseFaultKind::kByzantine, 0.3}};
    } else {
      faults.synapses = {{2, 1, 3, SynapseFaultKind::kCrash, 0.0},
                         {2, 4, 6, SynapseFaultKind::kByzantine, 0.3}};
    }
    faults.synapses.push_back({depth + 1, 0, 1, SynapseFaultKind::kCrash, 0.0});
    faults.synapses.push_back(
        {depth + 1, 0, 2, SynapseFaultKind::kByzantine, 0.6});
    fault::FaultPlan transmitted = faults;
    transmitted.convention = theory::CapacityConvention::kTransmittedValueBound;
    for (const auto& plan : {fault::FaultPlan{}, faults, transmitted}) {
      for (const double capacity : {0.9, 1.0, 0.0, -1.0}) {
        SimConfig config;
        config.capacity = capacity;
        NetworkSimulator block_sim(net, config);
        block_sim.apply_faults(plan);
        std::vector<std::size_t> full_wait{net.input_dim()};
        for (std::size_t l = 1; l < depth; ++l) {
          full_wait.push_back(net.layer_width(l));
        }
        const std::vector<std::size_t>& waits =
            c.waits.empty() ? full_wait : c.waits;
        Rng root(101);
        for (const std::size_t probes : {17u, 1u, 8u, 2u, 3u}) {
          std::vector<std::vector<double>> xs(probes);
          std::vector<std::span<const double>> inputs;
          std::vector<Rng> streams;
          for (auto& x : xs) {
            streams.push_back(root.split());
            x.resize(net.input_dim());
            for (double& v : x) v = root.uniform(-1.0, 1.0);
            inputs.emplace_back(x);
          }
          const std::vector<Rng> reference_streams = streams;
          std::vector<SimResult> results(probes);
          block_sim.evaluate_block(inputs, streams, latency, c.waits, results);
          NetworkSimulator reference(net, config);
          reference.apply_faults(plan);
          for (std::size_t p = 0; p < probes; ++p) {
            Rng stream = reference_streams[p];
            reference.sample_latencies(latency, stream);
            const auto expected = reference.evaluate_boosted(xs[p], waits);
            EXPECT_EQ(bits(results[p].output), bits(expected.output))
                << "P = " << probes << ", p = " << p << ", C = " << capacity;
            EXPECT_EQ(bits(results[p].completion_time),
                      bits(expected.completion_time))
                << "P = " << probes << ", p = " << p;
            EXPECT_EQ(results[p].resets_sent, expected.resets_sent)
                << "P = " << probes << ", p = " << p;
            EXPECT_TRUE(results[p].layer_fire_times.empty());
            EXPECT_EQ(streams[p].next_u64(), stream.next_u64());
          }
        }
      }
    }
  }
}

TEST(Simulator, BlockLeavesTheHoldLastHistoryEmpty) {
  // After a block, a hold-last cut reads 0, as after reset_history().
  const auto net = sim_net();
  NetworkSimulator sim(net, SimConfig{});
  std::vector<std::vector<double>> latencies{
      std::vector<double>(7, 1.0), std::vector<double>(5, 0.0)};
  latencies[0][4] = 100.0;
  sim.set_latencies(latencies);
  const std::vector<std::size_t> wait{3, 6};
  const std::vector<double> x{0.3, 0.3, 0.3};
  sim.evaluate(x);  // primes the history
  const std::vector<std::span<const double>> inputs{x};
  std::vector<Rng> streams{Rng(5)};
  std::vector<SimResult> results(1);
  sim.evaluate_block(inputs, streams, {}, {}, results);
  const double held =
      sim.evaluate_boosted(x, wait, ResetPolicy::kHoldLast).output;
  sim.reset_history();
  EXPECT_EQ(bits(held), bits(sim.evaluate_boosted(x, wait).output));
}

}  // namespace
}  // namespace wnf::dist
