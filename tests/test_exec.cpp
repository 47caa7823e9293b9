// Execution-backend tests: the EvalBackend seam over the analytic path
// (Injector), the message-level simulator, and the serving pool. Pins the
// acceptance bar of the backend refactor: every AttackKind runs on every
// backend, Injector↔Simulator are bit-equal at campaign scale under the
// transmitted-value convention, serve-backend campaigns are bit-identical
// across worker counts, timeline-driven campaigns apply faults
// mid-trial-stream, and every backend's parallel run_trials (the forked
// transport's included, where fork exists) matches the sequential default.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/injector_backend.hpp"
#include "exec/serve_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "nn/builder.hpp"

namespace wnf::exec {
namespace {

nn::FeedForwardNetwork exec_net(std::uint64_t seed = 5) {
  Rng rng(seed);
  return nn::NetworkBuilder(2)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(6)
      .hidden(5)
      .init(nn::InitKind::kUniform, 0.6)
      .build(rng);
}

const std::vector<fault::AttackKind>& all_attacks() {
  static const std::vector<fault::AttackKind> attacks{
      fault::AttackKind::kRandomCrash,
      fault::AttackKind::kTopWeightCrash,
      fault::AttackKind::kGreedyCrash,
      fault::AttackKind::kRandomByzantine,
      fault::AttackKind::kGradientByzantine,
      fault::AttackKind::kRandomSynapseByzantine};
  return attacks;
}

std::vector<std::size_t> counts_for(const nn::FeedForwardNetwork& net,
                                    fault::AttackKind kind) {
  std::vector<std::size_t> counts(net.layer_count(), 1);
  if (kind == fault::AttackKind::kRandomSynapseByzantine) counts.push_back(1);
  return counts;
}

theory::FepOptions options_for(fault::AttackKind kind) {
  theory::FepOptions options;
  options.capacity = 1.0;
  const bool crash = kind == fault::AttackKind::kRandomCrash ||
                     kind == fault::AttackKind::kTopWeightCrash ||
                     kind == fault::AttackKind::kGreedyCrash;
  options.mode =
      crash ? theory::FailureMode::kCrash : theory::FailureMode::kByzantine;
  return options;
}

TEST(ExecBackend, SerialInterfaceAgreesWithInjectorSemantics) {
  // install/evaluate/clear on each backend must reproduce Injector::damaged
  // for a transmitted-value plan (the convention all three paths share).
  const auto net = exec_net();
  const std::vector<double> x{0.3, 0.8};
  fault::FaultPlan plan;
  plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                  {2, 1, fault::NeuronFaultKind::kByzantine, 0.9}};
  fault::Injector injector(net);
  const double expected = injector.damaged(plan, x);
  const double nominal = injector.nominal(x);

  InjectorBackend on_injector(net);
  SimulatorBackend on_simulator(net);
  ServeBackend on_serve(net);
  for (EvalBackend* backend :
       std::vector<EvalBackend*>{&on_injector, &on_simulator, &on_serve}) {
    backend->install(plan);
    EXPECT_DOUBLE_EQ(backend->evaluate(x).output, expected)
        << backend->name();
    backend->clear();
    EXPECT_DOUBLE_EQ(backend->evaluate(x).output, nominal)
        << backend->name();
    EXPECT_EQ(&backend->network(), &net);
  }
}

TEST(ExecBackend, ParallelRunTrialsMatchesSequentialDefault) {
  // With latency-independent options (no cut, instantaneous network) the
  // overridden run_trials implementations must return bit-identical outputs
  // to the base-class sequential reference; see run_trials' docs for why
  // latency-dependent metadata may be organized differently.
  const auto net = exec_net(7);
  Rng rng(11);
  std::vector<Trial> trials(3);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    for (int n = 0; n < 4; ++n) {
      trials[t].probes.push_back({rng.uniform(), rng.uniform()});
    }
    trials[t].plan.convention =
        theory::CapacityConvention::kTransmittedValueBound;
    trials[t].plan.neurons = {
        {1, t, fault::NeuronFaultKind::kCrash, 0.0},
        {2, t, fault::NeuronFaultKind::kByzantine, 0.5}};
  }
  trials[1].plan = fault::FaultPlan{};  // a fault-free trial mid-stream
  nn::Workspace ws;
  for (Trial& trial : trials) compute_nominal(net, trial, ws);

  InjectorBackend injector_backend(net);
  SimulatorBackend simulator_backend(net);
  ServeBackendOptions serve_options;
  serve_options.replicas = 2;
  ServeBackend serve_backend(net, serve_options);
  std::vector<EvalBackend*> backends{&injector_backend, &simulator_backend,
                                     &serve_backend};
  // The forked transport fleet shares the serving tail (pool-parallel
  // trial scoring); platforms without POSIX fork skip just this backend.
  std::unique_ptr<TransportBackend> transport_backend;
  if (transport::WorkerHost::available()) {
    TransportBackendOptions transport_options;
    transport_options.workers = 2;
    transport_backend =
        std::make_unique<TransportBackend>(net, transport_options);
    backends.push_back(transport_backend.get());
  }
  for (EvalBackend* backend : backends) {
    const auto parallel = backend->run_trials(trials);
    const auto sequential = backend->EvalBackend::run_trials(trials);
    ASSERT_EQ(parallel.size(), sequential.size()) << backend->name();
    for (std::size_t t = 0; t < parallel.size(); ++t) {
      EXPECT_DOUBLE_EQ(parallel[t].worst_error, sequential[t].worst_error)
          << backend->name();
      ASSERT_EQ(parallel[t].probes.size(), sequential[t].probes.size());
      for (std::size_t i = 0; i < parallel[t].probes.size(); ++i) {
        EXPECT_DOUBLE_EQ(parallel[t].probes[i].output,
                         sequential[t].probes[i].output)
            << backend->name();
      }
    }
  }
}

TEST(Campaign, EveryAttackRunsOnEveryBackend) {
  const auto net = exec_net(13);
  InjectorBackend injector_backend(net);
  SimulatorBackend simulator_backend(net);
  ServeBackendOptions serve_options;
  serve_options.replicas = 2;
  ServeBackend serve_backend(net, serve_options);

  for (const fault::AttackKind kind : all_attacks()) {
    fault::CampaignConfig config;
    config.attack = kind;
    config.trials = 6;
    config.probes_per_trial = 4;
    config.seed = 17;
    const auto counts = counts_for(net, kind);
    const auto options = options_for(kind);
    for (EvalBackend* backend : std::vector<EvalBackend*>{
             &injector_backend, &simulator_backend, &serve_backend}) {
      const auto result =
          fault::run_campaign(net, counts, config, options, *backend);
      EXPECT_EQ(result.per_trial_worst.count, config.trials)
          << backend->name() << " attack " << static_cast<int>(kind);
      EXPECT_GE(result.observed_max, 0.0);
      EXPECT_TRUE(std::isfinite(result.observed_max));
      EXPECT_GT(result.fep_bound, 0.0);
    }
    // The analytic path realizes the worst-case model the bound covers.
    const auto analytic =
        fault::run_campaign(net, counts, config, options, injector_backend);
    EXPECT_LE(analytic.observed_max, analytic.fep_bound + 1e-9);
  }
}

TEST(Campaign, CrossCheckPinsInjectorSimulatorBitEquivalence) {
  // The acceptance bar: under the transmitted-value convention the analytic
  // and message-level paths agree bit-for-bit for every attack, at campaign
  // scale (not just on hand-written plans).
  const auto net = exec_net(19);
  InjectorBackend injector_backend(net);
  SimulatorBackend simulator_backend(net);
  for (const fault::AttackKind kind : all_attacks()) {
    fault::CampaignConfig config;
    config.attack = kind;
    config.trials = 25;
    config.probes_per_trial = 6;
    config.seed = 23;
    config.convention = theory::CapacityConvention::kTransmittedValueBound;
    theory::FepOptions options = options_for(kind);
    options.convention = config.convention;
    const auto check = fault::cross_check_campaign(
        net, counts_for(net, kind), config, options, injector_backend,
        simulator_backend);
    EXPECT_EQ(check.max_divergence, 0.0)
        << "attack " << static_cast<int>(kind);
    EXPECT_DOUBLE_EQ(check.first.observed_max, check.second.observed_max);
    EXPECT_DOUBLE_EQ(check.first.per_trial_worst.mean,
                     check.second.per_trial_worst.mean);
  }
}

TEST(Campaign, CrossCheckSimulatorServeBitEquivalence) {
  // With instantaneous latencies and no cut, the serving pool is the
  // simulator replicated — outputs must agree exactly on the same trials.
  const auto net = exec_net(19);
  SimulatorBackend simulator_backend(net);
  ServeBackendOptions serve_options;
  serve_options.replicas = 3;
  ServeBackend serve_backend(net, serve_options);
  for (const fault::AttackKind kind : all_attacks()) {
    fault::CampaignConfig config;
    config.attack = kind;
    config.trials = 12;
    config.probes_per_trial = 4;
    config.seed = 29;
    config.convention = theory::CapacityConvention::kTransmittedValueBound;
    const auto check = fault::cross_check_campaign(
        net, counts_for(net, kind), config, options_for(kind),
        simulator_backend, serve_backend);
    EXPECT_EQ(check.max_divergence, 0.0)
        << "attack " << static_cast<int>(kind);
  }
}

TEST(Campaign, PerturbationConventionDivergesOnDeepByzantineNeurons) {
  // The documented divergence (src/dist/sim.hpp): under the perturbation
  // convention a simulator Byzantine neuron perturbs its locally computed
  // value — which already carries upstream damage — while the Injector
  // perturbs the offline nominal trace. With a victim in each layer the
  // paths must disagree; cross-checks therefore require the
  // transmitted-value convention.
  const auto net = exec_net(31);
  InjectorBackend injector_backend(net);
  SimulatorBackend simulator_backend(net);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kGradientByzantine;
  config.trials = 8;
  config.probes_per_trial = 4;
  config.seed = 37;
  config.convention = theory::CapacityConvention::kPerturbationBound;
  const auto check = fault::cross_check_campaign(
      net, counts_for(net, config.attack), config, options_for(config.attack),
      injector_backend, simulator_backend);
  EXPECT_GT(check.max_divergence, 0.0);
}

TEST(Campaign, ServeBackendBitIdenticalAcrossWorkerCounts) {
  // The acceptance bar: serve-backend campaign results are bit-identical
  // for 1, 2, and 8 workers — under per-request heavy-tail latencies and a
  // Corollary-2 straggler cut, so scheduling genuinely varies.
  const auto net = exec_net(41);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomByzantine;
  config.trials = 12;
  config.probes_per_trial = 5;
  config.seed = 43;
  config.convention = theory::CapacityConvention::kTransmittedValueBound;
  const auto counts = counts_for(net, config.attack);
  const auto trials = fault::make_campaign_trials(net, counts, config);

  std::vector<std::vector<TrialResult>> runs;
  std::vector<fault::CampaignResult> campaigns;
  for (const std::size_t replicas : {1u, 2u, 8u}) {
    ServeBackendOptions options;
    options.replicas = replicas;
    options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
    options.straggler_cut = {2, 1};
    options.seed = 99;
    ServeBackend backend(net, options);
    runs.push_back(backend.run_trials(trials));
    campaigns.push_back(fault::run_campaign(net, counts, config,
                                            options_for(config.attack),
                                            backend));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t t = 0; t < runs[0].size(); ++t) {
      EXPECT_DOUBLE_EQ(runs[r][t].worst_error, runs[0][t].worst_error);
      ASSERT_EQ(runs[r][t].probes.size(), runs[0][t].probes.size());
      for (std::size_t i = 0; i < runs[0][t].probes.size(); ++i) {
        EXPECT_DOUBLE_EQ(runs[r][t].probes[i].output,
                         runs[0][t].probes[i].output);
        EXPECT_DOUBLE_EQ(runs[r][t].probes[i].completion_time,
                         runs[0][t].probes[i].completion_time);
        EXPECT_EQ(runs[r][t].probes[i].resets_sent,
                  runs[0][t].probes[i].resets_sent);
      }
    }
    EXPECT_DOUBLE_EQ(campaigns[r].observed_max, campaigns[0].observed_max);
    EXPECT_DOUBLE_EQ(campaigns[r].per_trial_worst.mean,
                     campaigns[0].per_trial_worst.mean);
    EXPECT_DOUBLE_EQ(campaigns[r].per_trial_worst.stddev,
                     campaigns[0].per_trial_worst.stddev);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Golden bits of one campaign summary: observed_max, the per-trial worst
/// count/min/mean/max, and the Fep bound (0 where the call has none).
struct PinnedSummary {
  std::uint64_t observed_max;
  std::size_t count;
  std::uint64_t min;
  std::uint64_t mean;
  std::uint64_t max;
  std::uint64_t fep_bound;
};

void expect_pinned(double observed_max, const Summary& worst,
                   double fep_bound, const PinnedSummary& golden,
                   const std::string& what) {
  EXPECT_EQ(bits(observed_max), golden.observed_max)
      << what << " observed_max 0x" << std::hex << bits(observed_max);
  EXPECT_EQ(worst.count, golden.count) << what;
  EXPECT_EQ(bits(worst.min), golden.min)
      << what << " min 0x" << std::hex << bits(worst.min);
  EXPECT_EQ(bits(worst.mean), golden.mean)
      << what << " mean 0x" << std::hex << bits(worst.mean);
  EXPECT_EQ(bits(worst.max), golden.max)
      << what << " max 0x" << std::hex << bits(worst.max);
  EXPECT_EQ(bits(fep_bound), golden.fep_bound)
      << what << " fep_bound 0x" << std::hex << bits(fep_bound);
}

void expect_pinned(const fault::CampaignResult& result,
                   const PinnedSummary& golden, const std::string& what) {
  expect_pinned(result.observed_max, result.per_trial_worst,
                result.fep_bound, golden, what);
}

/// 3 -> 8 -> 7 -> 5: three hidden layers, so every family faults more than
/// one layer and the synapse family reaches the output set.
nn::FeedForwardNetwork pinned_net() {
  Rng rng(83);
  return nn::NetworkBuilder(3)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(8)
      .hidden(7)
      .hidden(5)
      .init(nn::InitKind::kUniform, 0.6)
      .build(rng);
}

TEST(Campaign, ResultBitsPinnedOnEveryCampaignEntryPoint) {
  // Golden CampaignResult bits for run_campaign on the Injector, the
  // simulator and the serving pool (the latter two under heavy-tail
  // latencies and a straggler cut, so the latency draws reach the result),
  // for cross_check_campaign of the Injector against the pool on the
  // crash, Byzantine and synapse families, and for a timeline campaign on
  // the pool.
  const auto net = pinned_net();
  const dist::LatencyModel latency{dist::LatencyKind::kHeavyTail, 1.0, 50.0,
                                   0.3};
  const std::vector<std::size_t> cut{2, 2, 1};

  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomByzantine;
  config.trials = 9;
  config.probes_per_trial = 5;
  config.capacity = 1.0;
  config.convention = theory::CapacityConvention::kTransmittedValueBound;
  config.seed = 89;
  theory::FepOptions byzantine = options_for(config.attack);
  byzantine.convention = config.convention;
  const std::vector<std::size_t> counts{1, 1, 1};

  InjectorBackend injector(net);
  SimulatorBackendOptions simulator_options;
  simulator_options.latency = latency;
  simulator_options.straggler_cut = cut;
  simulator_options.latency_seed = 97;
  SimulatorBackend simulator(net, simulator_options);
  ServeBackendOptions serve_options;
  serve_options.replicas = 2;
  serve_options.latency = latency;
  serve_options.straggler_cut = cut;
  serve_options.seed = 101;
  ServeBackend serve_with_cut(net, serve_options);

  const PinnedSummary run_golden[3] = {
      {0x3feaeed40a50766cull, 9, 0x3fb365322a751810ull, 0x3fdc9f6162cc60f6ull,
       0x3feaeed40a50766cull, 0x4024ebea77b20d5full},
      {0x3ff0da33dc1c99d5ull, 9, 0x3fd724257a6ed204ull, 0x3fe64756c7b0f571ull,
       0x3ff0da33dc1c99d5ull, 0x4024ebea77b20d5full},
      {0x3ff3e78c9afd749aull, 9, 0x3fd8b0a0359e10e8ull, 0x3fe70fc6e9962d30ull,
       0x3ff3e78c9afd749aull, 0x4024ebea77b20d5full},
  };
  const std::vector<EvalBackend*> backends{&injector, &simulator,
                                           &serve_with_cut};
  for (std::size_t b = 0; b < backends.size(); ++b) {
    expect_pinned(
        fault::run_campaign(net, counts, config, byzantine, *backends[b]),
        run_golden[b], std::string("run_campaign on ") +
                           std::string(backends[b]->name()));
  }

  // Cross-checks: no cut, so the pool must agree with the Injector.
  serve_options.straggler_cut.clear();
  ServeBackend serve(net, serve_options);
  theory::FepOptions crash = options_for(fault::AttackKind::kRandomCrash);
  struct Family {
    fault::AttackKind attack;
    std::vector<std::size_t> counts;
    theory::FepOptions fep;
    PinnedSummary golden;  ///< both sides of the cross-check
  };
  const Family families[3] = {
      {fault::AttackKind::kRandomCrash, {2, 2, 2}, crash,
       {0x3fe7e7d4a4e5b888ull, 9, 0x3fabc1e341e59060ull,
        0x3fd9a0a5b17e9b7aull, 0x3fe7e7d4a4e5b888ull, 0x401c8ddcc6a134a3ull}},
      {fault::AttackKind::kRandomByzantine, {1, 1, 1}, byzantine,
       {0x3feaeed40a50766cull, 9, 0x3fb365322a751810ull,
        0x3fdc9f6162cc60f6ull, 0x3feaeed40a50766cull, 0x4024ebea77b20d5full}},
      {fault::AttackKind::kRandomSynapseByzantine, {2, 2, 2, 1}, byzantine,
       {0x3fe6374ff3c6ed2dull, 9, 0x3fc37c824ddd2c1cull,
        0x3fdc22b172d75739ull, 0x3fe6374ff3c6ed2dull, 0x4031c7366153bfdbull}},
  };
  for (const Family& family : families) {
    config.attack = family.attack;
    const auto check = fault::cross_check_campaign(
        net, family.counts, config, family.fep, injector, serve);
    const std::string what =
        "cross-check attack " + std::to_string(static_cast<int>(family.attack));
    EXPECT_EQ(check.max_divergence, 0.0) << what;
    expect_pinned(check.first, family.golden, what + " injector");
    expect_pinned(check.second, family.golden, what + " serve");
  }

  fault::FaultPlan crash_plan;
  crash_plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  crash_plan.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0},
                        {2, 0, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine_plan;
  byzantine_plan.convention = crash_plan.convention;
  byzantine_plan.neurons = {{3, 2, fault::NeuronFaultKind::kByzantine, 0.7}};
  serve::FaultTimeline timeline;
  timeline.add(2, 6, crash_plan);
  timeline.add(4, serve::FaultTimeline::kForever, byzantine_plan);
  fault::TimelineCampaignConfig timeline_config;
  timeline_config.trials = 10;
  timeline_config.probes_per_trial = 4;
  timeline_config.seed = 103;
  const auto on_serve = fault::run_timeline_campaign(net, timeline,
                                                     timeline_config, serve);
  EXPECT_EQ(on_serve.faulty_trials, 8u);
  expect_pinned(on_serve.observed_max, on_serve.per_trial_worst, 0.0,
                {0x3fa58e717f61f0b0ull, 10, 0, 0x3f9301bd8e19ae03ull,
                 0x3fa58e717f61f0b0ull, 0},
                "timeline on serve");
}

/// The (layer, neuron) victims of a crash plan, in plan order.
std::vector<std::pair<std::size_t, std::size_t>> victims_of(
    const fault::FaultPlan& plan) {
  std::vector<std::pair<std::size_t, std::size_t>> victims;
  for (const auto& fault : plan.neurons) {
    EXPECT_EQ(fault.kind, fault::NeuronFaultKind::kCrash);
    victims.emplace_back(fault.layer, fault.neuron);
  }
  return victims;
}

TEST(ExecBackend, AdversarySearchBitsPinnedOnInjectorAndServe) {
  // Golden greedy and exhaustive crash searches on the Injector and on the
  // serving pool's serial path (heavy-tail latencies and a straggler cut,
  // so the latency draws reach every score): the victims chosen, and the
  // exhaustive search's worst error, bit for bit.
  const auto net = pinned_net();
  Rng rng(127);
  std::vector<std::vector<double>> probes(6);
  for (auto& probe : probes) {
    probe = {rng.uniform(), rng.uniform(), rng.uniform()};
  }
  const std::span<const std::vector<double>> probe_span{probes.data(),
                                                        probes.size()};

  InjectorBackend injector(net);
  ServeBackendOptions serve_options;
  serve_options.replicas = 2;
  serve_options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  serve_options.straggler_cut = {2, 2, 1};
  serve_options.seed = 131;
  ServeBackend serve(net, serve_options);

  const std::vector<std::size_t> counts{2, 2, 1};
  using Victims = std::vector<std::pair<std::size_t, std::size_t>>;
  struct Golden {
    Victims greedy;
    Victims exhaustive;
    std::uint64_t exhaustive_worst;
  };
  const Golden golden[2] = {
      {{{1, 4}, {1, 0}, {2, 1}, {2, 2}, {3, 3}},
       {{2, 1}, {2, 3}},
       0x3fca754ae9579e28ull},
      {{{1, 4}, {1, 6}, {2, 6}, {2, 3}, {3, 3}},
       {{2, 2}, {2, 3}},
       0x3fe661777f313e46ull},
  };
  const std::vector<EvalBackend*> backends{&injector, &serve};
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const std::string what(backends[b]->name());
    const auto greedy =
        fault::greedy_worst_crash_plan(net, counts, probe_span, *backends[b]);
    EXPECT_EQ(victims_of(greedy), golden[b].greedy) << what << " greedy";
    double worst = 0.0;
    const auto exhaustive = fault::exhaustive_worst_crash_plan(
        net, 2, 2, probe_span, worst, *backends[b]);
    EXPECT_EQ(victims_of(exhaustive), golden[b].exhaustive)
        << what << " exhaustive";
    EXPECT_EQ(bits(worst), golden[b].exhaustive_worst)
        << what << " exhaustive worst 0x" << std::hex << bits(worst);
  }
}

/// An Injector backend that breaks the run_trials contract: it drops the
/// last trial's result, or the last probe's result of every trial.
class DroppingBackend final : public EvalBackend {
 public:
  DroppingBackend(const nn::FeedForwardNetwork& net, bool drop_probe)
      : inner_(net), drop_probe_(drop_probe) {}

  std::string_view name() const override { return "dropping"; }
  const nn::FeedForwardNetwork& network() const override {
    return inner_.network();
  }
  void install(const fault::FaultPlan& plan) override { inner_.install(plan); }
  void clear() override { inner_.clear(); }
  ProbeResult evaluate(std::span<const double> x) override {
    return inner_.evaluate(x);
  }
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override {
    auto results = inner_.run_trials(trials);
    if (drop_probe_) {
      for (TrialResult& result : results) result.probes.pop_back();
    } else {
      results.pop_back();
    }
    return results;
  }

 private:
  InjectorBackend inner_;
  bool drop_probe_;
};

TEST(CampaignDeathTest, BackendThatDropsResultsAborts) {
  // Every campaign entry point checks the backend seam: one TrialResult
  // per trial and one ProbeResult per probe, or the campaign aborts
  // instead of summarising (or, in a cross-check, indexing past) too few.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto net = exec_net(107);
  fault::CampaignConfig config;
  config.trials = 4;
  config.probes_per_trial = 3;
  const auto counts = counts_for(net, config.attack);
  const auto options = options_for(config.attack);
  fault::TimelineCampaignConfig timeline_config;
  timeline_config.trials = 4;
  timeline_config.probes_per_trial = 3;
  InjectorBackend injector(net);
  for (const bool drop_probe : {false, true}) {
    DroppingBackend dropping(net, drop_probe);
    EXPECT_DEATH(fault::run_campaign(net, counts, config, options, dropping),
                 "precondition violated: results");
    EXPECT_DEATH(fault::cross_check_campaign(net, counts, config, options,
                                             injector, dropping),
                 "precondition violated: results");
    EXPECT_DEATH(fault::run_timeline_campaign(net, serve::FaultTimeline{},
                                              timeline_config, dropping),
                 "precondition violated: results");
  }
}

TEST(ExecBackendDeathTest, TrialWithoutOneNominalPerProbeAborts) {
  // Backends score against Trial::nominal and have no fault-free pass to
  // fall back on: a trial built without compute_nominal is rejected.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* const kNoNominal = "precondition violated: trial.nominal";
  const auto net = exec_net(109);
  std::vector<Trial> trials(1);
  trials[0].probes = {{0.2, 0.4}, {0.6, 0.1}};
  InjectorBackend injector(net);
  SimulatorBackend simulator(net);
  ServeBackend serve(net);
  for (EvalBackend* backend :
       std::vector<EvalBackend*>{&injector, &simulator, &serve}) {
    EXPECT_DEATH(backend->run_trials(trials), kNoNominal) << backend->name();
    EXPECT_DEATH(backend->EvalBackend::run_trials(trials), kNoNominal)
        << backend->name();
  }
  nn::Workspace ws;
  compute_nominal(net, trials[0], ws);
  trials[0].nominal.pop_back();
  EXPECT_DEATH(injector.run_trials(trials), kNoNominal);
}

TEST(Campaign, BackendOverloadReproducesLegacyInjectorCampaign) {
  // The 4-argument run_campaign is now a thin wrapper over InjectorBackend;
  // both spellings must agree bit-for-bit.
  const auto net = exec_net(47);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomCrash;
  config.trials = 10;
  config.seed = 53;
  theory::FepOptions options;
  options.mode = theory::FailureMode::kCrash;
  const std::vector<std::size_t> counts{2, 1};
  const auto legacy = fault::run_campaign(net, counts, config, options);
  InjectorBackend backend(net);
  const auto explicit_backend =
      fault::run_campaign(net, counts, config, options, backend);
  EXPECT_DOUBLE_EQ(legacy.observed_max, explicit_backend.observed_max);
  EXPECT_DOUBLE_EQ(legacy.per_trial_worst.mean,
                   explicit_backend.per_trial_worst.mean);
  EXPECT_DOUBLE_EQ(legacy.fep_bound, explicit_backend.fep_bound);
}

TEST(TimelineCampaign, FaultsArriveAndClearMidTrialStream) {
  // Crash window [5, 10): trials outside run clean, trials inside realize
  // exactly the Injector's error for the merged plan on the same probes.
  const auto net = exec_net(59);
  fault::FaultPlan crash;
  crash.neurons = {{2, 0, fault::NeuronFaultKind::kCrash, 0.0},
                   {2, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  serve::FaultTimeline timeline;
  timeline.add(5, 10, crash);

  fault::TimelineCampaignConfig config;
  config.trials = 14;
  config.probes_per_trial = 3;
  config.seed = 61;
  SimulatorBackend backend(net);
  const auto result =
      fault::run_timeline_campaign(net, timeline, config, backend);

  ASSERT_EQ(result.per_trial_error.size(), config.trials);
  EXPECT_EQ(result.faulty_trials, 5u);
  EXPECT_EQ(result.per_trial_worst.count, config.trials);

  // Reconstruct each trial's probes from the same split tree the campaign
  // uses and score the plan on the Injector as the reference.
  Rng seeder(config.seed);
  fault::Injector injector(net);
  for (std::size_t t = 0; t < config.trials; ++t) {
    Rng rng = seeder.split();
    std::vector<std::vector<double>> probes(config.probes_per_trial);
    for (auto& probe : probes) {
      probe = {rng.uniform(), rng.uniform()};
    }
    if (t >= 5 && t < 10) {
      EXPECT_GT(result.per_trial_error[t], 0.0) << "trial " << t;
      EXPECT_DOUBLE_EQ(
          result.per_trial_error[t],
          injector.worst_output_error(crash, {probes.data(), probes.size()}))
          << "trial " << t;
    } else {
      EXPECT_DOUBLE_EQ(result.per_trial_error[t], 0.0) << "trial " << t;
    }
  }
}

TEST(TimelineCampaign, SimulatorAndServeBackendsAgree) {
  // The same timeline scenario runs on the simulator and the multi-worker
  // serving pool with identical per-trial errors — the "every attack
  // scenario on every path" claim for timeline-driven campaigns.
  const auto net = exec_net(67);
  fault::FaultPlan crash;
  crash.convention = theory::CapacityConvention::kTransmittedValueBound;
  crash.neurons = {{1, 1, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.convention = theory::CapacityConvention::kTransmittedValueBound;
  byzantine.neurons = {{2, 2, fault::NeuronFaultKind::kByzantine, 0.8}};
  serve::FaultTimeline timeline;
  timeline.add(3, 9, crash);
  timeline.add(6, serve::FaultTimeline::kForever, byzantine);

  fault::TimelineCampaignConfig config;
  config.trials = 12;
  config.probes_per_trial = 4;
  config.seed = 71;

  SimulatorBackend simulator_backend(net);
  ServeBackendOptions serve_options;
  serve_options.replicas = 4;
  ServeBackend serve_backend(net, serve_options);
  const auto on_simulator =
      fault::run_timeline_campaign(net, timeline, config, simulator_backend);
  const auto on_serve =
      fault::run_timeline_campaign(net, timeline, config, serve_backend);

  ASSERT_EQ(on_simulator.per_trial_error.size(),
            on_serve.per_trial_error.size());
  for (std::size_t t = 0; t < on_simulator.per_trial_error.size(); ++t) {
    EXPECT_DOUBLE_EQ(on_simulator.per_trial_error[t],
                     on_serve.per_trial_error[t])
        << "trial " << t;
  }
  EXPECT_EQ(on_simulator.faulty_trials, on_serve.faulty_trials);
  EXPECT_EQ(on_simulator.faulty_trials, 9u);  // [3,9) plus [6, forever)
  EXPECT_DOUBLE_EQ(on_simulator.observed_max, on_serve.observed_max);
}

TEST(Adversary, SearchesScoreOnAnyBackend) {
  // greedy/exhaustive searches are decoupled from Injector internals: a
  // simulator-backed scorer finds the same victims as the analytic one.
  const auto net = exec_net(73);
  Rng rng(79);
  std::vector<std::vector<double>> probes;
  for (int n = 0; n < 6; ++n) probes.push_back({rng.uniform(), rng.uniform()});
  const std::vector<std::size_t> counts{0, 2};

  InjectorBackend injector_backend(net);
  SimulatorBackend simulator_backend(net);
  const auto greedy_analytic = fault::greedy_worst_crash_plan(
      net, counts, {probes.data(), probes.size()}, injector_backend);
  const auto greedy_simulated = fault::greedy_worst_crash_plan(
      net, counts, {probes.data(), probes.size()}, simulator_backend);
  ASSERT_EQ(greedy_analytic.neurons.size(), greedy_simulated.neurons.size());
  for (std::size_t i = 0; i < greedy_analytic.neurons.size(); ++i) {
    EXPECT_EQ(greedy_analytic.neurons[i].neuron,
              greedy_simulated.neurons[i].neuron);
  }

  double worst_analytic = 0.0;
  double worst_simulated = 0.0;
  const auto exhaustive_analytic = fault::exhaustive_worst_crash_plan(
      net, 2, 2, {probes.data(), probes.size()}, worst_analytic,
      injector_backend);
  const auto exhaustive_simulated = fault::exhaustive_worst_crash_plan(
      net, 2, 2, {probes.data(), probes.size()}, worst_simulated,
      simulator_backend);
  EXPECT_DOUBLE_EQ(worst_analytic, worst_simulated);
  ASSERT_EQ(exhaustive_analytic.neurons.size(),
            exhaustive_simulated.neurons.size());
  for (std::size_t i = 0; i < exhaustive_analytic.neurons.size(); ++i) {
    EXPECT_EQ(exhaustive_analytic.neurons[i].neuron,
              exhaustive_simulated.neurons[i].neuron);
  }
}

/// Every serving backend this platform can run, with `replicas` workers
/// and options that leave outputs latency-independent.
std::vector<std::unique_ptr<EvalBackend>> serving_backends(
    const nn::FeedForwardNetwork& net, std::size_t replicas) {
  std::vector<std::unique_ptr<EvalBackend>> backends;
  ServeBackendOptions serve_options;
  serve_options.replicas = replicas;
  backends.push_back(std::make_unique<ServeBackend>(net, serve_options));
  if (transport::WorkerHost::available()) {
    TransportBackendOptions transport_options;
    transport_options.workers = replicas;
    backends.push_back(
        std::make_unique<TransportBackend>(net, transport_options));
  }
  return backends;
}

TEST(ExecBackend, RepeatedCampaignsReuseOneServeRuntime) {
  // Four run_campaign calls on ONE ServeBackend, with serial evaluations
  // between them, serve on one pool: the first call builds it and every
  // later call rebinds it, so each campaign equals a fresh backend's, bit
  // for bit, under heavy-tail latencies and a straggler cut.
  const auto net = exec_net(137);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomByzantine;
  config.trials = 6;
  config.probes_per_trial = 4;
  config.convention = theory::CapacityConvention::kTransmittedValueBound;
  const auto counts = counts_for(net, config.attack);
  const auto options = options_for(config.attack);
  ServeBackendOptions serve_options;
  serve_options.replicas = 2;
  serve_options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  serve_options.straggler_cut = {2, 1};
  serve_options.seed = 139;
  ServeBackend backend(net, serve_options);
  EXPECT_EQ(backend.runtime(), nullptr);  // nothing built yet

  fault::FaultPlan plan;
  plan.neurons = {{1, 0, fault::NeuronFaultKind::kCrash, 0.0}};
  const serve::ReplicaPool* runtime = nullptr;
  for (std::size_t campaign = 0; campaign < 4; ++campaign) {
    config.seed = 149 + campaign;
    const auto actual = fault::run_campaign(net, counts, config, options,
                                            backend);
    ServeBackend fresh(net, serve_options);
    const auto expected =
        fault::run_campaign(net, counts, config, options, fresh);
    const std::string what = "campaign " + std::to_string(campaign);
    EXPECT_EQ(bits(actual.observed_max), bits(expected.observed_max)) << what;
    EXPECT_EQ(bits(actual.per_trial_worst.mean),
              bits(expected.per_trial_worst.mean))
        << what;
    if (campaign == 0) runtime = backend.runtime();
    ASSERT_NE(backend.runtime(), nullptr);
    EXPECT_EQ(backend.runtime(), runtime) << what;
    const auto report = backend.runtime()->report();
    EXPECT_EQ(report.rebinds, campaign) << what;
    EXPECT_EQ(report.completed, config.trials * config.probes_per_trial)
        << what;
    // Serial traffic between campaigns moves the request stream on; the
    // next campaign's rebind restarts it.
    backend.install(plan);
    backend.evaluate(std::vector<double>{0.4, 0.6});
  }
}

TEST(ExecBackend, EvaluateAfterRunTrialsReinstallsTheInstalledPlan) {
  // install -> run_trials -> evaluate on both runtimes: the trial stream
  // installs its own timeline, and the next evaluate() still runs under
  // the plan installed before it, then fault-free after clear().
  const auto net = exec_net(151);
  const std::vector<double> x{0.7, 0.2};
  fault::FaultPlan plan;
  plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  plan.neurons = {{1, 4, fault::NeuronFaultKind::kCrash, 0.0},
                  {2, 3, fault::NeuronFaultKind::kByzantine, 0.8}};
  fault::Injector injector(net);
  const double damaged = injector.damaged(plan, x);
  const double nominal = injector.nominal(x);
  ASSERT_NE(damaged, nominal);

  fault::CampaignConfig config;
  config.trials = 3;
  config.probes_per_trial = 2;
  config.seed = 157;
  const auto trials = fault::make_campaign_trials(
      net, counts_for(net, config.attack), config);
  for (const auto& backend : serving_backends(net, 2)) {
    backend->install(plan);
    EXPECT_EQ(backend->evaluate(x).output, damaged) << backend->name();
    backend->run_trials(trials);
    EXPECT_EQ(backend->evaluate(x).output, damaged) << backend->name();
    backend->clear();
    EXPECT_EQ(backend->evaluate(x).output, nominal) << backend->name();
  }
}

TEST(ExecBackend, TransportCrashScriptFiresInEveryRunTrialsCall) {
  // A TransportConfig crash script is armed when the fleet is built and
  // re-armed by every rebind: each run_trials call kills and respawns one
  // worker per window, and still serves the serve backend's results.
  if (!transport::WorkerHost::available()) {
    GTEST_SKIP() << "no POSIX fork/socketpair on this platform";
  }
  const auto net = exec_net(163);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomCrash;
  config.trials = 8;
  config.probes_per_trial = 4;
  config.seed = 167;
  const auto trials = fault::make_campaign_trials(
      net, counts_for(net, config.attack), config);

  TransportBackendOptions options;
  options.workers = 2;
  options.crash_script = {{0, 4, 12}, {1, 20, 28}};
  TransportBackend transport(net, options);
  ServeBackend serve(net);
  const auto expected = serve.run_trials(trials);
  for (int call = 0; call < 3; ++call) {
    const auto actual = transport.run_trials(trials);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t t = 0; t < expected.size(); ++t) {
      EXPECT_EQ(bits(actual[t].worst_error), bits(expected[t].worst_error))
          << "call " << call << ", trial " << t;
    }
    const auto report = transport.runtime()->report();
    EXPECT_EQ(report.worker_restarts, options.crash_script.size())
        << "call " << call;
    EXPECT_EQ(report.completed, config.trials * config.probes_per_trial);
  }
}

}  // namespace
}  // namespace wnf::exec
