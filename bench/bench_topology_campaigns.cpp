// Topology campaigns — fault tolerance of dense vs small-world vs
// random-sparse connectivity at a matched parameter budget. The two sparse
// nets share one width and one per-receiver degree (small-world keeps
// exactly k in-edges, random-sparse draws Bernoulli(k/in)); the dense net
// shrinks its width until its synapse count lands on the same budget, so
// the comparison is parameters-for-parameters, not shape-for-shape. Panel 1
// reports each topology's analytic bounds (sparse adjacency tightens the
// FEP error-carrier counts and the Lipschitz product) next to what crash
// and synapse campaigns actually observe. Panel 2 pins the execution story:
// for every topology the same trial stream runs on the injector, the
// message-level simulator, the threaded serving pool, and — where fork
// exists — the multi-process transport with a scripted mid-campaign
// SIGKILL, and every pair must agree bit for bit.
//
// Run: ./bench_topology_campaigns [trials=24] [probes=8] [width=24] [k=6]
//                                 [beta=0.3] [workers=2] [seed=11]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/lipschitz.hpp"
#include "exec/injector_backend.hpp"
#include "exec/serve_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/campaign.hpp"
#include "transport/worker.hpp"
#include "util/contract.hpp"

int main(int argc, char** argv) {
  using namespace wnf;
  CliArgs args(argc, argv);
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 24));
  const auto probes = static_cast<std::size_t>(args.get_int("probes", 8));
  const auto width = static_cast<std::size_t>(args.get_int("width", 24));
  const auto k = static_cast<std::size_t>(args.get_int("k", 6));
  const double beta = args.get_double("beta", 0.3);
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 2));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  args.reject_unknown();

  bench::bench_header(
      "topology campaigns — connectivity vs fault tolerance at a matched "
      "parameter budget",
      "sparse adjacency tightens Theorem 2's error-carrier counts; the same "
      "campaigns replay bit-identically on all four execution backends");

  constexpr std::size_t kInputDim = 8;
  const auto build = [&](const nn::Topology& spec, std::size_t net_width,
                         std::uint64_t net_seed) {
    Rng rng(net_seed);
    return nn::NetworkBuilder(kInputDim)
        .activation(nn::ActivationKind::kSigmoid, 1.0)
        .topology(spec)
        .hidden(net_width)
        .hidden(net_width)
        .init(nn::InitKind::kScaledUniform, 0.8)
        .build(rng);
  };

  // The sparse budget: two layers of `width` receivers with ~k in-edges
  // each. Find the dense width whose synapse count comes closest.
  const auto sparse_budget = build(nn::Topology::small_world(k, beta), width,
                                   seed).synapse_count();
  std::size_t dense_width = 1;
  std::size_t best_gap = static_cast<std::size_t>(-1);
  for (std::size_t w = 1; w <= width; ++w) {
    const std::size_t count = build(nn::Topology::dense(), w, seed)
                                  .synapse_count();
    const std::size_t gap = count > sparse_budget ? count - sparse_budget
                                                  : sparse_budget - count;
    if (gap < best_gap) {
      best_gap = gap;
      dense_width = w;
    }
  }

  struct Variant {
    const char* name;
    nn::FeedForwardNetwork net;
  };
  const double density =
      static_cast<double>(k) / static_cast<double>(width);
  std::vector<Variant> variants;
  variants.push_back({"dense (matched)",
                      build(nn::Topology::dense(), dense_width, seed)});
  variants.push_back({"small-world",
                      build(nn::Topology::small_world(k, beta), width, seed)});
  variants.push_back({"random-sparse",
                      build(nn::Topology::random_sparse(density), width,
                            seed)});

  print_banner(std::cout, "panel 1 — bounds and observed damage per topology");
  std::printf(
      "input %zu, sparse nets %zux2 at degree ~%zu, dense fallback %zux2; "
      "budget %zu synapses\n\n",
      kInputDim, width, k, dense_width, sparse_budget);
  Table bounds_table({"topology", "params", "fep crash f=1/layer",
                      "lipschitz bound", "crash observed", "crash tight",
                      "synapse observed", "synapse tight"});
  for (const auto& variant : variants) {
    const auto& net = variant.net;
    theory::FepOptions crash_options;
    crash_options.mode = theory::FailureMode::kCrash;
    const std::vector<std::size_t> crash_counts(net.layer_count(), 1);
    const double fep = theory::forward_error_propagation(net, crash_counts,
                                                         crash_options);
    const double lip =
        theory::network_lipschitz_bound(theory::profile_of(net));

    fault::CampaignConfig crash_config;
    crash_config.attack = fault::AttackKind::kRandomCrash;
    crash_config.trials = trials;
    crash_config.probes_per_trial = probes;
    crash_config.seed = seed + 1;
    const auto crash_result = fault::run_campaign(
        net, crash_counts, crash_config, crash_options);

    fault::CampaignConfig synapse_config;
    synapse_config.attack = fault::AttackKind::kRandomSynapseByzantine;
    synapse_config.trials = trials;
    synapse_config.probes_per_trial = probes;
    synapse_config.seed = seed + 2;
    std::vector<std::size_t> synapse_counts(net.layer_count() + 1, 1);
    theory::FepOptions byz_options;
    byz_options.mode = theory::FailureMode::kByzantine;
    const auto synapse_result = fault::run_campaign(
        net, synapse_counts, synapse_config, byz_options);

    bounds_table.add_row(
        {variant.name, std::to_string(net.synapse_count()),
         Table::sci(fep, 3), Table::sci(lip, 3),
         Table::sci(crash_result.observed_max, 3),
         Table::num(crash_result.tightness(), 4),
         Table::sci(synapse_result.observed_max, 3),
         Table::num(synapse_result.tightness(), 4)});
  }
  bounds_table.print(std::cout);

  print_banner(std::cout,
               "panel 2 — the same campaigns, bit-identical on every backend");
  const bool transport = transport::transport_available();
  Table check_table({"topology", "pair", "attack", "max divergence",
                     "agree", "wall ms"});
  for (const auto& variant : variants) {
    const auto& net = variant.net;
    exec::InjectorBackend injector(net);
    exec::SimulatorBackend simulator(net);
    exec::ServeBackendOptions serve_options;
    serve_options.replicas = workers;
    exec::ServeBackend serve(net, serve_options);
    // One persistent fleet per topology: the first run_trials forks it, the
    // second rebind()s it, and the crash script replays from request id 0
    // both times.
    std::unique_ptr<exec::TransportBackend> transport_backend;
    if (transport) {
      exec::TransportBackendOptions transport_options;
      transport_options.workers = workers;
      transport_options.crash_script = {{0, 4, 4 + trials * probes / 4}};
      transport_backend = std::make_unique<exec::TransportBackend>(
          net, transport_options);
    }
    for (const auto attack : {fault::AttackKind::kRandomCrash,
                              fault::AttackKind::kRandomSynapseByzantine}) {
      fault::CampaignConfig config;
      config.attack = attack;
      config.trials = trials;
      config.probes_per_trial = probes;
      config.seed = seed + 3;
      // Byzantine neuron semantics only coincide across the analytic and
      // message paths under the transmitted-value convention.
      config.convention = theory::CapacityConvention::kTransmittedValueBound;
      std::vector<std::size_t> counts(net.layer_count(), 1);
      theory::FepOptions options;
      options.mode = attack == fault::AttackKind::kRandomCrash
                         ? theory::FailureMode::kCrash
                         : theory::FailureMode::kByzantine;
      options.convention = config.convention;
      if (attack == fault::AttackKind::kRandomSynapseByzantine) {
        counts.push_back(1);
      }
      const char* attack_name =
          attack == fault::AttackKind::kRandomCrash ? "crash" : "synapse byz";

      std::vector<std::tuple<const char*, exec::EvalBackend*,
                             exec::EvalBackend*>> pairs{
          {"injector vs simulator", &injector, &simulator},
          {"simulator vs serve", &simulator, &serve}};
      for (const auto& [pair_name, first, second] : pairs) {
        const auto start = std::chrono::steady_clock::now();
        const auto check = fault::cross_check_campaign(net, counts, config,
                                                       options, *first,
                                                       *second);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        check_table.add_row({variant.name, pair_name, attack_name,
                             Table::sci(check.max_divergence, 3),
                             check.max_divergence == 0.0 ? "bit-equal" : "NO",
                             Table::num(ms, 2)});
        WNF_ASSERT(check.max_divergence == 0.0 &&
                   "backends must agree under the transmitted-value "
                   "convention");
      }

      if (transport) {
        // The multi-process path, with a worker SIGKILLed mid-campaign:
        // the fleet must resubmit the dead worker's requests and still
        // reproduce the simulator's bytes.
        const auto stream = fault::make_campaign_trials(net, counts, config);
        const auto start = std::chrono::steady_clock::now();
        const auto sim_run = simulator.run_trials(stream);
        const auto transport_run = transport_backend->run_trials(stream);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        double divergence = 0.0;
        WNF_ASSERT(sim_run.size() == transport_run.size());
        for (std::size_t t = 0; t < sim_run.size(); ++t) {
          WNF_ASSERT(sim_run[t].probes.size() ==
                     transport_run[t].probes.size());
          for (std::size_t i = 0; i < sim_run[t].probes.size(); ++i) {
            const double gap = std::fabs(sim_run[t].probes[i].output -
                                         transport_run[t].probes[i].output);
            divergence = std::max(divergence, gap);
          }
        }
        check_table.add_row({variant.name, "simulator vs transport+SIGKILL",
                             attack_name, Table::sci(divergence, 3),
                             divergence == 0.0 ? "bit-equal" : "NO",
                             Table::num(ms, 2)});
        WNF_ASSERT(divergence == 0.0 &&
                   "transport must replay the simulator's bytes through "
                   "worker deaths");
      }
    }
  }
  check_table.print(std::cout);
  if (!transport) {
    std::printf("\n(transport rows skipped: no POSIX fork on this "
                "platform)\n");
  }
  std::printf(
      "\nresult: at one parameter budget, sparse adjacency buys tighter\n"
      "analytic fault bounds (fewer error carriers per receiver), and every\n"
      "topology's campaign replays bit-identically across the analytic,\n"
      "message-level, threaded, and multi-process execution paths.\n");
  return 0;
}
