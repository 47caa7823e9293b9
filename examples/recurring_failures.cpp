// Recurring catastrophic failures as a timeline-driven campaign — the
// scenario class the related work studies (Sardi et al.'s reoccurring
// failures, Roxin et al.'s progressive structural damage) expressed
// through the unified execution layer: one serve::FaultTimeline consumed
// by fault::run_timeline_campaign, replayed identically on the
// message-level simulator backend and the multi-worker serving backend.
//
// The scenario: crashes recur in periodic bursts, then the damage turns
// progressive — each phase kills one more top-layer neuron than the last.
// Per-phase worst errors are compared against the crash Fep of that
// phase's fault counts, and the two backends must agree bit-for-bit.
//
// backend= chooses what replays the scenario against the simulator
// reference: serve (default, the threaded pool), transport (worker
// processes — the recurring bursts also SIGKILL a real worker each time),
// injector (the analytic path), or sim (a second simulator).
//
// Run: ./recurring_failures [trials=120] [probes=8] [replicas=4] [seed=11]
//                           [backend=serve]
//                           [trace=out.json] [metrics=out.json]
//                           [snapshot=out.jsonl]
// (trace= exports a strict-JSON Chrome trace of the run, metrics= the
// end-of-run registry snapshots, snapshot= attaches an obs::Snapshotter
// streaming fixed-interval windows DURING the campaign — on the transport
// backend the stream's sources include the fleet registry, whose campaign
// rebind registers as a "reset":true window whenever a window boundary
// lands between deployments. All three exports are re-read and
// strict-linted before exit.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/fep.hpp"
#include "exec/injector_backend.hpp"
#include "exec/serve_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/campaign.hpp"
#include "nn/builder.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "transport/worker.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

/// Strict-lints an exported JSON file; false (with a message) on any
/// deviation from RFC 8259.
bool lint_json_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot reopen %s\n", what, path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const wnf::obs::JsonLintResult lint = wnf::obs::json_lint(text.str());
  if (!lint.ok) {
    std::fprintf(stderr, "%s: %s is not strict JSON at offset %zu: %s\n",
                 what, path.c_str(), lint.error_offset, lint.error.c_str());
    return false;
  }
  return true;
}

/// Strict-lints a line-delimited snapshot stream (every line must lint
/// independently); returns the window-line count, or -1 on any violation.
long lint_snapshot_stream(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "snapshot export: cannot reopen %s\n", path.c_str());
    return -1;
  }
  std::string line;
  long windows = 0;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const wnf::obs::JsonLintResult lint = wnf::obs::json_lint(line);
    if (!lint.ok) {
      std::fprintf(stderr, "snapshot export: %s line %ld invalid: %s\n",
                   path.c_str(), windows, lint.error.c_str());
      return -1;
    }
    if (first) {
      first = false;
      if (line.find("\"kind\":\"header\"") == std::string::npos) {
        std::fprintf(stderr, "snapshot export: missing header line\n");
        return -1;
      }
    } else {
      ++windows;
    }
  }
  return windows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wnf;
  CliArgs args(argc, argv);
  const auto trials = std::max<std::size_t>(
      60, static_cast<std::size_t>(args.get_int("trials", 120)));
  const auto probes = static_cast<std::size_t>(args.get_int("probes", 8));
  const auto replicas = static_cast<std::size_t>(args.get_int("replicas", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  const std::string backend = args.get_string("backend", "serve");
  const std::string trace_path = args.get_string("trace", "");
  const std::string metrics_path = args.get_string("metrics", "");
  const std::string snapshot_path = args.get_string("snapshot", "");
  args.reject_unknown();
  if (!trace_path.empty()) obs::set_enabled(true);
  if (backend != "serve" && backend != "transport" && backend != "sim" &&
      backend != "injector") {
    std::fprintf(stderr,
                 "unknown backend=%s (expected injector|sim|serve|"
                 "transport)\n", backend.c_str());
    return 1;
  }
  if (backend == "transport" && !transport::transport_available()) {
    std::printf("transport backend unavailable on this platform (no POSIX "
                "fork/socketpair); nothing to do.\n");
    return 0;
  }

  print_banner(std::cout, "recurring failures as a timeline campaign [" +
                              backend + " vs simulator]");

  Rng rng(seed);
  const auto net = nn::NetworkBuilder(2)
                       .activation(nn::ActivationKind::kSigmoid, 1.0)
                       .hidden(16)
                       .hidden(12)
                       .init(nn::InitKind::kScaledUniform, 0.8)
                       .build(rng);

  // Phase 1 — reoccurring bursts: the same two layer-1 neurons crash for
  // `burst` trials out of every `period`, three times in a row.
  serve::FaultTimeline timeline;
  fault::FaultPlan burst_plan;
  burst_plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                        {1, 9, fault::NeuronFaultKind::kCrash, 0.0}};
  const std::uint64_t period = trials / 10;
  const std::uint64_t burst = period / 2;
  for (std::uint64_t k = 0; k < 3; ++k) {
    timeline.add(k * period, k * period + burst, burst_plan);
  }

  // Phase 2 — progressive damage: from trial `damage_start` on, one more
  // top-layer neuron is dead in each successive window, and the last
  // window never clears.
  const std::uint64_t damage_start = 4 * period;
  const std::uint64_t damage_step = 2 * period;
  for (std::uint64_t stage = 0; stage < 3; ++stage) {
    fault::FaultPlan cumulative;
    for (std::uint64_t dead = 0; dead <= stage; ++dead) {
      cumulative.neurons.push_back(
          {2, dead, fault::NeuronFaultKind::kCrash, 0.0});
    }
    const std::uint64_t start = damage_start + stage * damage_step;
    const std::uint64_t end = stage == 2 ? serve::FaultTimeline::kForever
                                         : start + damage_step;
    timeline.add(start, end, cumulative);
  }

  fault::TimelineCampaignConfig config;
  config.trials = trials;
  config.probes_per_trial = probes;
  config.seed = seed + 1;

  // The same scenario on the simulator reference and the chosen backend.
  exec::SimulatorBackend simulator(net);
  std::unique_ptr<exec::EvalBackend> other;
  exec::TransportBackend* transport_backend = nullptr;
  if (backend == "serve") {
    exec::ServeBackendOptions serve_options;
    serve_options.replicas = replicas;
    other = std::make_unique<exec::ServeBackend>(net, serve_options);
  } else if (backend == "transport") {
    exec::TransportBackendOptions transport_options;
    transport_options.workers = replicas;
    // Every recurring burst also SIGKILLs a real worker process at the
    // burst's first request and respawns it at the recovery boundary
    // (request ids are trial-major probe indices). replicas=0 means
    // hardware concurrency, so resolve it before picking victims.
    const std::size_t victims = replicas > 0
        ? replicas
        : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    for (std::uint64_t k = 0; k < 3; ++k) {
      transport_options.crash_script.push_back(
          {static_cast<std::size_t>(k % victims), k * period * probes,
           (k * period + burst) * probes});
    }
    auto transport_owner =
        std::make_unique<exec::TransportBackend>(net, transport_options);
    transport_backend = transport_owner.get();
    other = std::move(transport_owner);
  } else if (backend == "sim") {
    other = std::make_unique<exec::SimulatorBackend>(net);
  } else {
    other = std::make_unique<exec::InjectorBackend>(net);
  }
  // snapshot=: continuous windows over the campaign. Sources must exist
  // before start(); the transport backend forks its campaign fleet lazily
  // on the first run, so a one-trial warmup campaign creates it here —
  // harmless for bit-identity because every campaign rebinds (restarting
  // request ids on the same seed). The real campaign's rebind then resets
  // the fleet registry mid-stream, which the Snapshotter detects (counters
  // going backwards) and reports as "reset":true whenever a window
  // boundary straddles it — per-deployment deltas, detected not configured.
  std::unique_ptr<obs::Snapshotter> snapshotter;
  if (!snapshot_path.empty()) {
    if (transport_backend != nullptr) {
      fault::TimelineCampaignConfig warmup = config;
      warmup.trials = 1;
      warmup.probes_per_trial = 1;
      fault::run_timeline_campaign(net, serve::FaultTimeline{}, warmup,
                                   *other);
    }
    obs::SnapshotterConfig snap_config;
    snap_config.path = snapshot_path;
    snap_config.interval_seconds = 0.025;
    snap_config.label = "recurring_failures";
    snapshotter = std::make_unique<obs::Snapshotter>(snap_config);
    if (transport_backend != nullptr) {
      snapshotter->add_source("fleet",
                              &transport_backend->runtime()->metrics());
    }
    if (!snapshotter->start()) {
      std::fprintf(stderr, "snapshot export: cannot open %s\n",
                   snapshot_path.c_str());
      return 1;
    }
  }

  const auto on_simulator =
      fault::run_timeline_campaign(net, timeline, config, simulator);
  const auto on_other =
      fault::run_timeline_campaign(net, timeline, config, *other);
  if (snapshotter) snapshotter->stop();
  for (std::size_t t = 0; t < trials; ++t) {
    WNF_ASSERT(on_simulator.per_trial_error[t] == on_other.per_trial_error[t] &&
               "every backend must replay the scenario identically");
  }

  theory::FepOptions options;
  options.mode = theory::FailureMode::kCrash;
  const auto prof = theory::profile_of(net, options);
  const auto phase_worst = [&](std::uint64_t start, std::uint64_t end) {
    double worst = 0.0;
    for (std::uint64_t t = start; t < std::min<std::uint64_t>(end, trials);
         ++t) {
      worst = std::max(worst, on_simulator.per_trial_error[t]);
    }
    return worst;
  };
  const auto crash_fep = [&](std::vector<std::size_t> counts) {
    return theory::forward_error_propagation(prof, counts, options);
  };

  Table table({"phase", "trials", "worst |error|", "crash Fep", "inside"});
  const auto add_phase = [&](const char* name, std::uint64_t start,
                             std::uint64_t end,
                             std::vector<std::size_t> counts) {
    const double worst = phase_worst(start, end);
    const double bound = crash_fep(std::move(counts));
    table.add_row({name,
                   std::to_string(std::min<std::uint64_t>(end, trials) - start),
                   Table::sci(worst, 3), Table::sci(bound, 3),
                   worst <= bound + 1e-9 ? "yes" : "NO"});
  };
  add_phase("burst 1 (f = {2,0})", 0, burst, {2, 0});
  add_phase("between bursts", burst, period, {0, 0});
  add_phase("burst 3", 2 * period, 2 * period + burst, {2, 0});
  add_phase("calm before damage", 3 * period, damage_start, {0, 0});
  add_phase("damage stage 1 (f = {0,1})", damage_start,
            damage_start + damage_step, {0, 1});
  add_phase("damage stage 2 (f = {0,2})", damage_start + damage_step,
            damage_start + 2 * damage_step, {0, 2});
  add_phase("damage stage 3+ (f = {0,3})", damage_start + 2 * damage_step,
            trials, {0, 3});
  table.print(std::cout);

  std::printf(
      "\n%zu of %zu trials ran under an active fault window; every phase's\n"
      "worst observed error sits inside the crash Fep of that phase's fault\n"
      "counts, and the %s backend (%zu workers) reproduced the simulator\n"
      "trial-for-trial, bit-for-bit%s.\n",
      on_simulator.faulty_trials, trials, backend.c_str(), replicas,
      backend == "transport"
          ? " — through three real SIGKILLed worker processes"
          : "");

  // --- observability exports (trace= / metrics= / snapshot=), all
  // re-read and strict-linted before a clean exit ---
  if (!snapshot_path.empty()) {
    const long windows = lint_snapshot_stream(snapshot_path);
    if (windows < 1) {
      std::fprintf(stderr, "snapshot export: stream has no valid window\n");
      return 1;
    }
    std::printf("snapshot: %ld windows (every line strict-lints) -> %s\n",
                windows, snapshot_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::vector<obs::NamedSnapshot> registries;
    if (transport_backend != nullptr &&
        transport_backend->runtime() != nullptr) {
      // The fleet registry holds the LAST deployment's deltas: each
      // campaign rebind resets it (per-deployment counters by design).
      registries.push_back(
          {"fleet", transport_backend->runtime()->metrics().snapshot()});
    }
    if (snapshotter) {
      registries.push_back({"snapshot", snapshotter->metrics().snapshot()});
    }
    if (!obs::write_metrics_json_file(metrics_path, registries)) {
      std::fprintf(stderr, "metrics export: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
    if (!lint_json_file(metrics_path, "metrics export")) return 1;
    std::printf("metrics: %zu registries -> %s\n", registries.size(),
                metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    const obs::ChromeTraceSummary summary =
        obs::write_chrome_trace_file(trace_path, {});
    if (!lint_json_file(trace_path, "trace export")) return 1;
    // The serial sim/injector backends are uninstrumented: their trace is
    // legitimately empty. The deployments must have recorded something.
    const bool instrumented = backend == "serve" || backend == "transport";
    if (instrumented && summary.events == 0) {
      std::fprintf(stderr, "trace export: no events recorded\n");
      return 1;
    }
    std::printf("trace: %zu events -> %s\n", summary.events,
                trace_path.c_str());
  }
  return 0;
}
