// A fault-aware serving deployment: the trained network behind a replica
// pool taking batched traffic while faults arrive and clear mid-stream —
// the scenario class (failures as processes in time) that one-shot fault
// plans cannot express.
//
// The timeline: a healthy warm-up, then two layer-1 neurons crash and
// later recover, then a short Byzantine burst hits a layer-2 neuron.
// Every request also runs under a certified Corollary-2 straggler cut, so
// the deployment is simultaneously fast (doesn't wait for stragglers) and
// degraded (some of its processes are failing) — and the measured output
// deviation in the crash window still sits inside the crash Fep bound.
//
// The same scenario runs on any execution layer via backend=:
//   serve      (default) in-process replica pool, one simulator per thread
//   transport  worker *processes* fed through shared-memory rings — the
//              crash window also SIGKILLs a real worker, which the host
//              heals
//   sim        one message-level simulator, driven request by request
//   injector   the analytic path (no clocks; deviations only)
// All four serve bit-identical outputs for the same seed wherever outputs
// are latency-independent, and serve/transport are bit-identical always.
//
// Run: ./serve_deployment [seed=5] [requests=600] [replicas=4]
//                         [backend=serve] [trace=<file>] [metrics=<file>]
// (trace= enables tracing and exports the run as Chrome trace_event JSON;
// metrics= exports the deployment's metric registry as JSON — both
// self-validated with a strict JSON lint.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/fep.hpp"
#include "data/dataset.hpp"
#include "dist/boosting.hpp"
#include "exec/injector_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "nn/builder.hpp"
#include "nn/loss.hpp"
#include "nn/train.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/pool.hpp"
#include "transport/host.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace wnf;
  CliArgs args(argc, argv);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 5)));
  // The scenario needs room for its windows; fewer than 30 requests would
  // degenerate the crash window to an empty (invalid) interval.
  const auto requests = std::max<std::size_t>(
      30, static_cast<std::size_t>(args.get_int("requests", 600)));
  const auto replicas = static_cast<std::size_t>(args.get_int("replicas", 4));
  const std::string backend = args.get_string("backend", "serve");
  const std::string trace_path = args.get_string("trace", "");
  const std::string metrics_path = args.get_string("metrics", "");
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

  print_banner(std::cout,
               ("fault-aware serving deployment [" + backend + "]").c_str());

  // Train the model this deployment serves.
  const auto target = data::make_mean(2);
  const auto train_set = data::sample_uniform(target, 200, rng);
  auto net = nn::NetworkBuilder(2)
                 .activation(nn::ActivationKind::kSigmoid, 1.0)
                 .hidden(24)
                 .hidden(20)
                 .init(nn::InitKind::kScaledUniform, 0.8)
                 .build(rng);
  nn::TrainConfig train_config;
  train_config.epochs = 120;
  train_config.learning_rate = 0.02;
  train_config.weight_decay = 1e-4;
  nn::train(net, train_set, train_config, rng);

  // Traffic and the fault scenario, timed in request ids.
  std::vector<std::vector<double>> workload;
  for (std::size_t n = 0; n < requests; ++n) {
    workload.push_back({rng.uniform(), rng.uniform()});
  }
  const std::uint64_t crash_start = requests / 4;
  const std::uint64_t crash_end = requests / 2;
  const std::uint64_t burst_start = (2 * requests) / 3;
  const std::uint64_t burst_end = burst_start + std::max<std::uint64_t>(
                                                    1, requests / 15);

  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0},
                   {1, 17, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan burst;
  burst.neurons = {{2, 5, fault::NeuronFaultKind::kByzantine, 0.8}};
  serve::FaultTimeline timeline;
  timeline.add(crash_start, crash_end, crash);
  timeline.add(burst_start, burst_end, burst);

  // The deployment shape: replicas + bounded queue + a certified cut.
  const dist::LatencyModel latency{dist::LatencyKind::kHeavyTail, 1.0, 50.0,
                                   0.25};
  const std::vector<std::size_t> straggler_cut{4, 0};
  const std::uint64_t serve_seed = 99;

  // What does the cut cost analytically? The crash-mode Fep of the cut,
  // and of the timeline's crash window, bound the deviations below.
  theory::FepOptions options;
  options.mode = theory::FailureMode::kCrash;
  options.weight_convention = nn::WeightMaxConvention::kExcludeBias;
  const auto prof = theory::profile_of(net, options);
  const std::vector<std::size_t> crash_counts{2, 0};
  const double cut_bound =
      theory::forward_error_propagation(prof, straggler_cut, options);
  const double crash_bound =
      theory::forward_error_propagation(prof, crash_counts, options);
  std::printf(
      "cut {4,0} crash-Fep %.4f; crash window {2,0} crash-Fep %.4f\n"
      "timeline: crash [%llu,%llu), Byzantine burst [%llu,%llu) over %zu "
      "requests\n\n",
      cut_bound, crash_bound,
      static_cast<unsigned long long>(crash_start),
      static_cast<unsigned long long>(crash_end),
      static_cast<unsigned long long>(burst_start),
      static_cast<unsigned long long>(burst_end), requests);

  // Serve the scenario, and the identical traffic fault-free — same seed,
  // so per-request deviations isolate the injected faults.
  std::vector<serve::RequestResult> served;
  std::vector<serve::RequestResult> reference;
  serve::ServeReport report;
  bool have_report = false;
  /// Registry snapshots taken while the deployments are still alive (the
  /// serial sim/injector backends have none; the export is then just the
  /// series-less empty registry list).
  std::vector<obs::NamedSnapshot> registries;

  // Both deployment runtimes expose the same submit/drain/report shape;
  // one batching discipline serves either, so the two backends the
  // example proves identical cannot silently diverge here.
  const auto serve_traffic = [&](auto& deployment, auto& healthy) {
    const std::size_t batch = 100;
    for (std::size_t at = 0; at < requests; at += batch) {
      const std::size_t take = std::min(batch, requests - at);
      deployment.submit_batch({workload.data() + at, take});
      healthy.submit_batch({workload.data() + at, take});
      for (auto& r : deployment.drain()) served.push_back(r);
      for (auto& r : healthy.drain()) reference.push_back(r);
    }
    report = deployment.report();
    have_report = true;
  };

  if (backend == "serve") {
    serve::ServeConfig config;
    config.replicas = replicas;
    config.queue_capacity = requests;
    config.latency = latency;
    config.straggler_cut = straggler_cut;
    config.seed = serve_seed;
    serve::ReplicaPool pool(net, config);
    pool.set_timeline(timeline);
    serve::ReplicaPool healthy(net, config);
    serve_traffic(pool, healthy);
    if (!metrics_path.empty()) {
      registries.push_back({"pool", pool.metrics().snapshot()});
    }
  } else if (backend == "transport") {
    transport::TransportConfig config;
    config.workers = replicas;
    config.queue_capacity = requests;
    config.latency = latency;
    config.straggler_cut = straggler_cut;
    config.seed = serve_seed;
    transport::WorkerHost host(net, config);
    host.set_timeline(timeline);
    // The logical crash window kills worker process 0 for real: its
    // in-flight requests finish on the survivors, and the host respawns
    // it exactly when the neurons recover.
    host.set_crash_script({{0, crash_start, crash_end}});
    transport::WorkerHost healthy(net, config);
    serve_traffic(host, healthy);
    if (!metrics_path.empty()) {
      registries.push_back({"host", host.metrics().snapshot()});
    }
  } else {
    // Request-by-request on a serial exec backend: injector (analytic) or
    // simulator (message path). Faults install at segment boundaries.
    serve::FaultTimeline finalized = timeline;
    finalized.finalize(net);
    const auto run_stream = [&](exec::EvalBackend& eval, bool faulty) {
      std::vector<serve::RequestResult> results;
      std::size_t segment = ~std::size_t{0};
      for (std::size_t id = 0; id < requests; ++id) {
        if (faulty) {
          const std::size_t at = finalized.segment_at(id);
          if (at != segment) {
            eval.install(finalized.segment_plan(at));
            segment = at;
          }
        }
        const auto probe = eval.evaluate(workload[id]);
        results.push_back({id, probe.output, probe.completion_time,
                           probe.resets_sent});
      }
      return results;
    };
    if (backend == "sim") {
      exec::SimulatorBackendOptions sim_options;
      sim_options.latency = latency;
      sim_options.straggler_cut = straggler_cut;
      sim_options.latency_seed = serve_seed;
      exec::SimulatorBackend faulty(net, sim_options);
      exec::SimulatorBackend clean(net, sim_options);
      served = run_stream(faulty, true);
      reference = run_stream(clean, false);
    } else {
      exec::InjectorBackend faulty(net);
      exec::InjectorBackend clean(net);
      served = run_stream(faulty, true);
      reference = run_stream(clean, false);
    }
  }

  // Phase-by-phase deviation from the fault-free deployment.
  struct Phase {
    const char* name;
    std::uint64_t start, end;
  };
  const Phase phases[] = {
      {"healthy warm-up", 0, crash_start},
      {"crash window", crash_start, crash_end},
      {"recovered", crash_end, burst_start},
      {"Byzantine burst", burst_start, burst_end},
      {"healthy tail", burst_end, requests},
  };
  Table table({"phase", "requests", "max |out - healthy|", "analytic note"});
  for (const auto& phase : phases) {
    double worst = 0.0;
    for (std::uint64_t id = phase.start; id < phase.end; ++id) {
      worst = std::max(worst,
                       std::fabs(served[id].output - reference[id].output));
    }
    std::string note = "-";
    if (phase.start == crash_start) {
      note = worst <= crash_bound ? "<= crash Fep(2,0)" : "EXCEEDS BOUND";
    } else if (phase.start == burst_start) {
      note = "Byzantine: crash bound does not apply";
    }
    table.add_row({phase.name,
                   std::to_string(phase.end - phase.start),
                   Table::sci(worst, 2), note});
  }
  table.print(std::cout);

  if (have_report) {
    print_banner(std::cout, "deployment report");
    Table summary({"replicas", "completed", "rejected", "wall s", "req/s",
                   "p50 t", "p95 t", "p99 t", "resets", "restarts",
                   "resubmitted"});
    summary.add_row({std::to_string(report.replicas),
                     std::to_string(report.completed),
                     std::to_string(report.rejected),
                     Table::num(report.wall_seconds, 3),
                     Table::num(report.throughput_rps, 5),
                     Table::num(report.p50, 4), Table::num(report.p95, 4),
                     Table::num(report.p99, 4),
                     std::to_string(report.resets_sent),
                     std::to_string(report.worker_restarts),
                     std::to_string(report.resubmitted)});
    summary.print(std::cout);
  }
  if (backend == "transport") {
    std::printf(
        "\nthe crash window SIGKILLed a real worker process; its in-flight\n"
        "requests completed on the survivors, it respawned at the recovery\n"
        "boundary, and every output is still bit-identical to the threaded\n"
        "pool at any worker count.\n");
  } else {
    std::printf(
        "\nthe crash window's deviation stays inside the crash Fep bound;\n"
        "rerunning with any replica count (or backend=transport, real\n"
        "worker processes) reproduces the serving numbers exactly.\n");
  }

  // --- observability exports (trace= / metrics=), self-validated ---
  if (!metrics_path.empty()) {
    if (!obs::write_metrics_json_file(metrics_path, registries)) {
      std::fprintf(stderr, "metrics export: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
    if (!lint_json_file(metrics_path, "metrics export")) return 1;
    std::printf("\nmetrics: %zu registries -> %s\n", registries.size(),
                metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    // The deployments (and on transport, their worker processes — which
    // flush their rings as Telemetry on Shutdown) are already torn down:
    // they lived inside the backend branches above.
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
    std::printf(
        "trace: %zu events (%zu worker processes, %zu sigkill / %zu respawn "
        "instants) -> %s\n",
        summary.events, summary.worker_processes, summary.sigkill_instants,
        summary.respawn_instants, trace_path.c_str());
  }
  return 0;
}
