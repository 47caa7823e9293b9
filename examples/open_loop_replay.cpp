// Open-loop million-user-style traffic replay: ONE driver thread keeps TWO
// persistent deployments saturated at 2x their measured capacity, because
// submission never blocks on execution — the async pipeline (try_submit /
// poll) lets the driver interleave both fleets' pumps between scheduled
// arrivals.
//
// The demo runs three phases on the same pair of deployments:
//   calibrate  closed-loop burst per fleet to measure its service rate,
//              then rebind (ids restart at 0, zero new forks on transport)
//   overload   Poisson arrivals per tenant at overload x the calibrated
//              rate, replayed open-loop with no shedding. Tenant 0 also
//              takes a *wall-clock* fault window (two neurons crash for
//              the middle of its trace) resolved onto request ids — and,
//              on the transport backend, a real SIGKILL of one worker
//              process over the same window. Every collected result is
//              then compared bit-for-bit against a synchronous
//              submit-everything-then-drain of the same admitted inputs.
//   shedding   the same trace with an admission limit: sojourn p99 stays
//              bounded at the price of explicit drops.
//
// Open- vs closed-loop is the whole point: a closed-loop driver (submit,
// drain, repeat) can never offer more than the deployment completes, so
// overload — the regime where p99/p99.9 and admission policy decide
// whether the deployment holds — is invisible to it. The replayer keeps
// the trace's schedule regardless of completions, and measures sojourn
// from the *scheduled* arrival, so driver lateness is charged to the
// requests that suffered it (no coordinated omission).
//
// Run: ./open_loop_replay [seed=5] [requests=240] [workers=2]
//                         [overload=2.0] [admission=32]
//                         [backend=auto] [trace=<file>] [metrics=<file>]
// backend= auto (transport if the platform has fork/socketpair, else the
// in-process pool), transport, or serve.
// trace= enables request-lifecycle tracing and exports the whole run as
// Chrome trace_event JSON (open in Perfetto / chrome://tracing); the
// export is self-validated — strict JSON lint, spans from >=2 worker
// processes, and the SIGKILL/respawn instants — and a failure exits
// nonzero. metrics= exports each fleet's metric registry plus the
// overload phase's per-tenant rate time series as machine-readable JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "load/replay.hpp"
#include "load/trace.hpp"
#include "nn/builder.hpp"
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
/// deviation from RFC 8259 — the exporters are hand-written, so the
/// examples double as their conformance tests.
bool lint_json_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot reopen %s\n", what, path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  const wnf::obs::JsonLintResult lint = wnf::obs::json_lint(body);
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
  const auto requests = std::max<std::size_t>(
      20, static_cast<std::size_t>(args.get_int("requests", 240)));
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 2));
  const double overload = args.get_double("overload", 2.0);
  const auto admission =
      static_cast<std::size_t>(args.get_int("admission", 32));
  std::string backend = args.get_string("backend", "auto");
  const std::string trace_path = args.get_string("trace", "");
  const std::string metrics_path = args.get_string("metrics", "");
  args.reject_unknown();
  // Tracing switches on for the whole run when an export is requested;
  // results are pinned bit-identical either way (tracing never touches an
  // Rng), which the audit below re-proves on every traced run.
  if (!trace_path.empty()) obs::set_enabled(true);
  if (backend == "auto") {
    backend = transport::transport_available() ? "transport" : "serve";
  }
  if (backend != "serve" && backend != "transport") {
    std::fprintf(stderr, "unknown backend=%s (expected auto|serve|transport)\n",
                 backend.c_str());
    return 1;
  }
  if (backend == "transport" && !transport::transport_available()) {
    std::printf("transport backend unavailable on this platform (no POSIX "
                "fork/socketpair); rerun with backend=serve.\n");
    return 0;
  }
  const bool use_transport = backend == "transport";

  print_banner(std::cout,
               ("open-loop overload replay [" + backend + "]").c_str());

  // Two tenants, two networks: each fleet persistently serves one model.
  std::vector<nn::FeedForwardNetwork> nets;
  for (std::size_t t = 0; t < 2; ++t) {
    nets.push_back(nn::NetworkBuilder(4)
                       .activation(nn::ActivationKind::kSigmoid, 1.0)
                       .hidden(12)
                       .hidden(10)
                       .init(nn::InitKind::kScaledUniform, 0.8)
                       .build(rng));
  }
  const dist::LatencyModel latency{dist::LatencyKind::kHeavyTail, 1.0, 50.0,
                                   0.25};
  const std::vector<std::size_t> straggler_cut{2, 1};
  const std::uint64_t serve_seed = 99;

  // The two deployments, behind the Pipeline seam the replayer drives.
  // reset() starts a fresh logical deployment per phase: rebind on the
  // transport backend (same worker processes, ids restart at 0),
  // reconstruction on the in-process pool.
  std::vector<std::unique_ptr<transport::WorkerHost>> hosts;
  std::vector<std::unique_ptr<serve::ReplicaPool>> pools;
  std::vector<std::unique_ptr<load::Pipeline>> pipes;
  const auto reset_fleets = [&](std::size_t queue) {
    pipes.clear();
    if (use_transport) {
      for (std::size_t t = 0; t < 2; ++t) {
        if (hosts.size() <= t) {
          transport::TransportConfig config;
          config.workers = workers;
          config.queue_capacity = queue;
          config.latency = latency;
          config.straggler_cut = straggler_cut;
          config.seed = serve_seed;
          hosts.push_back(
              std::make_unique<transport::WorkerHost>(nets[t], config));
        } else {
          transport::RebindOptions options;
          options.queue_capacity = queue;
          hosts[t]->rebind(nets[t], options);
        }
        pipes.push_back(std::make_unique<load::HostPipeline>(*hosts[t]));
      }
    } else {
      pools.clear();
      for (std::size_t t = 0; t < 2; ++t) {
        serve::ServeConfig config;
        config.replicas = workers;
        config.queue_capacity = queue;
        config.latency = latency;
        config.straggler_cut = straggler_cut;
        config.seed = serve_seed;
        pools.push_back(std::make_unique<serve::ReplicaPool>(nets[t], config));
        pipes.push_back(std::make_unique<load::PoolPipeline>(*pools[t]));
      }
    }
  };
  const auto fleet_report = [&](std::size_t t) { return pipes[t]->report(); };

  // --- calibrate: closed-loop burst per fleet to measure service rate ---
  const std::size_t burst = std::min<std::size_t>(128, requests);
  std::vector<std::vector<double>> burst_inputs;
  for (std::size_t n = 0; n < burst; ++n) {
    burst_inputs.push_back(
        {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
  }
  reset_fleets(burst);
  double service_rate[2] = {0.0, 0.0};
  for (std::size_t t = 0; t < 2; ++t) {
    if (use_transport) {
      hosts[t]->submit_batch(burst_inputs);
      hosts[t]->drain();
    } else {
      pools[t]->submit_batch(burst_inputs);
      pools[t]->drain();
    }
    service_rate[t] = std::max(1.0, fleet_report(t).throughput_rps);
  }

  // --- build the overload schedule: Poisson per tenant at overload x the
  // calibrated rate, merged into one multi-tenant trace ---
  std::vector<load::ArrivalTrace> per_tenant;
  for (std::uint32_t t = 0; t < 2; ++t) {
    const double rate = overload * service_rate[t];
    const double duration = static_cast<double>(requests) / rate;
    per_tenant.push_back(
        load::poisson_trace(rate, duration, rng, t));
  }
  const load::ArrivalTrace trace = load::merge_traces(per_tenant);
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> tenant_inputs[2];
  std::vector<double> tenant0_times;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    inputs.push_back(
        {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
    tenant_inputs[trace.arrivals[i].tenant].push_back(inputs.back());
    if (trace.arrivals[i].tenant == 0) {
      tenant0_times.push_back(trace.arrivals[i].time);
    }
  }
  std::printf(
      "calibrated service: fleet0 %.0f req/s, fleet1 %.0f req/s\n"
      "offering %.1fx that: %zu + %zu Poisson arrivals over %.2e trace s\n\n",
      service_rate[0], service_rate[1], overload, per_tenant[0].size(),
      per_tenant[1].size(), trace.duration);

  // Tenant 0's fault scenario is timed on the WALL CLOCK of its trace —
  // "neurons fail from 25% to 55% of the way through the storm" — and
  // resolve_wall() maps it onto the request ids that arrive inside the
  // window, so the same logical scenario also runs on the synchronous
  // reference below.
  const double d0 = per_tenant[0].duration;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0},
                   {1, 7, fault::NeuronFaultKind::kCrash, 0.0}};
  serve::FaultTimeline timeline;
  timeline.add_wall(0.25 * d0, 0.55 * d0, crash);
  timeline.resolve_wall(tenant0_times);
  const auto id_at = [&](double wall) {
    return static_cast<std::uint64_t>(
        std::lower_bound(tenant0_times.begin(), tenant0_times.end(), wall) -
        tenant0_times.begin());
  };
  const std::uint64_t crash_lo = id_at(0.25 * d0);
  const std::uint64_t crash_hi = id_at(0.55 * d0);
  const auto arm_tenant0_faults = [&] {
    if (use_transport) {
      hosts[0]->set_timeline(timeline);
      // The logical window also SIGKILLs a real worker process for its
      // duration; the host heals it and resubmits — outputs unchanged.
      if (crash_lo < crash_hi) {
        hosts[0]->set_crash_script({{0, crash_lo, crash_hi}});
      }
    } else {
      pools[0]->set_timeline(timeline);
    }
  };

  // --- phase 1: sustained overload, nothing shed, audited bit-for-bit ---
  reset_fleets(trace.size());
  arm_tenant0_faults();
  std::vector<load::Pipeline*> raw;
  for (auto& pipe : pipes) raw.push_back(pipe.get());
  std::vector<std::vector<serve::RequestResult>> collected;
  load::OpenLoopConfig open_config;
  if (!metrics_path.empty()) {
    // ~8 samples across the storm, whatever the trace duration came to.
    open_config.sample_seconds = std::max(trace.duration / 8.0, 1e-4);
  }
  const load::LoadReport open =
      load::replay(trace, inputs, raw, open_config, &collected);

  print_banner(std::cout, "sustained overload (no shedding)");
  Table overall({"offered", "completed", "offered rps", "completed rps",
                 "p50 s", "p99 s", "p99.9 s"});
  overall.add_row({std::to_string(open.offered),
                   std::to_string(open.completed),
                   Table::num(open.offered_rps, 0),
                   Table::num(open.completed_rps, 0),
                   Table::sci(open.p50, 2), Table::sci(open.p99, 2),
                   Table::sci(open.p999, 2)});
  overall.print(std::cout);

  Table tenants({"tenant", "offered", "completed", "p50 s", "p99 s",
                 "restarts", "resubmitted"});
  for (const auto& ts : open.tenants) {
    const auto fr = fleet_report(ts.tenant);  // fleet t serves tenant t
    tenants.add_row({std::to_string(ts.tenant), std::to_string(ts.offered),
                     std::to_string(ts.completed), Table::sci(ts.p50, 2),
                     Table::sci(ts.p99, 2),
                     std::to_string(fr.worker_restarts),
                     std::to_string(fr.resubmitted)});
  }
  tenants.print(std::cout);
  if (use_transport) {
    std::printf("(fleet0 lost worker 0 to SIGKILL on ids [%llu,%llu).)\n",
                static_cast<unsigned long long>(crash_lo),
                static_cast<unsigned long long>(crash_hi));
  }

  // The audit: with shedding disabled every arrival was admitted, so each
  // tenant's open-loop results must be byte-for-byte what a synchronous
  // submit-all-then-drain pool serves for the same inputs — the async
  // pipeline may not change a single bit, only the clock.
  for (std::size_t t = 0; t < 2; ++t) {
    serve::ServeConfig config;
    config.replicas = workers;
    config.queue_capacity = tenant_inputs[t].size();
    config.latency = latency;
    config.straggler_cut = straggler_cut;
    config.seed = serve_seed;
    serve::ReplicaPool reference(nets[t], config);
    if (t == 0) reference.set_timeline(timeline);
    reference.submit_batch(tenant_inputs[t]);
    const auto expected = reference.drain();
    if (expected.size() != collected[t].size()) {
      std::fprintf(stderr, "tenant %zu: size mismatch\n", t);
      return 1;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (expected[i].output != collected[t][i].output ||
          expected[i].completion_time != collected[t][i].completion_time) {
        std::fprintf(stderr, "tenant %zu: result %zu diverged\n", t, i);
        return 1;
      }
    }
    std::printf("tenant %zu: %zu results bit-identical to the synchronous "
                "drain path\n", t, expected.size());
  }

  // --- phase 2: the same storm with admission control ---
  reset_fleets(trace.size());
  arm_tenant0_faults();
  raw.clear();
  for (auto& pipe : pipes) raw.push_back(pipe.get());
  load::OpenLoopConfig shed_config;
  shed_config.admission_limit = admission;
  const load::LoadReport shed = load::replay(trace, inputs, raw, shed_config);

  print_banner(std::cout, "same storm, admission-controlled");
  Table policy({"admission", "admitted", "shed", "p50 s", "p99 s",
                "p99.9 s"});
  policy.add_row({std::to_string(admission), std::to_string(shed.admitted),
                  std::to_string(shed.shed_admission + shed.shed_queue +
                                 shed.shed_slo),
                  Table::sci(shed.p50, 2), Table::sci(shed.p99, 2),
                  Table::sci(shed.p999, 2)});
  policy.print(std::cout);
  std::printf(
      "\none driver thread held both fleets at %.1fx capacity because the\n"
      "async pipeline never blocks on execution; admission control trades\n"
      "explicit drops for a bounded sojourn tail (p99 %s -> %s s).\n",
      overload, Table::sci(open.p99, 2).c_str(),
      Table::sci(shed.p99, 2).c_str());

  // --- observability exports (trace= / metrics=), self-validated ---
  if (!metrics_path.empty()) {
    // Snapshot the live registries before the fleets go away.
    std::vector<obs::NamedSnapshot> registries;
    for (std::size_t t = 0; t < 2; ++t) {
      registries.push_back({"fleet" + std::to_string(t),
                            use_transport ? hosts[t]->metrics().snapshot()
                                          : pools[t]->metrics().snapshot()});
    }
    if (!obs::write_metrics_json_file(metrics_path, registries,
                                      open.series)) {
      std::fprintf(stderr, "metrics export: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
    if (!lint_json_file(metrics_path, "metrics export")) return 1;
    std::printf("\nmetrics: %zu registries + %zu series samples -> %s\n",
                registries.size(), open.series.size(), metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    // Tear the deployments down first: worker processes flush their trace
    // rings as Telemetry frames on Shutdown, and the hosts harvest them in
    // their destructors — only then does the TraceLog hold the workers'
    // side of the story.
    pipes.clear();
    hosts.clear();
    pools.clear();
    const obs::ChromeTraceSummary summary =
        obs::write_chrome_trace_file(trace_path, {});
    if (!lint_json_file(trace_path, "trace export")) return 1;
    std::printf(
        "trace: %zu events (%zu host threads, %zu worker processes, "
        "%zu sigkill / %zu respawn / %zu rebind instants) -> %s\n",
        summary.events, summary.host_threads, summary.worker_processes,
        summary.sigkill_instants, summary.respawn_instants,
        summary.rebind_instants, trace_path.c_str());
    if (summary.events == 0) {
      std::fprintf(stderr, "trace export: no events recorded\n");
      return 1;
    }
    if (use_transport) {
      // The acceptance bar for a traced transport run: the timeline shows
      // execution spans from at least two distinct worker processes, and
      // the fault story (the scripted SIGKILL and the healing respawn) is
      // visible as instants.
      if (summary.worker_span_processes < 2) {
        std::fprintf(stderr,
                     "trace export: want spans from >=2 worker processes, "
                     "got %zu\n",
                     summary.worker_span_processes);
        return 1;
      }
      if (crash_lo < crash_hi &&
          (summary.sigkill_instants == 0 || summary.respawn_instants == 0)) {
        std::fprintf(stderr,
                     "trace export: scripted kill left no SIGKILL/respawn "
                     "instants (%zu/%zu)\n",
                     summary.sigkill_instants, summary.respawn_instants);
        return 1;
      }
    }
  }
  return 0;
}
