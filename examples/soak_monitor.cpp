// A recurring-failure soak with continuous monitoring — the vitality
// shape (Sardi et al.: repeated catastrophic damage with recovery between
// episodes) over the ring transport, with every monitoring layer from
// src/obs/ attached and self-validated:
//
//   1. QUIET:       mass-crash bursts (neuron faults + real SIGKILLed
//                   worker processes each burst) with no monitoring —
//                   the bit-identity baseline.
//   2. MONITORED:   the same soak with tracing on, a Snapshotter
//                   streaming windows to a line-delimited JSON file, a
//                   Watchdog on the fleet's health mirror, and crash
//                   postmortems enabled. Outputs must be BIT-IDENTICAL
//                   to the quiet run — monitoring never touches an Rng.
//   3. INTERRUPTED: the same soak again, abandoned mid-run: a worker is
//                   wedged with SIGSTOP until the watchdog's escalation
//                   ladder SIGKILLs it (forced respawn), another worker
//                   is killed outright mid-burst, and then the host is
//                   destroyed with requests still outstanding. The
//                   snapshot stream must still strict-lint line by line
//                   and the postmortem artifacts must be on disk — the
//                   whole point of an append-only, flushed-per-window
//                   format.
//
// Exits nonzero if any validation fails (bit-identity, stream lint, seq
// continuity, postmortem count/schema, watchdog detection).
//
// Run: ./soak_monitor [bursts=4] [burst=96] [workers=4] [seed=7]
//                     [interval_ms=50]
//                     [snapshot=soak_snapshot.jsonl]
//                     [postmortems=soak_postmortems]
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <csignal>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/plan.hpp"
#include "nn/builder.hpp"
#include "obs/json.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "serve/timeline.hpp"
#include "transport/host.hpp"
#include "transport/monitor.hpp"
#include "transport/worker.hpp"
#include "util/cli.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::printf("  ok: %s\n", what);
  } else {
    std::printf("  FAIL: %s\n", what);
    ++g_failures;
  }
}

/// Validates one snapshot stream: every line is independently lintable
/// strict JSON, the header comes first, and window seqs are contiguous
/// from 0. Returns the number of window lines.
std::size_t validate_stream(const std::string& path, const char* label) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::printf("  FAIL: %s: cannot open %s\n", label, path.c_str());
    ++g_failures;
    return 0;
  }
  std::string line;
  std::size_t lines = 0;
  std::size_t windows = 0;
  bool ok = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const wnf::obs::JsonLintResult lint = wnf::obs::json_lint(line);
    if (!lint.ok) {
      std::printf("  FAIL: %s line %zu: %s (offset %zu)\n", label, lines,
                  lint.error.c_str(), lint.error_offset);
      ok = false;
      break;
    }
    if (lines == 0) {
      if (line.find("\"kind\":\"header\"") == std::string::npos) {
        std::printf("  FAIL: %s: first line is not the header\n", label);
        ok = false;
        break;
      }
    } else {
      long seq = -1;
      const std::size_t at = line.find("\"seq\":");
      if (line.find("\"kind\":\"window\"") == std::string::npos ||
          at == std::string::npos ||
          std::sscanf(line.c_str() + at, "\"seq\":%ld", &seq) != 1 ||
          seq != static_cast<long>(windows)) {
        std::printf("  FAIL: %s line %zu: want window seq %zu\n", label,
                    lines, windows);
        ok = false;
        break;
      }
      ++windows;
    }
    ++lines;
  }
  if (!ok) ++g_failures;
  std::printf("  %s: %zu lines, %zu windows, every line strict-lints: %s\n",
              label, lines, windows, ok ? "yes" : "NO");
  return windows;
}

/// Validates the first `count` postmortem artifacts in `dir`: each file
/// exists, strict-lints, and carries the schema's required keys.
void validate_postmortems(const std::string& dir, std::uint64_t count,
                          const char* label) {
  bool ok = count > 0;
  if (!ok) std::printf("  FAIL: %s: no postmortems written\n", label);
  for (std::uint64_t i = 0; i < count; ++i) {
    // The worker index is part of the name; probe every slot.
    std::string text;
    for (std::size_t w = 0; w < 64 && text.empty(); ++w) {
      std::ifstream in(dir + "/postmortem-" + std::to_string(i) + "-w" +
                       std::to_string(w) + ".json");
      if (!in.is_open()) continue;
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    if (text.empty()) {
      std::printf("  FAIL: %s: artifact %llu missing\n", label,
                  static_cast<unsigned long long>(i));
      ok = false;
      continue;
    }
    const wnf::obs::JsonLintResult lint = wnf::obs::json_lint(text);
    if (!lint.ok || text.find("\"kind\":\"postmortem\"") == std::string::npos ||
        text.find("\"inflight_ids\"") == std::string::npos ||
        text.find("\"recent_events\"") == std::string::npos ||
        text.find("\"counter_deltas_since_flush\"") == std::string::npos ||
        text.find("\"torn_slots\"") == std::string::npos) {
      std::printf("  FAIL: %s: artifact %llu malformed\n", label,
                  static_cast<unsigned long long>(i));
      ok = false;
    }
  }
  if (!ok) ++g_failures;
  std::printf("  %s: %llu postmortem artifacts, lint + schema: %s\n", label,
              static_cast<unsigned long long>(count), ok ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wnf;
  CliArgs args(argc, argv);
  const auto bursts = std::max<std::size_t>(
      2, static_cast<std::size_t>(args.get_int("bursts", 4)));
  const auto burst_len = std::max<std::size_t>(
      16, static_cast<std::size_t>(args.get_int("burst", 96)));
  const auto workers = std::max<std::size_t>(
      2, static_cast<std::size_t>(args.get_int("workers", 4)));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double interval_s = args.get_double("interval_ms", 50.0) / 1e3;
  const std::string snapshot_path =
      args.get_string("snapshot", "soak_snapshot.jsonl");
  const std::string postmortem_dir =
      args.get_string("postmortems", "soak_postmortems");
  args.reject_unknown();

  if (!transport::transport_available()) {
    std::printf("transport unavailable on this platform (no POSIX "
                "fork/socketpair); nothing to do.\n");
    return 0;
  }

  Rng rng(seed);
  const auto net = nn::NetworkBuilder(2)
                       .activation(nn::ActivationKind::kSigmoid, 1.0)
                       .hidden(16)
                       .hidden(12)
                       .init(nn::InitKind::kScaledUniform, 0.8)
                       .build(rng);

  // The vitality shape, twice over: each burst window crashes two layer-1
  // neurons (simulated damage) AND SIGKILLs half the worker fleet for
  // real (process damage); both recover at the window's end.
  const std::size_t period = burst_len * 2;
  const std::size_t total = bursts * period;
  serve::FaultTimeline timeline;
  fault::FaultPlan burst_plan;
  burst_plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                        {1, 9, fault::NeuronFaultKind::kCrash, 0.0}};
  std::vector<transport::CrashWindow> script;
  const std::size_t victims = workers / 2;
  for (std::size_t k = 0; k < bursts; ++k) {
    const std::uint64_t start = k * period;
    const std::uint64_t end = start + burst_len;
    timeline.add(start, end, burst_plan);
    for (std::size_t v = 0; v < victims; ++v) {
      script.push_back({v, start, end});
    }
  }

  std::vector<std::vector<double>> workload;
  workload.reserve(total);
  Rng traffic(seed + 1);
  for (std::size_t i = 0; i < total; ++i) {
    workload.push_back({traffic.uniform(), traffic.uniform()});
  }

  transport::TransportConfig base;
  base.workers = workers;
  base.queue_capacity = total;
  base.seed = seed + 2;

  const auto run_soak = [&](transport::WorkerHost& host) {
    host.set_timeline(timeline);
    host.set_crash_script(script);
    WNF_ASSERT(host.submit_batch(workload) == total);
    return host.drain();
  };

  std::printf("soak: %zu requests, %zu bursts x %zu workers killed, "
              "%zu-worker fleet\n\n",
              total, bursts, victims, workers);

  // --- 1. quiet baseline ---------------------------------------------------
  std::printf("[1/3] quiet run (no monitoring)\n");
  std::vector<serve::RequestResult> quiet;
  {
    transport::WorkerHost host(net, base);
    quiet = run_soak(host);
    std::printf("  served %zu requests through %zu spawns\n", quiet.size(),
                host.total_spawns());
  }

  // --- 2. monitored run: must be bit-identical -----------------------------
  std::printf("[2/3] monitored run (snapshotter + watchdog + postmortems + "
              "tracing)\n");
  obs::TraceLog::instance().reset();
  obs::set_enabled(true);
  std::uint64_t monitored_postmortems = 0;
  {
    transport::TransportConfig config = base;
    config.postmortem_dir = postmortem_dir;
    transport::WorkerHost host(net, config);

    obs::WatchdogConfig watch_config;
    watch_config.poll_seconds = 0.01;
    watch_config.stall_seconds = 2.0;  // generous: this run is healthy
    obs::Watchdog watchdog(watch_config);
    transport::attach_fleet_watchdog(host, watchdog);

    obs::SnapshotterConfig snap_config;
    snap_config.path = snapshot_path;
    snap_config.interval_seconds = interval_s;
    snap_config.label = "soak_monitor";
    obs::Snapshotter snapshotter(snap_config);
    snapshotter.add_source("host", &host.metrics());
    snapshotter.add_source("watchdog", &watchdog.metrics());
    WNF_ASSERT(snapshotter.start());
    watchdog.start();

    const auto monitored = run_soak(host);
    // Small fleets drain this soak faster than one poll period; hold the
    // monitors open across a few periods so the stream gets a full window
    // and the watchdog provably sampled the (now idle, so never stalling)
    // health mirror while live.
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(3.0 * watch_config.poll_seconds, 1.5 * interval_s)));
    watchdog.stop();
    snapshotter.stop();

    bool identical = monitored.size() == quiet.size();
    for (std::size_t i = 0; identical && i < quiet.size(); ++i) {
      identical = monitored[i].id == quiet[i].id &&
                  monitored[i].output == quiet[i].output;
    }
    check(identical, "monitored outputs bit-identical to the quiet run");
    check(snapshotter.windows() >= 1, "snapshot stream holds >= 1 window");
    std::uint64_t polls = 0;
    for (const auto& row : watchdog.metrics().snapshot().counters) {
      if (row.name == "obs.watchdog.polls") polls = row.value;
    }
    check(polls > 0, "watchdog polled the health mirror");
    monitored_postmortems = host.postmortems()->written();
    check(monitored_postmortems >= bursts * victims,
          "every scripted kill left a postmortem");
  }
  validate_stream(snapshot_path, "monitored stream");
  validate_postmortems(postmortem_dir, monitored_postmortems,
                       "monitored run");

  // --- 3. interrupted run: wedge, kill, abandon ----------------------------
  std::printf("[3/3] interrupted run (SIGSTOP wedge -> watchdog respawn, "
              "mid-burst SIGKILL, host destroyed mid-run)\n");
  const std::string snapshot2 = snapshot_path + ".interrupted";
  const std::string postdir2 = postmortem_dir + "-interrupted";
  std::uint64_t interrupted_postmortems = 0;
  {
    transport::TransportConfig config = base;
    config.postmortem_dir = postdir2;
    auto host = std::make_unique<transport::WorkerHost>(net, config);

    obs::WatchdogConfig watch_config;
    watch_config.poll_seconds = 0.005;
    watch_config.stall_seconds = 0.20;
    watch_config.respawn_seconds = 0.60;
    obs::Watchdog watchdog(watch_config);
    transport::attach_fleet_watchdog(*host, watchdog);

    obs::SnapshotterConfig snap_config;
    snap_config.path = snapshot2;
    snap_config.interval_seconds = interval_s;
    snap_config.label = "soak_monitor_interrupted";
    obs::Snapshotter snapshotter(snap_config);
    snapshotter.add_source("host", &host->metrics());
    snapshotter.add_source("watchdog", &watchdog.metrics());
    WNF_ASSERT(snapshotter.start());
    watchdog.start();

    host->set_timeline(timeline);
    host->set_crash_script(script);

    // Wedge a worker BEFORE any traffic: these fleets compute results
    // into the rings faster than any detector can race them, but a
    // stopped worker can never serve what the host is about to dispatch
    // to it. Its host-side inflight goes nonzero (the channel reads
    // active) while its harvest odometer stays frozen — the one shape
    // only the watchdog's forced SIGKILL resolves; the host's normal
    // recovery then resubmits + respawns. Delivery is id-ordered, so the
    // delivered prefix must stay bit-identical to the quiet run.
    const std::size_t wedged = workers - 1;  // outside the crash script
    ::kill(host->health_pid(wedged), SIGSTOP);
    WNF_ASSERT(host->submit_batch(workload) == total);

    // Scripted burst kills also bump restarts(), so wait on the counter
    // only the watchdog can move. Delivery stalls at the wedged worker's
    // first id until the respawn, then flows again.
    std::vector<serve::RequestResult> delivered;
    serve::RequestResult result;
    const auto forced_respawns = [&watchdog] {
      for (const auto& row : watchdog.metrics().snapshot().counters) {
        if (row.name == "obs.watchdog.forced_respawns") return row.value;
      }
      return std::int64_t{0};
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (forced_respawns() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      if (host->poll(result)) delivered.push_back(std::move(result));
    }
    check(forced_respawns() >= 1,
          "watchdog detected the wedged worker and forced a respawn");

    // Traffic must flow again after the forced respawn.
    const auto flow_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (delivered.size() < total / 4 &&
           std::chrono::steady_clock::now() < flow_deadline) {
      if (host->poll(result)) delivered.push_back(std::move(result));
    }
    check(delivered.size() >= total / 4,
          "delivery resumed after the forced respawn");

    // A surprise mid-burst SIGKILL (no script window): the next pump's
    // EOF writes an unexpected-death postmortem and heals the fleet.
    for (std::size_t w = 0; w < workers; ++w) {
      const int pid = host->health_pid(w);
      if (w != wedged && pid > 0) {
        ::kill(pid, SIGKILL);
        break;
      }
    }
    // Stop well short of a full drain so the host is torn down with
    // requests genuinely outstanding.
    const std::size_t more =
        std::min(total / 2, delivered.size() + total / 8);
    while (delivered.size() < more &&
           std::chrono::steady_clock::now() < flow_deadline) {
      if (host->poll(result)) delivered.push_back(std::move(result));
    }

    bool prefix_identical = delivered.size() <= quiet.size();
    for (std::size_t i = 0; prefix_identical && i < delivered.size(); ++i) {
      prefix_identical = delivered[i].id == quiet[i].id &&
                         delivered[i].output == quiet[i].output;
    }
    check(prefix_identical,
          "delivered prefix bit-identical through wedge + surprise kill");

    // Abandon the soak mid-run: requests still outstanding, stream still
    // open. The host shuts its fleet down; the snapshotter flushes its
    // final partial window; everything on disk must already be valid.
    check(host->pending() > 0, "host destroyed with requests outstanding");
    // Monitoring reads the host's registries, so it stops first — but the
    // stream on disk was already complete-per-line before this instant,
    // which is exactly what the validators below prove.
    watchdog.stop();
    snapshotter.stop();
    interrupted_postmortems = host->postmortems()->written();
    host.reset();
  }
  const std::size_t windows2 =
      validate_stream(snapshot2, "interrupted stream");
  check(windows2 >= 1, "interrupted stream still holds >= 1 valid window");
  validate_postmortems(postdir2, interrupted_postmortems, "interrupted run");
  check(interrupted_postmortems >= 1,
        "interrupted run left >= 1 postmortem artifact");
  obs::set_enabled(false);

  if (g_failures == 0) {
    std::printf("\nsoak monitor: every validation passed — monitoring added "
                "zero divergence,\nthe interrupted run's artifacts survived "
                "on disk, and the watchdog healed a\nwedged worker through "
                "the ladder.\n");
    return 0;
  }
  std::printf("\nsoak monitor: %d validation(s) FAILED\n", g_failures);
  return 1;
}
