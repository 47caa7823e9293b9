// The perf-trajectory helper behind CI's bench job: measures the
// smoke-sized bench scenarios in-process (per-scenario ns/op plus an
// output checksum) and writes them as one JSON file, or compares two such
// files and fails on regression.
//
//   ./bench_to_json out=BENCH_pr5.json
//   ./bench_to_json mode=compare baseline=BENCH_baseline.json
//                   current=BENCH_pr5.json [tolerance=0.20] [strict=0]
//
// Scenarios mirror the `smoke`-labelled benches (serve throughput,
// campaign backends, transport throughput with its window sweep and
// persistent-vs-fork pair) at fixed small sizes, so the file is a perf
// snapshot of the same paths CI already exercises for correctness.
//
// Two decisions make the gate usable across machines:
//  - Every scenario carries its own calibration ns/op (a pure-integer
//    xoshiro draw loop, re-timed interleaved with each scenario
//    repetition). compare mode gates on *calibration-normalized* ratios,
//    so a faster or slower runner — or contention that arrives mid-emit —
//    moves a scenario and its calibration together.
//  - Checksums are compared but only warn by default: each emit run
//    already asserts bit-identity *between* its own runtimes (pool vs
//    transport vs windows), while cross-toolchain libm differences
//    (exp() in sigmoid) legitimately move absolute outputs. strict=1
//    promotes checksum mismatches to failures for same-toolchain use.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "dist/sim.hpp"
#include "exec/injector_backend.hpp"
#include "fault/campaign.hpp"
#include "load/replay.hpp"
#include "load/trace.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "serve/pool.hpp"
#include "tensor/ops.hpp"
#include "transport/host.hpp"
#include "transport/worker.hpp"

namespace {

using namespace wnf;

struct BenchEntry {
  std::string name;
  std::size_t ops = 0;
  double ns_per_op = 0.0;
  /// The pure-integer calibration re-timed interleaved with this
  /// scenario's repetitions — what compare mode normalizes by.
  double cal_ns_per_op = 0.0;
  double checksum = 0.0;
  /// False marks a scenario tracked for trajectory but excluded from the
  /// regression gate — used for wall-clock-scheduled measurands (the
  /// open-loop replay interleaves real sleeps and thread scheduling) whose
  /// run-to-run spread on a small shared runner exceeds any useful
  /// tolerance. Checksums still gate under strict=1.
  bool gated = true;
};

struct BenchFile {
  double calibration_ns_per_op = 0.0;  ///< file-level summary (min of all)
  bool transport_available = false;
  std::vector<BenchEntry> benches;
};

/// The calibration's unit of work: one xoshiro draw behind a call. The
/// call is kept out of line on purpose: Rng::next_u64 is inline, and an
/// inlined loop (state in registers, ~2.7x cheaper) would change the unit
/// every committed baseline entry was normalized by.
[[gnu::noinline]] std::uint64_t calibration_draw(Rng& rng) {
  return rng.next_u64();
}

/// One calibration pass: ns per pure-integer xoshiro draw.
double calibration_pass() {
  constexpr std::size_t kDraws = 1u << 19;
  Rng rng(1);
  std::uint64_t last = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kDraws; ++i) last = calibration_draw(rng);
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  // The draws must not be optimized out; the low bit feeds nothing else.
  return (ns + static_cast<double>(last & 1)) / static_cast<double>(kDraws);
}

constexpr int kRepetitions = 5;

/// One repetition of a scenario: a calibration pass, then `fn` timed and
/// folded into `entry`'s best-of ns/op and calibration (the first
/// repetition sets both). Returns this repetition's ns/op.
template <typename Fn>
double time_repetition(BenchEntry& entry, bool first, Fn&& fn) {
  const double cal = calibration_pass();
  const auto start = std::chrono::steady_clock::now();
  fn();
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    static_cast<double>(entry.ops);
  if (first || ns < entry.ns_per_op) entry.ns_per_op = ns;
  if (first || cal < entry.cal_ns_per_op) entry.cal_ns_per_op = cal;
  return ns;
}

/// Best-of-5 wall time for `fn`, reported as ns per `ops`, with a
/// calibration pass interleaved before every repetition. Mins suppress
/// scheduler noise (syscall-bound scenarios have a long right tail), and
/// the interleaving makes the per-scenario calibration see the same
/// machine conditions the scenario saw — contention that arrives mid-emit
/// inflates both sides of the normalized ratio together instead of
/// tripping the gate.
template <typename Fn>
BenchEntry time_scenario(std::string name, std::size_t ops, Fn&& fn) {
  BenchEntry entry;
  entry.name = std::move(name);
  entry.ops = ops;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    time_repetition(entry, rep == 0, fn);
  }
  return entry;
}

nn::FeedForwardNetwork bench_net(Rng& rng, std::size_t width,
                                 std::size_t depth) {
  nn::NetworkBuilder builder(8);
  builder.activation(nn::ActivationKind::kSigmoid, 1.0);
  for (std::size_t l = 0; l < depth; ++l) builder.hidden(width);
  return builder.init(nn::InitKind::kScaledUniform, 0.8).build(rng);
}

serve::FaultTimeline bench_timeline() {
  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(64, 192, crash);
  return timeline;
}

BenchFile measure() {
  BenchFile file;
  file.transport_available = transport::transport_available();

  // The standalone calibration entry: its scenario IS a calibration pass,
  // so its normalized ratio is 1 by construction on any machine.
  {
    double last_cal = 0.0;
    BenchEntry entry = time_scenario("calibration/rng_draw", 1u << 19,
                                     [&] { last_cal = calibration_pass(); });
    entry.checksum = 0.0;  // timing-only entry; no numeric output to pin
    (void)last_cal;
    file.benches.push_back(std::move(entry));
  }

  Rng rng(1);
  const auto net = bench_net(rng, 16, 2);
  const auto workload = bench::probe_inputs(512, 8, rng);
  const dist::LatencyModel latency{dist::LatencyKind::kHeavyTail, 1.0, 50.0,
                                   0.2};
  const std::uint64_t serve_seed = 8;

  // The dense forward pass every backend is pinned against.
  {
    double checksum = 0.0;
    BenchEntry entry =
        time_scenario("perf_micro/nominal_forward", workload.size(), [&] {
          checksum = 0.0;
          for (const auto& x : workload) checksum += net.evaluate(x);
        });
    entry.checksum = checksum;
    file.benches.push_back(std::move(entry));
  }

  // The same probes as 32 blocks of 16, one campaign trial's nominal pass
  // each (exec::compute_nominal), so the block kernels' bits are pinned by
  // the checksum. Ungated: the block path's speed follows the CPU's lane
  // width, which the calibration loop does not.
  {
    constexpr std::size_t kBlock = 16;
    const double nominal_checksum = file.benches.back().checksum;
    std::printf("nominal_forward_block16: block kernels %zu lanes wide\n",
                detail::block_lane_widths().back());
    nn::Workspace ws;
    std::vector<double> outputs(kBlock);
    double checksum = 0.0;
    BenchEntry entry = time_scenario(
        "perf_micro/nominal_forward_block16", workload.size(), [&] {
          checksum = 0.0;
          for (std::size_t b = 0; b < workload.size(); b += kBlock) {
            const std::span<const std::vector<double>> block(
                workload.data() + b, kBlock);
            net.evaluate_hooked(ws.pack(block), {}, ws, outputs);
            for (const double out : outputs) checksum += out;
          }
        });
    entry.checksum = checksum;
    entry.gated = false;
    std::fflush(stdout);  // std::abort below would drop a buffered line
    WNF_ASSERT(checksum == nominal_checksum &&
               "the block path must reproduce nominal_forward bit for bit");
    file.benches.push_back(std::move(entry));
  }

  // Matched-parameter dense-vs-sparse forward: ONE random-sparse net
  // (density 0.2) evaluated two ways — through the dense gemv kernel on a
  // topology-stripped twin (the masked zero weights still multiplied) and
  // through the CSR path. The parameter count is identical by construction
  // and the kernels are bit-identical (gemv accumulates left to right;
  // skipping exact-zero terms cannot change the sum), so the equal
  // checksums pin the pair and the sparse row prices exactly the skipped
  // multiply-accumulates.
  {
    Rng sparse_rng(2);
    nn::NetworkBuilder builder(8);
    builder.activation(nn::ActivationKind::kSigmoid, 1.0);
    builder.topology(nn::Topology::random_sparse(0.2));
    builder.hidden(48).hidden(48);
    const auto sparse_net =
        builder.init(nn::InitKind::kScaledUniform, 0.8).build(sparse_rng);
    auto dense_twin = sparse_net;
    for (std::size_t l = 1; l <= dense_twin.layer_count(); ++l) {
      dense_twin.layer(l).clear_topology();
    }
    // The check times the kernels alone: both nets' layer affines over
    // every probe's precomputed layer inputs (the sparse trace's; the
    // dense twin's is bit-identical). Timing the whole forward pass
    // instead shares three sigmoid layers, the bias adds and the output
    // dot between the two sides, which capped its ratio near 0.87. The
    // rows still time the whole forward pass, so they keep their meaning.
    std::vector<std::vector<double>> layer_inputs(sparse_net.layer_count());
    for (const auto& x : workload) {
      const auto trace = sparse_net.forward_trace(x);
      for (std::size_t l = 0; l < layer_inputs.size(); ++l) {
        layer_inputs[l].insert(layer_inputs[l].end(),
                               trace.activations[l].begin(),
                               trace.activations[l].end());
      }
    }
    std::vector<double> affine_out;
    const auto affines = [&](const nn::FeedForwardNetwork& forward_net) {
      double checksum = 0.0;
      for (std::size_t l = 1; l <= forward_net.layer_count(); ++l) {
        const auto& layer = forward_net.layer(l);
        const std::size_t in = layer.in_size();
        affine_out.resize(layer.out_size());
        for (std::size_t p = 0; p < workload.size(); ++p) {
          layer.affine({layer_inputs[l - 1].data() + p * in, in}, affine_out);
          checksum += affine_out.back();
        }
      }
      return checksum;
    };
    const auto timed_ns = [](auto&& fn) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::nano>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    // Dense and sparse alternate repetition by repetition, and the check
    // takes the median of the per-pair sparse/dense ratios: a few noisy
    // milliseconds on a shared host then spoil one pair, not every sparse
    // repetition. Each row still reports its own best of five.
    BenchEntry dense_entry;
    dense_entry.name = "forward/dense_vs_sparse_matched_params/dense";
    dense_entry.ops = workload.size();
    BenchEntry sparse_entry;
    sparse_entry.name = "forward/dense_vs_sparse_matched_params/sparse";
    sparse_entry.ops = workload.size();
    double dense_checksum = 0.0;
    double sparse_checksum = 0.0;
    double dense_affines = 0.0;
    double sparse_affines = 0.0;
    std::vector<double> ratios;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      time_repetition(dense_entry, rep == 0, [&] {
        dense_checksum = 0.0;
        for (const auto& x : workload) dense_checksum += dense_twin.evaluate(x);
      });
      time_repetition(sparse_entry, rep == 0, [&] {
        sparse_checksum = 0.0;
        for (const auto& x : workload) {
          sparse_checksum += sparse_net.evaluate(x);
        }
      });
      const double dense_ns =
          timed_ns([&] { dense_affines = affines(dense_twin); });
      const double sparse_ns =
          timed_ns([&] { sparse_affines = affines(sparse_net); });
      ratios.push_back(sparse_ns / dense_ns);
    }
    dense_entry.checksum = dense_checksum;
    sparse_entry.checksum = sparse_checksum;
    std::sort(ratios.begin(), ratios.end());
    const double median_ratio = ratios[ratios.size() / 2];
    std::printf("dense_vs_sparse_matched_params: median sparse/dense affine "
                "time %.3f over %d alternated pairs\n",
                median_ratio, kRepetitions);
    std::fflush(stdout);  // std::abort below would drop a buffered line
    WNF_ASSERT(sparse_checksum == dense_checksum &&
               sparse_affines == dense_affines &&
               "CSR and dense kernels must agree bit for bit");
    WNF_ASSERT(median_ratio < 1.0 &&
               "the CSR path must beat the dense kernel at density 0.2");
    file.benches.push_back(std::move(dense_entry));
    file.benches.push_back(std::move(sparse_entry));
  }

  // One message-level simulator, request by request (bench_perf_micro's
  // round path at smoke size).
  {
    dist::NetworkSimulator sim(net, {});
    Rng latency_rng(serve_seed);
    double checksum = 0.0;
    BenchEntry entry =
        time_scenario("perf_micro/sim_evaluate", workload.size(), [&] {
          Rng stream = latency_rng;  // same draws every repetition
          checksum = 0.0;
          for (const auto& x : workload) {
            sim.sample_latencies(latency, stream);
            checksum += sim.evaluate(x).output;
          }
        });
    entry.checksum = checksum;
    file.benches.push_back(std::move(entry));
  }

  // The threaded serving pool under a fault timeline (bench_serve_
  // throughput's shape).
  // The in-process reference for the transport bit-identity asserts below:
  // one untimed pool serve of the id window 0..N.
  double reference_checksum = 0.0;
  {
    serve::ServeConfig config;
    config.replicas = 2;
    config.queue_capacity = workload.size();
    config.latency = latency;
    config.seed = serve_seed;
    serve::ReplicaPool reference(net, config);
    reference.set_timeline(bench_timeline());
    reference.submit_batch(workload);
    for (const auto& r : reference.drain()) reference_checksum += r.output;

    // Thread spawn outside the timed region (it is jitter, not serving
    // cost); each repetition serves a fresh id window, so the recorded
    // checksum is the last window's — deterministic for a fixed rep count.
    serve::ReplicaPool pool(net, config);
    pool.set_timeline(bench_timeline());
    double pool_checksum = 0.0;
    BenchEntry entry =
        time_scenario("serve_throughput/pool_w2", workload.size(), [&] {
          pool.submit_batch(workload);
          pool_checksum = 0.0;
          for (const auto& r : pool.drain()) pool_checksum += r.output;
        });
    entry.checksum = pool_checksum;
    file.benches.push_back(std::move(entry));
  }

  // Telemetry overhead, measured as a pair: the identical pool serve with
  // tracing off and with tracing on (rings filling, events stamped). Both
  // rows are ungated — their *ratio* is the published overhead number and
  // CI tracks it for trajectory; absolute wall time on a shared runner is
  // too noisy to gate. Two fresh pools on the same seed serve the same id
  // windows, so the pair's checksums pin that tracing never perturbs the
  // served bytes.
  {
    serve::ServeConfig config;
    config.replicas = 2;
    config.queue_capacity = workload.size();
    config.latency = latency;
    config.seed = serve_seed;
    const auto serve_all = [&](serve::ReplicaPool& pool) {
      pool.submit_batch(workload);
      double checksum = 0.0;
      for (const auto& r : pool.drain()) checksum += r.output;
      return checksum;
    };
    obs::set_enabled(false);
    double off_checksum = 0.0;
    {
      serve::ReplicaPool pool(net, config);
      pool.set_timeline(bench_timeline());
      BenchEntry entry = time_scenario("telemetry_overhead/tracing_off",
                                       workload.size(),
                                       [&] { off_checksum = serve_all(pool); });
      entry.checksum = off_checksum;
      entry.gated = false;
      file.benches.push_back(std::move(entry));
    }
    obs::TraceLog::instance().reset();
    obs::set_enabled(true);
    double on_checksum = 0.0;
    {
      serve::ReplicaPool pool(net, config);
      pool.set_timeline(bench_timeline());
      BenchEntry entry = time_scenario("telemetry_overhead/tracing_on",
                                       workload.size(),
                                       [&] { on_checksum = serve_all(pool); });
      entry.checksum = on_checksum;
      entry.gated = false;
      file.benches.push_back(std::move(entry));
    }
    obs::set_enabled(false);
    obs::TraceLog::instance().reset();
    WNF_ASSERT(on_checksum == off_checksum &&
               "tracing must not perturb the served bytes");

    // Continuous monitoring: the same serve with tracing off but a live
    // Snapshotter sampling the pool's registry at its production cadence
    // (100 ms). The sampler thread only ever reads relaxed atomics, so
    // this row vs tracing_off is the monitoring tax — the acceptance
    // bound is <= 5%, tracked by ratio like the tracing pair.
    double monitored_checksum = 0.0;
    {
      serve::ReplicaPool pool(net, config);
      pool.set_timeline(bench_timeline());
      obs::SnapshotterConfig snap_config;
      snap_config.path = "bench_monitoring_snapshots.jsonl";
      snap_config.interval_seconds = 0.1;
      snap_config.label = "bench_to_json";
      obs::Snapshotter snapshotter(snap_config);
      snapshotter.add_source("pool", &pool.metrics());
      WNF_ASSERT(snapshotter.start());
      BenchEntry entry = time_scenario(
          "telemetry_overhead/monitoring_on", workload.size(),
          [&] { monitored_checksum = serve_all(pool); });
      snapshotter.stop();
      entry.checksum = monitored_checksum;
      entry.gated = false;
      file.benches.push_back(std::move(entry));
      std::remove("bench_monitoring_snapshots.jsonl");
    }
    WNF_ASSERT(monitored_checksum == off_checksum &&
               "monitoring must not perturb the served bytes");
  }

  // The open-loop replay path (load/replay over the async pool pipeline):
  // a fixed Poisson schedule compressed so hard every arrival is already
  // due, so the row tracks driver + pipeline overhead, not idle waiting —
  // and big enough that execution dwarfs the replayer's idle-nap quantum.
  // Shedding is disabled (queue sized to the trace), so the admitted set —
  // and the checksum — is schedule-independent and deterministic.
  {
    Rng trace_rng(17);
    const auto trace = load::poisson_trace(4000.0, 0.5, trace_rng);
    serve::ServeConfig config;
    config.replicas = 2;
    config.queue_capacity = trace.size();
    config.latency = latency;
    config.seed = serve_seed;
    load::OpenLoopConfig open_loop;
    open_loop.time_scale = 1e-6;

    // Pin the async seam once, untimed: one replay must serve the exact
    // bytes a synchronous submit-everything-then-drain serves.
    double sync_checksum = 0.0;
    {
      serve::ReplicaPool reference(net, config);
      // Same input-wrapping rule the replayer uses: arrival i carries
      // workload[i % workload.size()].
      for (std::size_t i = 0; i < trace.size(); ++i) {
        reference.submit(workload[i % workload.size()]);
      }
      for (const auto& r : reference.drain()) sync_checksum += r.output;
    }
    {
      serve::ReplicaPool once(net, config);
      load::PoolPipeline pipe(once);
      load::Pipeline* const pipes[] = {&pipe};
      std::vector<std::vector<serve::RequestResult>> collected;
      load::replay(trace, workload, pipes, open_loop, &collected);
      double replay_checksum = 0.0;
      for (const auto& r : collected[0]) replay_checksum += r.output;
      WNF_ASSERT(replay_checksum == sync_checksum &&
                 "open-loop replay must serve the synchronous drain's bytes");
    }

    // Timed: repeated replays on one persistent pool (ids keep counting,
    // so the recorded checksum is the last window's — deterministic for a
    // fixed rep count, like the serve_throughput row).
    serve::ReplicaPool pool(net, config);
    load::PoolPipeline pipe(pool);
    load::Pipeline* const pipes[] = {&pipe};
    double checksum = 0.0;
    BenchEntry entry =
        time_scenario("load_replay/open_loop_pool_w2", trace.size(), [&] {
          std::vector<std::vector<serve::RequestResult>> collected;
          load::replay(trace, workload, pipes, open_loop, &collected);
          checksum = 0.0;
          for (const auto& r : collected[0]) checksum += r.output;
        });
    entry.checksum = checksum;
    entry.gated = false;  // wall-clock-scheduled: tracked, not gated
    file.benches.push_back(std::move(entry));
  }

  // The campaign engine on the analytic path (bench_campaign_backends'
  // reference row).
  {
    fault::CampaignConfig config;
    config.attack = fault::AttackKind::kRandomCrash;
    config.trials = 10;
    config.probes_per_trial = 4;
    config.seed = 21;
    const std::vector<std::size_t> counts{1, 1};
    theory::FepOptions fep;
    fep.mode = theory::FailureMode::kCrash;
    exec::InjectorBackend injector(net);
    double checksum = 0.0;
    const std::size_t probes = config.trials * config.probes_per_trial;
    BenchEntry entry = time_scenario("campaign_backends/injector", probes, [&] {
      const auto result =
          fault::run_campaign(net, counts, config, fep, injector);
      checksum = result.observed_max;
    });
    entry.checksum = checksum;
    file.benches.push_back(std::move(entry));
  }

  if (file.transport_available) {
    const auto transport_config = [&](std::size_t window) {
      transport::TransportConfig config;
      config.workers = 2;
      config.queue_capacity = workload.size();
      config.window = window;
      config.latency = latency;
      config.seed = serve_seed;
      return config;
    };
    const auto serve_all = [&](transport::WorkerHost& host) {
      host.submit_batch(workload);
      double checksum = 0.0;
      for (const auto& r : host.drain()) checksum += r.output;
      return checksum;
    };

    // Window sweep: construction (fork + bind) outside the timed region —
    // these rows track the steady ring cost per request. They mirror
    // serve_throughput/pool_w2's structure — one persistent host, ids
    // advancing across repetitions — so the pair prices exactly the
    // transport seam: pool_w2's timed window and ring_batchN's timed
    // window serve the same id ranges of the same stream. The untimed
    // first window (ids 0..N, faults firing) pins bit-identity against the
    // pool reference. Row names keep the batch sizes whose pipelines set
    // these windows (4 x 1, 4 x 8, 4 x 64), so the rows stay comparable
    // across snapshots.
    for (const std::size_t batch : {1u, 8u, 64u}) {
      transport::WorkerHost host(net, transport_config(4 * batch));
      host.set_timeline(bench_timeline());
      WNF_ASSERT(serve_all(host) == reference_checksum &&
                 "rings must serve the pool's exact outputs");
      double checksum = 0.0;
      char name[64];
      std::snprintf(name, sizeof(name), "transport_throughput/ring_batch%zu",
                    batch);
      BenchEntry entry = time_scenario(name, workload.size(),
                                       [&] { checksum = serve_all(host); });
      entry.checksum = checksum;
      file.benches.push_back(std::move(entry));
    }

    // Persistent fleet vs fork per campaign: 5 campaigns of 64 requests.
    const std::size_t campaigns = 5;
    const std::size_t campaign_requests = 64;
    const std::span<const std::vector<double>> campaign_workload{
        workload.data(), campaign_requests};
    const auto serve_campaign = [&](transport::WorkerHost& host) {
      host.submit_batch(campaign_workload);
      double checksum = 0.0;
      for (const auto& r : host.drain()) checksum += r.output;
      return checksum;
    };
    double persistent_checksum = 0.0;
    {
      transport::WorkerHost fleet(net, transport_config(32));
      persistent_checksum = serve_campaign(fleet);  // warm-up: the one fork
      BenchEntry entry =
          time_scenario("transport_throughput/persistent_rebind",
                        campaigns * campaign_requests, [&] {
                          for (std::size_t c = 0; c < campaigns; ++c) {
                            fleet.rebind(net);
                            persistent_checksum = serve_campaign(fleet);
                          }
                        });
      WNF_ASSERT(fleet.total_spawns() == 2);
      entry.checksum = persistent_checksum;
      file.benches.push_back(std::move(entry));
    }
    {
      double checksum = 0.0;
      BenchEntry entry =
          time_scenario("transport_throughput/fork_per_campaign",
                        campaigns * campaign_requests, [&] {
                          for (std::size_t c = 0; c < campaigns; ++c) {
                            transport::WorkerHost fresh(net,
                                                        transport_config(32));
                            checksum = serve_campaign(fresh);
                          }
                        });
      WNF_ASSERT(checksum == persistent_checksum &&
                 "fork-per-campaign must serve the fleet's exact outputs");
      entry.checksum = checksum;
      file.benches.push_back(std::move(entry));
    }
  }
  // File-level summary calibration: the best pass seen anywhere in the
  // emit (display + sanity; the gate normalizes per entry).
  file.calibration_ns_per_op = file.benches.front().cal_ns_per_op;
  for (const BenchEntry& entry : file.benches) {
    file.calibration_ns_per_op =
        std::min(file.calibration_ns_per_op, entry.cal_ns_per_op);
  }
  return file;
}

// --------------------------------------------------------------- emit/parse

void write_json(const BenchFile& file, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"schema\": 1,\n");
  std::fprintf(out, "  \"calibration_ns_per_op\": %.17g,\n",
               file.calibration_ns_per_op);
  std::fprintf(out, "  \"transport_available\": %s,\n",
               file.transport_available ? "true" : "false");
  std::fprintf(out, "  \"benches\": [\n");
  for (std::size_t i = 0; i < file.benches.size(); ++i) {
    const BenchEntry& entry = file.benches[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ops\": %zu, \"ns_per_op\": %.17g, "
                 "\"cal_ns_per_op\": %.17g, \"checksum\": %.17g%s}%s\n",
                 entry.name.c_str(), entry.ops, entry.ns_per_op,
                 entry.cal_ns_per_op, entry.checksum,
                 entry.gated ? "" : ", \"gated\": false",
                 i + 1 < file.benches.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

/// Minimal parser for exactly the format write_json produces (plus
/// whitespace tolerance). Not a general JSON parser; a malformed file
/// fails loudly rather than gating on garbage.
double parse_number_after(const std::string& text, std::size_t at,
                          const char* context) {
  const std::size_t colon = text.find(':', at);
  if (colon == std::string::npos) {
    std::fprintf(stderr, "malformed bench JSON near %s\n", context);
    std::exit(1);
  }
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

BenchFile parse_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  BenchFile file;
  const std::size_t cal = text.find("\"calibration_ns_per_op\"");
  if (cal == std::string::npos) {
    std::fprintf(stderr, "%s: no calibration_ns_per_op\n", path.c_str());
    std::exit(1);
  }
  file.calibration_ns_per_op =
      parse_number_after(text, cal, "calibration_ns_per_op");
  if (file.calibration_ns_per_op <= 0.0) {
    std::fprintf(stderr, "%s: non-positive calibration\n", path.c_str());
    std::exit(1);
  }
  const std::size_t avail = text.find("\"transport_available\"");
  file.transport_available =
      avail != std::string::npos &&
      text.compare(text.find(':', avail) + 1, 5, " true") == 0;

  std::size_t at = 0;
  while ((at = text.find("{\"name\": \"", at)) != std::string::npos) {
    BenchEntry entry;
    const std::size_t name_start = at + std::strlen("{\"name\": \"");
    const std::size_t name_end = text.find('"', name_start);
    entry.name = text.substr(name_start, name_end - name_start);
    const std::size_t ops = text.find("\"ops\"", name_end);
    entry.ops =
        static_cast<std::size_t>(parse_number_after(text, ops, "ops"));
    const std::size_t ns = text.find("\"ns_per_op\"", ops);
    entry.ns_per_op = parse_number_after(text, ns, "ns_per_op");
    const std::size_t close = text.find('}', ns);
    const std::size_t cal = text.find("\"cal_ns_per_op\"", ns);
    entry.cal_ns_per_op =
        cal != std::string::npos && cal < close
            ? parse_number_after(text, cal, "cal_ns_per_op")
            : file.calibration_ns_per_op;  // older files: file-level only
    const std::size_t checksum = text.find("\"checksum\"", ns);
    entry.checksum = parse_number_after(text, checksum, "checksum");
    const std::size_t gated = text.find("\"gated\"", ns);
    if (gated != std::string::npos && gated < close) {
      entry.gated =
          text.compare(text.find(':', gated) + 1, 6, " false") != 0;
    }
    file.benches.push_back(std::move(entry));
    at = name_end;
  }
  if (file.benches.empty()) {
    std::fprintf(stderr, "%s: no bench entries\n", path.c_str());
    std::exit(1);
  }
  return file;
}

// ----------------------------------------------------------------- compare

int compare(const std::string& baseline_path, const std::string& current_path,
            double tolerance, bool strict) {
  const BenchFile baseline = parse_json(baseline_path);
  const BenchFile current = parse_json(current_path);
  const bool transport_everywhere =
      baseline.transport_available && current.transport_available;

  Table table({"bench", "base ns/op", "cur ns/op", "base norm", "cur norm",
               "delta", "verdict"});
  int failures = 0;
  int warnings = 0;
  for (const BenchEntry& base : baseline.benches) {
    const auto match =
        std::find_if(current.benches.begin(), current.benches.end(),
                     [&](const BenchEntry& b) { return b.name == base.name; });
    if (match == current.benches.end()) {
      const bool transport_gap =
          base.name.rfind("transport", 0) == 0 && !transport_everywhere;
      table.add_row({base.name, Table::num(base.ns_per_op, 1), "-", "-", "-",
                     "-", transport_gap ? "skipped (no transport)"
                                        : "MISSING"});
      if (!transport_gap) ++failures;
      continue;
    }
    // Calibration-normalized ratio, per scenario: each side divides by
    // the calibration passes interleaved with that scenario's own
    // repetitions, so machine speed — and contention that arrived midway
    // through an emit — cancels to first order.
    const double base_cal = base.cal_ns_per_op > 0.0
                                ? base.cal_ns_per_op
                                : baseline.calibration_ns_per_op;
    const double cur_cal = match->cal_ns_per_op > 0.0
                               ? match->cal_ns_per_op
                               : current.calibration_ns_per_op;
    const double base_norm = base.ns_per_op / base_cal;
    const double cur_norm = match->ns_per_op / cur_cal;
    const double delta = cur_norm / base_norm - 1.0;
    std::string verdict = "ok";
    if (base.name != "calibration/rng_draw" && delta > tolerance) {
      // Ungated rows (wall-clock-scheduled measurands) report their drift
      // but never fail the gate; either side marking the row ungated wins,
      // so refreshing one file at a time cannot re-arm it.
      if (base.gated && match->gated) {
        verdict = "REGRESSION";
        ++failures;
      } else {
        verdict = "drift (ungated)";
      }
    }
    if (match->checksum != base.checksum) {
      verdict += strict ? " + CHECKSUM" : " (checksum drift)";
      if (strict) {
        ++failures;
      } else {
        ++warnings;
      }
    }
    char delta_text[32];
    std::snprintf(delta_text, sizeof(delta_text), "%+.1f%%", 100.0 * delta);
    table.add_row({base.name, Table::num(base.ns_per_op, 1),
                   Table::num(match->ns_per_op, 1), Table::num(base_norm, 2),
                   Table::num(cur_norm, 2), delta_text, verdict});
  }
  for (const BenchEntry& entry : current.benches) {
    const auto known = std::find_if(
        baseline.benches.begin(), baseline.benches.end(),
        [&](const BenchEntry& b) { return b.name == entry.name; });
    if (known == baseline.benches.end()) {
      table.add_row({entry.name, "-", Table::num(entry.ns_per_op, 1), "-",
                     "-", "-", "new (no baseline)"});
    }
  }
  table.print(std::cout);
  std::printf(
      "\ntolerance %.0f%%, normalized by each file's calibration ns/op "
      "(base %.2f, current %.2f)\n",
      100.0 * tolerance, baseline.calibration_ns_per_op,
      current.calibration_ns_per_op);
  if (warnings > 0) {
    std::printf(
        "%d checksum drift(s): expected across toolchains (libm); each emit "
        "run pins pool<->transport bit-identity internally. strict=1 makes "
        "these fail.\n",
        warnings);
  }
  if (failures > 0) {
    std::printf("FAIL: %d bench(es) regressed beyond tolerance.\n", failures);
    return 1;
  }
  std::printf("bench gate passed.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string mode = args.get_string("mode", "emit");
  if (mode == "compare") {
    const std::string baseline = args.get_string("baseline", "");
    const std::string current = args.get_string("current", "");
    const double tolerance = args.get_double("tolerance", 0.20);
    const bool strict = args.get_bool("strict", false);
    args.reject_unknown();
    if (baseline.empty() || current.empty()) {
      std::fprintf(stderr,
                   "usage: bench_to_json mode=compare baseline=A.json "
                   "current=B.json [tolerance=0.20] [strict=0]\n");
      return 1;
    }
    return compare(baseline, current, tolerance, strict);
  }
  const std::string out = args.get_string("out", "BENCH.json");
  args.reject_unknown();
  bench::bench_header(
      "bench_to_json — smoke-bench perf snapshot",
      "per-scenario ns/op + output checksums; feeds CI's regression gate");
  std::remove(out.c_str());  // an emit that aborts leaves no stale file
  const BenchFile file = measure();
  write_json(file, out);
  std::printf("wrote %zu bench entries to %s (calibration %.2f ns/op)\n",
              file.benches.size(), out.c_str(), file.calibration_ns_per_op);
  return 0;
}
