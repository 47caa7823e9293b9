// Transport-deployment throughput: what crossing a process boundary costs
// relative to the in-process replica pool. The same workload is served by
// serve::ReplicaPool (threads sharing the address space) and by
// transport::WorkerHost (worker processes fed through shared-memory SPSC
// rings) at 1/2/8 workers — same seed, so both runtimes and every worker
// count compute bit-identical outputs, and the table isolates pure
// transport overhead (slot writes, doorbells, poll scheduling).
//
// A window sweep (4/32/256 in-flight probes per worker) shows how much
// pipelining the rings need; a SIGKILL row prices real crash recovery in
// wall time; and a persistent-fleet vs fork-per-campaign pair prices what
// rebind() saves when the same fleet serves repeated campaigns instead of
// re-forking for each.
//
// Run: ./bench_transport_throughput [requests=2048] [width=64] [depth=2]
//                                   [max_workers=8] [window=32]
//                                   [campaigns=5] [seed=1]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>

#include "bench/common.hpp"
#include "serve/pool.hpp"
#include "transport/host.hpp"
#include "transport/worker.hpp"

int main(int argc, char** argv) {
  using namespace wnf;
  CliArgs args(argc, argv);
  const auto requests =
      static_cast<std::size_t>(args.get_int("requests", 2048));
  const auto width = static_cast<std::size_t>(args.get_int("width", 64));
  const auto depth = static_cast<std::size_t>(args.get_int("depth", 2));
  const auto max_workers =
      static_cast<std::size_t>(args.get_int("max_workers", 8));
  const auto window = static_cast<std::size_t>(args.get_int("window", 32));
  const auto campaigns = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("campaigns", 5)));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.reject_unknown();

  bench::bench_header(
      "transport throughput — worker processes vs in-process replicas",
      "the rings price process isolation; identical seeds keep "
      "every runtime and worker count bit-identical");

  if (!transport::transport_available()) {
    std::printf("transport unavailable on this platform (no POSIX fork/"
                "socketpair); skipping.\n");
    return 0;
  }

  Rng rng(seed);
  nn::NetworkBuilder builder(8);
  builder.activation(nn::ActivationKind::kSigmoid, 1.0);
  for (std::size_t l = 0; l < depth; ++l) builder.hidden(width);
  const auto net = builder.init(nn::InitKind::kScaledUniform, 0.8).build(rng);
  const auto workload = bench::probe_inputs(requests, 8, rng);
  const dist::LatencyModel latency{dist::LatencyKind::kHeavyTail, 1.0, 50.0,
                                   0.2};

  std::printf("network %zux%zu, %zu requests, window %zu\n\n", width,
              depth, requests, window);

  Table table({"runtime", "workers", "window", "wall s", "req/s",
               "restarts", "resubmitted", "output checksum"});
  const auto add_row = [&](const std::string& runtime, std::size_t workers,
                           std::size_t window_size,
                           const serve::ServeReport& report, double checksum) {
    table.add_row({runtime, std::to_string(workers),
                   std::to_string(window_size),
                   Table::num(report.wall_seconds, 3),
                   Table::num(report.throughput_rps, 0),
                   std::to_string(report.worker_restarts),
                   std::to_string(report.resubmitted),
                   Table::num(checksum, 9)});
  };

  double reference_checksum = 0.0;
  for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
    serve::ServeConfig config;
    config.replicas = workers;
    config.queue_capacity = requests;
    config.latency = latency;
    config.seed = seed + 7;
    serve::ReplicaPool pool(net, config);
    pool.submit_batch(workload);
    double checksum = 0.0;
    for (const auto& result : pool.drain()) checksum += result.output;
    add_row("pool (threads)", workers, 0, pool.report(), checksum);
    if (workers == 1) reference_checksum = checksum;
    WNF_ASSERT(checksum == reference_checksum);
  }

  const auto make_config = [&](std::size_t workers, std::size_t window_size) {
    transport::TransportConfig config;
    config.workers = workers;
    config.queue_capacity = requests;
    config.window = window_size;
    config.latency = latency;
    config.seed = seed + 7;
    return config;
  };

  for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
    transport::WorkerHost host(net, make_config(workers, window));
    host.submit_batch(workload);
    double checksum = 0.0;
    for (const auto& result : host.drain()) checksum += result.output;
    add_row("transport (rings)", workers, window, host.report(), checksum);
    WNF_ASSERT(checksum == reference_checksum);
  }

  // Window sweep: same deployment, 4/32/256 in-flight probes per worker.
  // The checksum never moves; only how far the host runs ahead does.
  const std::size_t sweep_workers = std::max<std::size_t>(2, max_workers / 2);
  for (const std::size_t window_size : {std::size_t{4}, std::size_t{32},
                                        std::size_t{256}}) {
    transport::WorkerHost host(net, make_config(sweep_workers, window_size));
    host.submit_batch(workload);
    double checksum = 0.0;
    for (const auto& result : host.drain()) checksum += result.output;
    add_row("window sweep", sweep_workers, window_size, host.report(),
            checksum);
    WNF_ASSERT(checksum == reference_checksum);
  }

  // Crash recovery priced: one worker is SIGKILLed a quarter of the way in
  // and respawned halfway through; outputs still match bit for bit.
  {
    transport::WorkerHost host(net, make_config(sweep_workers, window));
    host.set_crash_script({{0, requests / 4, requests / 2}});
    host.submit_batch(workload);
    double checksum = 0.0;
    for (const auto& result : host.drain()) checksum += result.output;
    add_row("transport + SIGKILL", sweep_workers, window, host.report(),
            checksum);
    WNF_ASSERT(checksum == reference_checksum);
    WNF_ASSERT(host.report().worker_restarts >= 1);
  }
  table.print(std::cout);

  // Persistent fleet vs fork-per-campaign: the total workload split into
  // `campaigns` consecutive small campaigns, served once by a single
  // rebound fleet and once by a fresh fleet per campaign. Small campaigns
  // on small networks make the per-campaign fork + network shipping cost
  // dominate — exactly the repeated-campaign shape rebind() amortises.
  const std::size_t campaign_requests =
      std::max<std::size_t>(1, requests / campaigns);
  const std::span<const std::vector<double>> campaign_workload{
      workload.data(), campaign_requests};
  const auto campaign_checksum = [&](transport::WorkerHost& host) {
    host.submit_batch(campaign_workload);
    double checksum = 0.0;
    for (const auto& result : host.drain()) checksum += result.output;
    return checksum;
  };

  // Marginal cost of one more campaign: the fleet forks once (warm-up
  // campaign, untimed — after it the fleet simply exists, which is the
  // amortisation claim), then every further campaign costs rebind + serve.
  // The fork path pays fork + bind + serve every single time.
  transport::WorkerHost fleet(net, make_config(sweep_workers, window));
  const double persistent_checksum = campaign_checksum(fleet);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < campaigns; ++c) {
    fleet.rebind(net);
    WNF_ASSERT(campaign_checksum(fleet) == persistent_checksum);
  }
  const auto t1 = std::chrono::steady_clock::now();
  WNF_ASSERT(fleet.total_spawns() == sweep_workers);
  for (std::size_t c = 0; c < campaigns; ++c) {
    transport::WorkerHost fresh(net, make_config(sweep_workers, window));
    WNF_ASSERT(campaign_checksum(fresh) == persistent_checksum);
  }
  const auto t2 = std::chrono::steady_clock::now();

  const double persistent_s = std::chrono::duration<double>(t1 - t0).count();
  const double forked_s = std::chrono::duration<double>(t2 - t1).count();
  std::printf(
      "\n%zu further campaigns x %zu requests on %zu workers (fleet forked "
      "once, untimed):\n"
      "  persistent fleet (rebind)   %.3f s  (%.0f req/s)\n"
      "  fork per campaign           %.3f s  (%.0f req/s)\n"
      "  speedup                     %.2fx\n",
      campaigns, campaign_requests, sweep_workers, persistent_s,
      static_cast<double>(campaigns * campaign_requests) / persistent_s,
      forked_s,
      static_cast<double>(campaigns * campaign_requests) / forked_s,
      forked_s / persistent_s);

  std::printf(
      "\nevery row sums to the same checksum: process isolation, the rings,\n"
      "the window, rebinding, and even a SIGKILLed worker change where\n"
      "requests run, never what they compute.\n");
  return 0;
}
