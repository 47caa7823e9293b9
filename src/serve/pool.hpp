// Fault-aware serving runtime over the message-level simulator: the repo's
// step from "replay one request on one thread" to the ROADMAP's
// heavy-traffic deployment. A NetworkSimulator is documented not
// thread-safe, so the scaling unit is the *replica*: one simulator per
// worker thread, each with its own preallocated workspaces, fed from a
// shared dispatch queue the moment a request is accepted.
//
// Determinism contract: every accepted request gets a child Rng split off
// the pool's root stream at submission, and its fault state comes from the
// FaultTimeline by request id. A request's result is therefore a pure
// function of (seed, id, input, timeline) — bit-identical whatever the
// replica count or scheduling, which is what makes a parallel serving run
// auditable against a sequential one. Cut stragglers always reset to zero
// (the Corollary-2 semantics the certificate covers); hold-last would make
// results depend on which replica served the previous request.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dist/boosting.hpp"
#include "dist/latency.hpp"
#include "dist/sim.hpp"
#include "obs/metrics.hpp"
#include "serve/completion.hpp"
#include "serve/report.hpp"
#include "serve/timeline.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace wnf::serve {

/// Shape of one serving deployment.
struct ServeConfig {
  std::size_t replicas = 1;  ///< worker threads, one simulator each
                             ///< (0 means hardware concurrency)
  std::size_t queue_capacity = 4096;  ///< outstanding requests (accepted,
                                      ///< not yet delivered) the pool
                                      ///< carries before rejecting
                                      ///< (load shedding)
  dist::SimConfig sim;                ///< per-replica channel capacity
  dist::LatencyModel latency;  ///< per-request, per-neuron latency draws
  /// Optional Corollary-2 straggler cut, size L (empty = full waits).
  /// Realized end to end, output client included, via wait_counts_from_cut.
  std::vector<std::size_t> straggler_cut;
  std::uint64_t seed = 0x5eed;  ///< root of the per-request Rng::split tree
};

// RequestResult and ServeReport live in serve/report.hpp, shared with the
// multi-process transport::WorkerHost.

/// A pool of simulator replicas serving batched traffic through an
/// asynchronous submission/completion pipeline.
///
/// Threading contract: one driver thread calls submit / poll / wait /
/// drain / set_timeline / report; the pool is not thread-safe across
/// drivers. Execution is asynchronous to the driver — each replica runs on
/// its own worker thread, pulling accepted requests off a shared dispatch
/// queue the moment they are submitted, so submit() never blocks on
/// execution and the driver can keep several deployments saturated at
/// once. Workers push finished results into a CompletionQueue, which
/// merges them back into request-id order; poll()/wait() are the
/// completion primitives and drain() is a thin wrapper that waits out
/// every outstanding request. Because delivery is in id order and every
/// result is a pure function of (seed, id, input, timeline), the
/// asynchronous pipeline is bit-identical to the synchronous drain it
/// replaced at any replica count. set_timeline() and rebind() require an
/// idle pipeline (no outstanding requests): a swap mid-flight would race
/// the workers' segment installs.
class ReplicaPool {
 public:
  using Config = ServeConfig;

  /// Binds to `net` (kept by reference; must outlive the pool) and spawns
  /// the worker threads with one simulator replica each.
  ReplicaPool(const nn::FeedForwardNetwork& net, ServeConfig config);

  /// Rebinds the pool to `net` (kept by reference; must outlive the pool):
  /// rebuilds every replica's simulator while the worker threads stay
  /// parked, re-applies the seed (ids restart at 0), clears the timeline,
  /// and resets the report and metric registry in place. The rebound pool
  /// serves exactly what a freshly constructed one would, bit for bit,
  /// without respawning a thread. Requires an idle pipeline.
  void rebind(const nn::FeedForwardNetwork& net);

  /// Joins the worker threads; outstanding results are discarded.
  ~ReplicaPool();

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// Installs a fault scenario (validated and segmented against the
  /// network). Applies to requests by id from here on. Requires an idle
  /// pipeline: every submitted request delivered (pending() == 0).
  void set_timeline(FaultTimeline timeline);

  /// Submits one request to the pipeline; workers may start executing it
  /// immediately. Returns false (and counts a rejection) when
  /// `queue_capacity` requests are already outstanding; the request id and
  /// Rng split are only consumed on acceptance, so shed load never
  /// perturbs accepted results.
  bool submit(std::vector<double> x);

  /// Submits a batch in order; returns how many were accepted (a prefix —
  /// once one is shed, the rest of the batch is too).
  std::size_t submit_batch(std::span<const std::vector<double>> batch);

  /// Delivers the next result in id order if it has completed; never
  /// blocks. False means that request is still executing (later ids may
  /// have finished — they are held until the stream is gap-free).
  bool poll(RequestResult& out);

  /// Blocks until the next result in id order completes, then delivers
  /// it. Requires at least one outstanding request.
  RequestResult wait();

  /// Compatibility wrapper over the async pipeline: waits out every
  /// outstanding request and returns the results in id order — exactly
  /// what the synchronous drain served, bit for bit.
  std::vector<RequestResult> drain();

  /// Throughput and completion-time statistics over everything delivered
  /// since construction or the last rebind(). `rebinds` counts over the
  /// pool's whole lifetime.
  ServeReport report() const;

  std::size_t replica_count() const { return replicas_.size(); }
  /// This deployment's metric registry (counters and latency histograms
  /// the report derives from) — live, for the metrics JSON exporter.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Requests accepted and not yet delivered through poll()/wait().
  std::size_t pending() const { return outstanding_.load(); }
  std::uint64_t next_request_id() const { return next_id_; }
  const nn::FeedForwardNetwork& network() const { return *net_; }

 private:
  /// One worker's serving state: a simulator, the timeline segment it
  /// currently has installed (so consecutive requests in the same segment
  /// skip the plan re-install), and one run's block, sized on first use.
  struct Replica {
    explicit Replica(const nn::FeedForwardNetwork& net,
                     const dist::SimConfig& config)
        : sim(net, config) {}
    dist::NetworkSimulator sim;
    std::size_t segment = kNoSegment;
    std::vector<std::span<const double>> inputs;
    std::vector<Rng> streams;
    std::vector<dist::SimResult> results;
  };
  static constexpr std::size_t kNoSegment = ~std::size_t{0};

  struct PendingRequest {
    std::uint64_t id = 0;
    std::vector<double> x;
    Rng rng;  ///< child stream split off at submission
  };

  /// Points the pool at `net`: one fresh simulator per replica and the
  /// straggler cut's wait counts for it.
  void bind(const nn::FeedForwardNetwork& net);
  /// The replica step: serves `run`, consecutive requests of timeline
  /// segment `segment`, as one simulator block (installing the segment's
  /// plan on a segment change) and appends their results.
  void serve_run(Replica& replica, std::size_t segment,
                 std::span<const PendingRequest> run,
                 std::vector<RequestResult>& finished);
  void worker_loop(std::size_t r);
  void delivered(const RequestResult& result);

  const nn::FeedForwardNetwork* net_;
  ServeConfig config_;
  FaultTimeline timeline_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::size_t> wait_counts_;  ///< size L+1; empty = full waits
  Rng root_;
  std::uint64_t next_id_ = 0;

  // The async pipeline: driver-side dispatch queue feeding the worker
  // threads, worker-side completion queue feeding the driver.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> dispatch_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
  CompletionQueue completions_;
  std::atomic<std::size_t> outstanding_{0};  ///< accepted - delivered

  // Aggregates over every delivery since construction / the last rebind()
  // (id order, so deterministic). The counters live in the metrics
  // registry (report() derives from it; rebind() resets it); completion
  // times keep exact samples for the pinned report quantiles. rebinds_ is
  // lifetime. All touched by the driver thread only.
  std::chrono::steady_clock::time_point busy_start_{};
  SampleHistogram completion_;
  obs::MetricsRegistry metrics_;
  obs::Counter* rejected_count_ = nullptr;
  obs::Counter* resets_count_ = nullptr;
  obs::LogHistogram* completion_hist_ = nullptr;
  obs::LogHistogram* queue_depth_hist_ = nullptr;
  double wall_seconds_ = 0.0;
  std::size_t rebinds_ = 0;
  /// High bits of this deployment's async trace ids (request-id low bits).
  std::uint64_t trace_tag_ = 0;
};

}  // namespace wnf::serve
