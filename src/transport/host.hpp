// The host side of the multi-process deployment: spawns worker processes
// over socketpair + fork, writes every probe into the worker's
// shared-memory request ring and harvests its result ring, drives the
// control sockets with a nonblocking poll() event loop, and realises
// crash faults as *real process deaths* — a scripted crash window
// SIGKILLs the worker, the host detects the death, resubmits that
// worker's in-flight requests to the survivors, and respawns the worker
// at the recovery boundary.
//
// The API deliberately mirrors serve::ReplicaPool (set_timeline / submit /
// poll / wait / drain / report): the WorkerHost is the same serving
// deployment one abstraction layer lower, with threads replaced by
// processes, the shared request queue replaced by per-worker rings, and
// the deployment state shipped as transport::Codec control frames.
//
// Determinism contract, inherited from the pool: every accepted request
// gets a child Rng split off the host's root stream at submission, and its
// fault state comes from the FaultTimeline by request id. The child's raw
// state ships inside the request slot, so a request's result is a pure
// function of (seed, id, input, timeline) — bit-identical to the
// in-process ReplicaPool whatever the worker count, the dispatch
// interleaving, or which workers died along the way. Worker deaths move
// *where* a request is computed, never *what* it computes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dist/latency.hpp"
#include "dist/sim.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "transport/codec.hpp"
#include "transport/ring.hpp"
#include "serve/completion.hpp"
#include "serve/report.hpp"
#include "serve/timeline.hpp"
#include "util/contract.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace wnf::transport {

/// One scripted worker-process death: when the dispatch frontier reaches
/// request `start`, worker `worker` is SIGKILLed for real; when it reaches
/// `end`, the worker is respawned (the recovery boundary). Windows are
/// timed in request ids like serve::FaultTimeline windows, so a scenario
/// replays identically whatever the machine speed. Pass
/// serve::FaultTimeline::kForever as `end` for a death with no scripted
/// recovery (the host still force-respawns if the deployment would
/// otherwise have no worker left to serve pending traffic).
struct CrashWindow {
  std::size_t worker = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Shape of one multi-process deployment.
struct TransportConfig {
  std::size_t workers = 1;  ///< worker processes, one simulator each
                            ///< (0 means hardware concurrency)
  std::size_t queue_capacity = 4096;  ///< outstanding requests (accepted,
                                      ///< not yet delivered) before shedding
  std::size_t window = 32;  ///< in-flight probes per worker (>= 1); results
                            ///< are bit-identical at any window
  dist::SimConfig sim;             ///< per-replica channel capacity
  dist::LatencyModel latency;  ///< per-request, per-neuron latency draws
  /// Optional Corollary-2 straggler cut, size L (empty = full waits).
  std::vector<std::size_t> straggler_cut;
  std::uint64_t seed = 0x5eed;  ///< root of the per-request Rng::split tree
  /// Slots per direction per worker. Sized to comfortably hold the window
  /// while keeping the per-worker mapping small enough that
  /// fork-per-campaign churn stays cheap — a request slot is ~640 bytes,
  /// so 256 slots is ~180 KiB per worker. A probe wider than
  /// kRingSlotDoubles inputs spans request_slots(width) slots, and a
  /// network whose probes need more slots than this is rejected at bind
  /// and rebind. A window wider than the ring just caps in-flight slots at
  /// the ring (dispatch checks space); correctness never depends on this.
  std::size_t ring_capacity = 256;
  /// Test-only: when a dispatched request id matches, its worker tears the
  /// result slot — begin_seq plus a partial payload, then SIGKILL — so the
  /// torn-slot detection and resubmission path can be exercised
  /// deterministically. Fires at most once per host; ~0 disarms.
  std::uint64_t debug_tear_result_at = ~std::uint64_t{0};
  /// When non-empty, every worker death (scripted SIGKILL or surprise
  /// EOF) dumps a bounded forensic JSON artifact into this directory
  /// (created if missing) — see obs::PostmortemWriter for the schema.
  std::string postmortem_dir;
  /// Host-side flight-recorder window per worker: the last N events the
  /// driver noted about that worker (dispatches, harvests, kills,
  /// telemetry flushes) that a postmortem replays. Only kept when
  /// postmortem_dir is set; never touched on the probe hot path.
  std::size_t postmortem_events = 48;
  /// Worker-process deaths, timed in request ids. Armed at construction
  /// and re-armed by every rebind(), as the seed is, so each deployment on
  /// the fleet replays the same deaths. Deaths move requests between
  /// processes, never change results.
  std::vector<CrashWindow> crash_script;
};

/// What changes when a live fleet is rebound (WorkerHost::rebind). Unset
/// fields keep their current values; the seed is *re-applied* either way —
/// a rebound deployment always restarts its request ids at 0 and reseeds
/// its root RNG, so it is bit-identical to a freshly constructed host.
struct RebindOptions {
  std::optional<std::uint64_t> seed;
  std::optional<std::vector<std::size_t>> straggler_cut;
  std::optional<std::size_t> queue_capacity;
};

/// A deployment of worker processes serving batched traffic over
/// shared-memory rings through an asynchronous submission/completion
/// pipeline.
///
/// Threading contract: one driver thread calls submit / poll / wait /
/// drain / set_timeline / report; the host is not thread-safe across
/// drivers, and it owns no threads of its own — parallelism lives across
/// the worker processes. Progress happens inside a nonblocking *pump*
/// that submit (opportunistically), poll, wait, and drain all share:
/// each pump runs the crash script, dispatches queued requests into the
/// rings of workers with window room, flushes sockets, and harvests
/// finished results into
/// a serve::CompletionQueue that merges them back into id order. Because
/// submission never blocks on execution and poll() never blocks at all,
/// one driver thread can keep several fleets saturated at once by
/// interleaving their pumps. Results delivered through poll()/wait() are
/// bit-identical to the synchronous drain they replaced (drain() remains
/// as a wrapper that waits out every outstanding request).
///
/// A host is a *reusable fleet*: workers are forked once at construction
/// and survive across campaigns — rebind() swaps the network, cut, seed,
/// and timeline on the live processes (one kRebind frame each) and resets
/// the request stream, making the rebound deployment bit-identical to a
/// freshly constructed host without paying fork + network shipping again.
class WorkerHost {
 public:
  using Config = TransportConfig;

  /// True when this platform supports the runtime (POSIX fork/socketpair).
  static bool available();

  /// Binds to `net` (kept by reference; must outlive the host), spawns the
  /// worker processes, and ships each one the network and configuration.
  /// Aborts on unsupported platforms — check available() first.
  WorkerHost(const nn::FeedForwardNetwork& net, TransportConfig config);

  /// Spawns the worker fleet *unbound*: processes fork and say hello, but
  /// no network ships until the first rebind(). Lets a deployment pay its
  /// fork cost before it knows what it will serve. Submitting or draining
  /// an unbound host is a contract violation.
  explicit WorkerHost(TransportConfig config);

  /// Rebinds the live fleet to `net` (kept by reference; must outlive the
  /// host): ships every worker one atomic kRebind frame, re-applies the
  /// seed (ids restart at 0), clears the timeline, re-arms the config's
  /// crash script, and resets the per-deployment report — the rebound
  /// fleet serves exactly what a freshly constructed host would, bit for
  /// bit, with zero new forks. Workers a previous crash script left dead
  /// rejoin first. Requires an idle pipeline (no request outstanding
  /// across the swap).
  void rebind(const nn::FeedForwardNetwork& net, RebindOptions options = {});

  /// False only between the unbound constructor and the first rebind().
  bool bound() const { return net_ != nullptr; }

  /// Shuts every worker down (shutdown frame, then reap; SIGKILL as the
  /// last resort for a worker that ignores it).
  ~WorkerHost();

  WorkerHost(const WorkerHost&) = delete;
  WorkerHost& operator=(const WorkerHost&) = delete;

  /// Installs a fault scenario (validated and segmented against the
  /// network, then broadcast to every worker). Applies to requests by id
  /// from here on. Requires an idle pipeline (no request outstanding).
  void set_timeline(serve::FaultTimeline timeline);

  /// Replaces the worker-death script with `script`, every window armed:
  /// a window the dispatch frontier has already passed is skipped, one it
  /// is inside fires at the next dispatch. The next rebind() re-arms the
  /// config's script instead.
  void set_crash_script(std::vector<CrashWindow> script);

  /// Submits one request to the pipeline; the dispatcher may ship it to a
  /// worker before this call returns, but never blocks on execution.
  /// Returns false (and counts a shed) when `queue_capacity` requests are
  /// already outstanding; the request id and Rng split are only consumed
  /// on acceptance, so shed load never perturbs accepted results.
  bool submit(std::vector<double> x);

  /// Submits a batch in order; returns how many were accepted (a prefix —
  /// once one is shed, the rest of the batch is too).
  std::size_t submit_batch(std::span<const std::vector<double>> batch);

  /// Pumps the pipeline without blocking and delivers the next result in
  /// id order if it has completed. False means that request is still in
  /// flight (later ids may have finished — they are held until the stream
  /// is gap-free).
  bool poll(serve::RequestResult& out);

  /// Blocks until the next result in id order completes (pumping the
  /// pipeline while it waits), then delivers it. Requires at least one
  /// outstanding request.
  serve::RequestResult wait();

  /// Compatibility wrapper over the async pipeline: waits out every
  /// outstanding request and returns the results in id order, executing
  /// the crash script along the way — exactly what the synchronous drain
  /// served, bit for bit.
  std::vector<serve::RequestResult> drain();

  /// Requests accepted and not yet delivered through poll()/wait().
  std::size_t pending() const { return outstanding_; }

  /// Throughput, completion statistics, and process-fault counters
  /// (shed / resubmitted / worker_restarts) over everything delivered
  /// since construction or the last rebind() —
  /// rebinding starts a fresh logical deployment, so its report starts
  /// fresh too. `rebinds` is the exception: it counts over the fleet's
  /// whole lifetime.
  serve::ServeReport report() const;

  std::size_t worker_count() const { return workers_.size(); }
  std::size_t alive_workers() const;
  std::size_t restarts() const { return counter_value(restarts_count_); }
  std::size_t resubmitted() const {
    return counter_value(resubmitted_count_);
  }
  /// Worker processes forked over the fleet's lifetime (initial spawns +
  /// every respawn, across rebinds). The fork-at-most-once guarantee for
  /// repeated campaigns is `total_spawns() == worker_count()` plus however
  /// many crash respawns the scripts demanded.
  std::size_t total_spawns() const { return total_spawns_; }
  /// Times this fleet was rebound (lifetime).
  std::size_t rebinds() const { return rebinds_; }
  /// Request slots written since construction / rebind — continuation
  /// slots of wide probes included, so probes x request_slots(width).
  std::size_t ring_slots_written() const {
    return counter_value(ring_slots_count_);
  }
  /// Doorbell bytes exchanged (both directions) on the control socket.
  std::size_t ring_doorbells() const {
    return counter_value(ring_doorbells_count_);
  }
  /// Torn result slots (worker died mid-write) detected and recovered by
  /// resubmission.
  std::size_t ring_torn_recovered() const {
    return counter_value(ring_torn_count_);
  }
  /// Host waits resolved by the bounded spin (no park).
  std::size_t ring_spin_wakeups() const {
    return counter_value(ring_spin_count_);
  }
  /// Host waits that parked on the socket for a doorbell.
  std::size_t ring_sleep_wakeups() const {
    return counter_value(ring_sleep_count_);
  }
  /// This deployment's metric registry (counters and latency histograms
  /// the report derives from) — live, for the metrics JSON exporter.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  std::uint64_t next_request_id() const { return next_id_; }
  const nn::FeedForwardNetwork& network() const {
    WNF_EXPECTS(net_ != nullptr);
    return *net_;
  }

  /// The worker's process id (for fault-injection tests that kill a live
  /// worker externally), or -1 when the worker is currently dead.
  int worker_pid(std::size_t worker) const;

  // --- Continuous-monitoring health mirror --------------------------------
  // Relaxed-atomic per-worker health the driver publishes at pump
  // boundaries (never per probe — no new atomics in request flow), for an
  // obs::Watchdog sampling from its own thread. See
  // transport::attach_fleet_watchdog (monitor.hpp) for the canonical
  // wiring.

  /// Opaque progress odometer for worker `w`: results harvested from it
  /// plus times it (re)spawned. Any change between samples means the
  /// worker moved; frozen while health_active() means it is wedged.
  std::uint64_t health_progress(std::size_t w) const;
  /// True when worker `w` is alive and owes results (a stall deadline
  /// should be armed).
  bool health_active(std::size_t w) const;
  /// The worker's pid as last published, -1 when dead.
  int health_pid(std::size_t w) const;
  /// Lifetime results delivered through poll()/wait() — the fleet-level
  /// progress odometer (paired with health_outstanding() as its gate).
  std::uint64_t health_delivered() const;
  std::uint64_t health_outstanding() const;

  /// SIGKILLs worker `w`'s process. Safe from any thread (the watchdog's
  /// forced-respawn hook): the driver sees the EOF on its next pump and
  /// the existing recovery machinery (resubmit to survivors + respawn)
  /// takes over — results are bit-identical by construction, because
  /// killing a worker at any moment never changes what gets computed.
  void force_kill_worker(std::size_t w);

  /// The postmortem writer, or nullptr when postmortem_dir was empty.
  const obs::PostmortemWriter* postmortems() const {
    return postmortem_.get();
  }

 private:
  static constexpr std::size_t kNoSegment = ~std::size_t{0};

  struct PendingRequest {
    std::uint64_t id = 0;
    std::vector<double> x;
    Rng rng;  ///< child stream split off at submission
  };

  /// One worker process as the host sees it.
  struct WorkerState {
    int pid = -1;
    int fd = -1;
    bool alive = false;
    bool hello_seen = false;
    std::uint64_t blocked_until = 0;   ///< scripted respawn boundary
    std::vector<std::uint8_t> inbox;   ///< bytes read, not yet framed
    std::vector<std::uint8_t> outbox;  ///< bytes queued, not yet written
    /// Request ids awaiting results, in dispatch order. A deque: workers
    /// answer in order, so the ring harvest pops the front once per probe
    /// — O(1) where a vector would memmove the whole window.
    std::deque<std::uint64_t> inflight;
    /// Transient dispatch() marker: this worker received slots in the
    /// current call and owes one doorbell check at the end of it.
    bool ring_dispatched = false;
    /// host_clock - worker_clock at Hello receipt: shifts this worker's
    /// Telemetry events onto the host trace timebase.
    std::int64_t clock_offset_ns = 0;
    /// Shared-memory ring pair, mapped before the first fork and reused
    /// (reset, never remapped) across respawns.
    std::unique_ptr<WorkerRings> rings;
    /// Control-plane frames enqueued to this worker process (bind,
    /// segments, rebind). Stamped into each request slot so the worker
    /// can defer ring probes that would overtake an in-flight control
    /// frame.
    std::uint64_t epoch = 0;
    /// The host control_gen_ this worker's applied deployment state
    /// matches; lets rebind() skip re-sending an identical deployment.
    std::uint64_t control_gen = 0;
    /// Results harvested from this worker, lifetime —
    /// half of the health-mirror progress odometer. Plain field: only the
    /// driver touches it; publish_health() copies it into the atomics.
    std::uint64_t harvested_total = 0;
    /// Times this slot forked a process, lifetime (the other half).
    std::uint64_t spawns = 0;
    /// Host-side flight recorder for postmortems: the last few events the
    /// driver noted about this worker, bounded at
    /// TransportConfig::postmortem_events. Empty when postmortems are off.
    std::deque<obs::TraceEvent> recent;
    /// Registry snapshot at this worker's last Telemetry flush (or its
    /// spawn) — postmortems report counter deltas against it. Only
    /// maintained when postmortems are on.
    obs::MetricsSnapshot flush_base;
  };

  struct ScriptWindow {
    CrashWindow window;
    bool fired = false;
  };

  void spawn(std::size_t w);
  void enqueue_bind(WorkerState& worker);
  void enqueue_segments(WorkerState& worker);
  BindMsg make_bind() const;
  /// Marks `w` dead, reaps the process, and moves its in-flight requests
  /// back to the resubmission queue. `expected` distinguishes scripted
  /// kills from spontaneous deaths (which respawn immediately).
  void worker_died(std::size_t w, bool expected);
  void kill_worker(std::size_t w, std::uint64_t recover_at);
  void respawn(std::size_t w);
  /// Applies the crash script at dispatch frontier `frontier_id`: fires
  /// due kills, respawns workers past their recovery boundary.
  void run_crash_script(std::uint64_t frontier_id);
  bool flush_outbox(std::size_t w);  ///< false when the write found a corpse

  /// One turn of the event loop: crash-script maintenance, dispatch of
  /// queued/resubmitted requests into workers with window room, socket
  /// flush, a poll() that blocks up to the timeout only when `block`, and
  /// a harvest of every finished result into the completion queue.
  void pump(bool block);
  /// Writes queued/resubmitted probes directly into request-ring slots
  /// (least-loaded placement within the window), ringing the doorbell of
  /// any parked worker.
  void dispatch();
  /// Drains every live worker's committed result slots into the
  /// completion queue (plus a space doorbell for workers parked on a full
  /// result ring). Returns how many results it harvested.
  std::size_t harvest_rings();
  /// Drains one worker's committed result slots. False on a protocol
  /// violation (unknown id, bad status) — the caller declares the worker
  /// dead, exactly like a malformed control frame.
  bool harvest_result_ring(std::size_t w, std::size_t& harvested);
  /// Bounded spin across the live result rings (the spin half of the
  /// host's spin-then-sleep wait). True when a result showed up.
  bool spin_for_results();
  /// Queues one doorbell byte to `w` (flushed with the normal outbox).
  void ring_doorbell(std::size_t w);
  /// Re-encodes the bind/segments control payloads iff their content
  /// changed, rebuilding the cached frames and bumping control_gen_.
  /// Every control-plane send path reuses the caches — one encode per
  /// deployment change instead of one per worker per spawn/rebind.
  /// refresh_bind=false skips re-serializing the network (timeline-only
  /// changes cannot move the bind payload).
  void refresh_control_frames(bool refresh_bind = true);
  /// Flushes `w`'s outbox and reads everything its socket has: doorbell
  /// bytes, Hello, and Telemetry frames.
  void service_worker(std::size_t w, bool readable, bool writable);
  void delivered(const serve::RequestResult& result);
  /// Ingests one worker Telemetry frame into the process
  /// TraceLog, clock-shifted by the worker's Hello offset. False when the
  /// payload does not decode (protocol violation).
  bool ingest_telemetry(const WorkerState& worker, const Frame& frame);
  /// Destructor-only: after the Shutdown frame, reads `worker`'s socket
  /// until EOF (bounded wait) so the worker's final telemetry flush is
  /// harvested instead of lost with the close.
  void drain_final_telemetry(WorkerState& worker);
  /// Copies driver-owned health (per-worker progress/inflight/pid, fleet
  /// delivered/outstanding) into the relaxed-atomic mirror. Called at
  /// pump boundaries and when the pipeline goes idle — pump granularity,
  /// never per probe.
  void publish_health();
  /// Appends one event to `w`'s bounded flight-recorder window. No-op
  /// unless postmortems are on.
  void note_worker_event(std::size_t w, obs::TraceName name,
                         std::uint64_t id, std::uint64_t value);
  /// Builds and writes the forensic artifact for `w`'s death (worker_died
  /// calls this before it clears the in-flight list).
  void write_postmortem(std::size_t w, bool expected, std::uint64_t torn,
                        int pid);

  const nn::FeedForwardNetwork* net_ = nullptr;  ///< null until first bind
  TransportConfig config_;
  serve::FaultTimeline timeline_;
  std::vector<std::size_t> wait_counts_;  ///< size L+1; empty = full waits
  std::vector<WorkerState> workers_;
  std::vector<ScriptWindow> script_;
  Rng root_;
  std::deque<PendingRequest> queue_;  ///< accepted, not yet dispatched
  /// Dispatched, unanswered — kept by id so a worker death can resubmit
  /// the exact request (input + split RNG state) to a survivor.
  std::unordered_map<std::uint64_t, PendingRequest> inflight_;
  std::vector<std::uint64_t> resubmit_;  ///< ids orphaned by deaths,
                                         ///< ascending (oldest first)
  serve::CompletionQueue completions_;
  std::size_t outstanding_ = 0;  ///< accepted - delivered
  std::uint64_t next_id_ = 0;

  /// Spontaneous deaths since the last harvested result. A worker fleet
  /// that keeps dying without serving anything (e.g. a config whose
  /// contract checks abort inside every worker) must fail the host
  /// loudly, not livelock in a fork-respawn storm.
  std::size_t deaths_without_progress_ = 0;

  static std::size_t counter_value(const obs::Counter* counter) {
    return counter ? static_cast<std::size_t>(counter->value()) : 0;
  }

  // Aggregates over every delivery since construction / the last rebind()
  // (id order, so deterministic). The fault/ring counters live in the
  // metrics registry (report() derives from it; rebind() resets it);
  // completion times keep exact samples for the pinned report quantiles.
  // rebinds_ and total_spawns_ are lifetime, like the fleet itself.
  std::chrono::steady_clock::time_point busy_start_{};
  SampleHistogram completion_;
  obs::MetricsRegistry metrics_;
  obs::Counter* shed_count_ = nullptr;
  obs::Counter* resets_count_ = nullptr;
  obs::Counter* resubmitted_count_ = nullptr;
  obs::Counter* restarts_count_ = nullptr;
  obs::Counter* ring_slots_count_ = nullptr;
  obs::Counter* ring_doorbells_count_ = nullptr;
  obs::Counter* ring_torn_count_ = nullptr;
  obs::Counter* ring_spin_count_ = nullptr;
  obs::Counter* ring_sleep_count_ = nullptr;
  obs::LogHistogram* completion_hist_ = nullptr;
  obs::LogHistogram* queue_depth_hist_ = nullptr;
  std::size_t rebinds_ = 0;
  std::size_t total_spawns_ = 0;
  /// The debug_tear_result_at hook has fired (it tears exactly one slot:
  /// the resubmitted probe must ship clean or the fleet would relive the
  /// crash forever).
  bool tear_fired_ = false;
  // Cached control-plane encodings (satellite: one encode per deployment
  // change, not one per worker per spawn/rebind; identical rebinds skip
  // the send entirely). control_gen_ counts content changes; workers
  // record the generation they were last synced to.
  std::vector<std::uint8_t> bind_payload_;
  std::vector<std::uint8_t> segments_payload_;
  std::vector<std::uint8_t> bind_frame_;
  std::vector<std::uint8_t> segments_frame_;
  std::vector<std::uint8_t> rebind_frame_;
  std::uint64_t control_gen_ = 0;
  double wall_seconds_ = 0.0;
  /// Disambiguates async trace ids across deployments: every rebind gets
  /// a fresh tag, and a request's async span id is tag + request id.
  std::uint64_t trace_tag_ = 0;

  /// One cache line per worker of relaxed atomics — the only state the
  /// watchdog thread reads. Fixed-size array allocated at construction,
  /// so readers never race a reallocation.
  struct alignas(64) WorkerHealth {
    std::atomic<std::uint64_t> progress{0};
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<int> pid{-1};
    std::atomic<bool> alive{false};
  };
  std::unique_ptr<WorkerHealth[]> health_;
  std::atomic<std::uint64_t> health_delivered_{0};
  std::atomic<std::uint64_t> health_outstanding_{0};
  /// Lifetime deliveries (plain: driver-only; mirrored into
  /// health_delivered_ by publish_health()).
  std::uint64_t delivered_total_ = 0;
  /// Non-null when TransportConfig::postmortem_dir was set.
  std::unique_ptr<obs::PostmortemWriter> postmortem_;
};

}  // namespace wnf::transport
