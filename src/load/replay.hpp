// Open-loop traffic replay: drives serving pipelines from a fixed
// ArrivalTrace, submitting each request at its scheduled wall-clock time
// regardless of how fast completions come back.
//
// This is the measurement half of the open-loop story (load/trace.hpp is
// the schedule half). A closed-loop driver — submit, drain, repeat — can
// never observe overload because its offered rate collapses to the
// service rate. The replayer keeps offering at the trace's rate, so when
// the deployment saturates, queues grow, sojourn tails stretch, and the
// shedding knobs engage — exactly the regime where p99/p99.9 and the
// admission policy, not the mean, decide whether a million-user
// deployment holds.
//
// Because every pipeline primitive here is non-blocking (try_submit /
// poll), ONE driver thread can keep several deployments saturated at once
// by interleaving their pumps — the replayer takes a span of pipelines and
// routes arrivals by tenant. Determinism: sojourn times and shed *counts*
// depend on wall-clock timing, but every admitted request's simulated
// result is still a pure function of (seed, id, input, timeline), so a
// replay's outputs are bit-identical to a synchronous drain of the same
// admitted sequence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "load/trace.hpp"
#include "obs/export.hpp"
#include "obs/snapshot.hpp"
#include "serve/pool.hpp"
#include "serve/report.hpp"
#include "transport/host.hpp"

namespace wnf::load {

/// The non-blocking slice of a serving deployment the replayer drives.
/// Adapters below wrap the two real runtimes; tests substitute stubs with
/// scripted completion behaviour.
class Pipeline {
 public:
  virtual ~Pipeline() = default;

  /// Submits one request; false means the deployment's bounded queue shed
  /// it. Must never block on execution.
  virtual bool try_submit(std::vector<double> x) = 0;

  /// Delivers the next result in id order if it has completed; must pump
  /// any underlying event loop without blocking.
  virtual bool poll(serve::RequestResult& out) = 0;

  /// Requests accepted and not yet delivered.
  virtual std::size_t outstanding() const = 0;

  /// The deployment's own aggregate view (simulated-time percentiles,
  /// fault counters, ...). The replayer's LoadReport measures wall-clock
  /// sojourn on top of this, not instead of it.
  virtual serve::ServeReport report() const = 0;
};

/// A serving runtime as a Pipeline: the four calls forward to it. A
/// WorkerHost's poll() pumps its event loop, so interleaving two
/// HostPipelines from one driver thread keeps both fleets dispatching and
/// harvesting.
template <typename Runtime>
class RuntimePipeline final : public Pipeline {
 public:
  explicit RuntimePipeline(Runtime& runtime) : runtime_(runtime) {}
  bool try_submit(std::vector<double> x) override {
    return runtime_.submit(std::move(x));
  }
  bool poll(serve::RequestResult& out) override { return runtime_.poll(out); }
  std::size_t outstanding() const override { return runtime_.pending(); }
  serve::ServeReport report() const override { return runtime_.report(); }

 private:
  Runtime& runtime_;
};

/// In-process deployment: thread-per-replica ReplicaPool.
using PoolPipeline = RuntimePipeline<serve::ReplicaPool>;
/// Multi-process deployment: persistent WorkerHost fleet.
using HostPipeline = RuntimePipeline<transport::WorkerHost>;

/// Replay policy knobs.
struct OpenLoopConfig {
  /// Wall seconds per trace second. 1.0 replays in real time; small values
  /// compress a long trace into a fast test (the schedule's *shape* is
  /// preserved — overload is set by the trace rate vs service rate, not by
  /// time_scale).
  double time_scale = 1.0;
  /// Admission control: shed an arrival when its pipeline already has this
  /// many requests outstanding (0 = unlimited, rely on the deployment's
  /// own bounded queue). Bounds sojourn of admitted requests under
  /// sustained overload at the price of explicit drops.
  std::size_t admission_limit = 0;
  /// SLO-aware shedding: an arrival the driver reaches more than this many
  /// wall seconds after its scheduled time is dropped unsubmitted (0 =
  /// disabled) — a reply that already blew its deadline is worthless, and
  /// serving it only delays the requests that can still make theirs.
  double slo_seconds = 0.0;
  /// How long the driver naps when a poll sweep finds nothing (it never
  /// naps past the next scheduled arrival). 0 busy-spins the driver core —
  /// worth it when the nap quantum would dominate the sojourns being
  /// measured (timing-sensitive benches); the default stays far below any
  /// sojourn worth reporting without burning a core.
  double idle_nap_seconds = 50e-6;
  /// Periodic time-series sampling: every this many wall seconds the
  /// replayer banks one obs::TimeSeriesSample per tenant (offered /
  /// completed / shed rps over the window) into LoadReport::series — the
  /// feed for the metrics JSON exporter. 0 disables sampling; rates are
  /// wall-clock observations, so the series is diagnostic, not pinned.
  double sample_seconds = 0.0;
  /// Optional continuous-monitoring hook: every banked time-series sample
  /// is also handed to this Snapshotter (per-tenant offered/completed/
  /// shed plus SLO attainment land in its current window), so a replay's
  /// report can be reconstructed for any sub-interval of the snapshot
  /// stream. Requires sample_seconds > 0 to have any effect; the
  /// Snapshotter must outlive the replay call. Not owned.
  obs::Snapshotter* snapshotter = nullptr;
};

/// Per-tenant slice of a replay.
struct TenantStats {
  std::uint32_t tenant = 0;   ///< the trace's tenant id
  std::size_t offered = 0;    ///< arrivals in the trace for this tenant
  std::size_t admitted = 0;   ///< submitted and accepted
  std::size_t completed = 0;  ///< delivered back through poll()
  std::size_t shed = 0;       ///< all shed kinds combined
  double p50 = 0.0;           ///< wall-clock sojourn percentiles (seconds
  double p99 = 0.0;           ///< from *scheduled* arrival to delivery)
};

/// What one open-loop replay measured. Sojourn percentiles are wall-clock
/// seconds from an arrival's *scheduled* time to its delivery — measuring
/// from the scheduled time (not the submit call) is what makes coordinated
/// omission impossible: a driver that falls behind charges the lateness to
/// the requests that suffered it.
struct LoadReport {
  std::size_t offered = 0;          ///< arrivals in the trace
  std::size_t admitted = 0;         ///< accepted into a pipeline
  std::size_t completed = 0;        ///< delivered (== admitted once drained)
  std::size_t shed_slo = 0;         ///< dropped: past slo_seconds late
  std::size_t shed_admission = 0;   ///< dropped: admission_limit reached
  std::size_t shed_queue = 0;       ///< dropped: deployment queue refused
  double wall_seconds = 0.0;        ///< replay start to last delivery
  double offered_rps = 0.0;         ///< offered / (duration * time_scale)
  double completed_rps = 0.0;       ///< completed / wall_seconds
  double p50 = 0.0;                 ///< wall-clock sojourn percentiles
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;                ///< the overload tail
  /// One entry per distinct tenant id in the trace, ascending by id (a
  /// trace of tenants 0..k-1 has tenants[t].tenant == t).
  std::vector<TenantStats> tenants;
  /// Per-tenant rate samples at config.sample_seconds cadence (empty when
  /// sampling is off); tenant-major within each sampling instant.
  std::vector<obs::TimeSeriesSample> series;
};

/// Replays `trace` open-loop against `pipes` from the calling thread:
/// arrival i targets pipes[tenant % pipes.size()] with input
/// `inputs[i % inputs.size()]`, submitted at its scheduled wall time
/// (trace time × time_scale from replay start). Between arrivals and
/// through the tail drain, the driver polls every pipeline round-robin, so
/// all deployments stay saturated concurrently. Returns once every
/// admitted request has been delivered.
///
/// When `collected` is non-null it is resized to pipes.size() and each
/// pipeline's delivered results are appended in id order — the hook for
/// auditing a replay bit-for-bit against a synchronous drain of the same
/// admitted inputs.
///
/// Requires non-empty pipes and inputs, and every pipeline idle on entry.
LoadReport replay(const ArrivalTrace& trace,
                  std::span<const std::vector<double>> inputs,
                  std::span<Pipeline* const> pipes,
                  const OpenLoopConfig& config = {},
                  std::vector<std::vector<serve::RequestResult>>* collected =
                      nullptr);

/// Replays a multi-tenant trace through ONE persistent WorkerHost fleet by
/// time-sharing: tenant t's arrivals (rebased so its first slice second is
/// wall zero) replay open-loop against `nets[t]`, then the live fleet is
/// rebound to the next tenant's network — serving every tenant with zero
/// new forks. The host must be idle between slices, so each tenant's slice
/// fully drains before the rebind; request ids restart at 0 per slice,
/// making each tenant's results bit-identical to a dedicated fresh host.
/// Returns one LoadReport per tenant, in tenant order.
///
/// Requires non-empty nets/inputs, every arrival's tenant < nets.size(),
/// and a bound or unbound (pre-forked) host.
std::vector<LoadReport> replay_time_shared(
    transport::WorkerHost& host,
    std::span<const nn::FeedForwardNetwork* const> nets,
    const ArrivalTrace& trace, std::span<const std::vector<double>> inputs,
    const OpenLoopConfig& config = {},
    std::vector<std::vector<serve::RequestResult>>* collected = nullptr);

}  // namespace wnf::load
