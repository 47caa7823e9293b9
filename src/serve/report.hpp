// Shared serving-deployment result types: what one served request looks
// like and how a whole deployment summarises its traffic. Lives apart from
// the pool so every serving-shaped runtime — the in-process ReplicaPool
// and the multi-process transport::WorkerHost — reports through one type
// and downstream tables/benches never care which runtime produced it.
#pragma once

#include <cstdint>
#include <cstddef>

#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace wnf::serve {

/// One served request, reported in id order by drain().
struct RequestResult {
  std::uint64_t id = 0;          ///< global submission index
  double output = 0.0;           ///< Fneu(X) under that request's faults
  double completion_time = 0.0;  ///< simulated time until the output client
                                 ///< has heard everything it waits for
  std::size_t resets_sent = 0;   ///< Section V-B reset-message accounting
};

/// Aggregate view of everything a deployment has served so far. `shed`,
/// `resubmitted` and `worker_restarts` are transport-runtime effects
/// (process-level load shedding, worker deaths); in-process runtimes
/// report them as zero.
struct ServeReport {
  std::size_t completed = 0;     ///< requests drained
  std::size_t rejected = 0;      ///< submissions shed by the bounded queue
  std::size_t replicas = 0;
  double wall_seconds = 0.0;     ///< host time spent inside drain()
  double throughput_rps = 0.0;   ///< completed / wall_seconds
  Summary completion;            ///< simulated completion-time moments
  double p50 = 0.0;              ///< completion-time percentiles
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;             ///< the overload tail (open-loop replays
                                 ///< live and die by p99.9, not the mean)
  std::size_t resets_sent = 0;   ///< total reset messages across requests
  std::size_t shed = 0;          ///< transport-level backpressure drops
                                 ///< (mirrors `rejected` on a WorkerHost;
                                 ///< always 0 on in-process backends)
  std::size_t resubmitted = 0;   ///< in-flight requests re-dispatched to
                                 ///< survivors after a worker-process death
  std::size_t worker_restarts = 0;  ///< worker processes respawned (crash
                                    ///< recovery boundaries + forced)
  std::size_t rebinds = 0;       ///< times the pool or fleet was rebound
                                 ///< to a new deployment without new
                                 ///< threads or forks (lifetime, unlike
                                 ///< the other counters)
};

/// Fills the completion-statistics block of `report` — completed count,
/// wall clock, throughput, moments, and the canonical percentile set —
/// from one completion-time sample. The single implementation both
/// serving runtimes (ReplicaPool and transport::WorkerHost) report
/// through, so their quantile math cannot diverge.
void finalize_completion_stats(ServeReport& report,
                               const SampleHistogram& completion,
                               double wall_seconds);

}  // namespace wnf::serve
