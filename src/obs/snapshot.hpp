// Streaming metric snapshots for long-running fleets. The exporters in
// export.hpp assume a run that ends cleanly and a report built at the
// end; a multi-hour soak needs the opposite — continuous, bounded-memory
// observability that survives being killed mid-run. The Snapshotter is a
// sampling thread that periodically deltas every registered counter and
// histogram (across any number of named registries) into fixed-interval
// time windows and appends each window as ONE self-contained JSON line
// to a stream file. Windows are flushed, never accumulated, so memory
// stays constant no matter how long the run is, and every prefix of the
// file is valid — an interrupted run still leaves a lintable stream that
// can reconstruct throughput/SLO for any sub-interval.
//
// The hot path is untouched: request flow keeps writing its existing
// sharded counters; the sampler reads them from its own thread. Nothing
// here touches an Rng, so every bit-identity pin holds with a
// Snapshotter attached.
//
// Line format (line-delimited JSON, each line independently lintable):
//   {"kind":"header","stream":...,"interval_s":...,"sources":[...]}
//   {"kind":"window","seq":0,"t0_s":...,"t1_s":...,"sources":[
//      {"name":"host","reset":false,
//       "counters":[{"name":"transport.ring_slots_written","delta":12}],
//       "histograms":[{"name":"serve.completion_time","count":40,
//                      "sum":0.01,"p50":...,"p99":...}]}],
//    "tenants":[{"tenant":"a","t_s":...,"offered_rps":...,
//                "completed_rps":...,"shed_rps":...,"slo":1.0}]}
// Counter deltas are window-local (this window minus the previous one);
// a registry reset (e.g. WorkerHost::rebind) is detected by any counter
// or histogram count going backwards and reported as "reset":true with
// deltas taken from zero. Histogram p50/p99 are window-local LogHistogram
// bucket-upper estimates (see metrics.hpp for the one-octave bound).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace wnf::obs {

/// One per-tenant traffic sample banked into the current window —
/// load::replay feeds these from its existing sampling cadence.
struct TenantSample {
  double t_s = 0.0;  ///< sample time, seconds on the replay clock
  std::string tenant;
  double offered_rps = 0.0;
  double completed_rps = 0.0;
  double shed_rps = 0.0;
  double slo_attainment = 1.0;  ///< completed/(completed+shed); 1 if idle
};

struct SnapshotterConfig {
  std::string path;              ///< stream file (truncated on start)
  double interval_seconds = 1.0; ///< window length
  std::string label = "snapshot";
};

/// Periodic sampler: deltas named registries into windows and streams
/// them to an append-only line-delimited JSON file. Owns one sampling
/// thread between start() and stop(); stop() flushes a final partial
/// window. Internal `obs.snapshot.*` counters live in a meta registry
/// that is itself sampled (self-observing, like every other source).
class Snapshotter {
 public:
  explicit Snapshotter(SnapshotterConfig config);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Registers a registry to sample. Call before start(); the registry
  /// must outlive the Snapshotter. Safe to add the same registry under
  /// several deployments' lifetimes as long as the pointer stays valid.
  void add_source(std::string name, const MetricsRegistry* registry);

  /// Banks one tenant traffic sample into the current window (thread
  /// safe; callable while running).
  void add_tenant_sample(const TenantSample& sample);

  /// Opens the stream, writes the header line, and starts the sampling
  /// thread. Returns false (and stays stopped) if the file cannot be
  /// opened.
  bool start();

  /// Stops the thread and flushes a final partial window. Idempotent.
  void stop();

  bool running() const { return running_; }
  /// Windows flushed so far (including the final partial one).
  std::uint64_t windows() const;
  const std::string& path() const { return config_.path; }
  /// The meta registry holding obs.snapshot.* counters.
  const MetricsRegistry& metrics() const { return meta_; }

 private:
  struct Source {
    std::string name;
    const MetricsRegistry* registry = nullptr;
    MetricsSnapshot prev;  ///< sampler-thread-local baseline
  };

  void run();
  void flush_window(double t0_s, double t1_s);

  SnapshotterConfig config_;
  MetricsRegistry meta_;
  Counter* windows_counter_ = nullptr;
  Counter* tenant_samples_counter_ = nullptr;
  Counter* resets_counter_ = nullptr;
  Counter* write_errors_counter_ = nullptr;

  std::vector<Source> sources_;
  std::ofstream out_;
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point epoch_{};

  std::mutex tenant_mutex_;
  std::vector<TenantSample> pending_tenants_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace wnf::obs
