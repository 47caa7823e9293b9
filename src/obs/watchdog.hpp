// Health watchdog for long-running fleets: a monitor thread that watches
// named progress channels (per-worker harvest progress, fleet completion
// rate — anything exposing "a number that should keep changing while
// work is outstanding") against configurable deadlines and walks an
// escalation ladder when one stalls:
//
//   stall_seconds    -> episode opens: obs.watchdog.stalls counter, a
//                       kWatchdogStall trace instant, and the stall
//                       callback — fired EXACTLY ONCE per episode.
//   degrade_seconds  -> channel marked degraded (obs.watchdog.degraded);
//                       health() readers see it.
//   respawn_seconds  -> optional forced recovery: the respawn hook runs
//                       once per episode (obs.watchdog.forced_respawns,
//                       kWatchdogRespawn). For a WorkerHost channel the
//                       hook SIGKILLs the wedged worker process and the
//                       existing EOF recovery machinery (resubmit +
//                       respawn) does the rest — determinism-safe because
//                       killing a worker never changes results.
//
// An episode closes when the channel's progress value CHANGES (any
// change counts — progress is an opaque odometer, not a monotone) or the
// channel goes inactive (no outstanding work means no deadline); closing
// bumps obs.watchdog.recoveries and emits kWatchdogRecover.
//
// The watchdog only reads: channels are sampled on the monitor thread
// via caller-provided functions over relaxed atomics the driver already
// publishes at pump boundaries. No new atomics in request flow, no Rng
// anywhere — bit-identity pins hold with a watchdog attached.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace wnf::obs {

struct WatchdogConfig {
  double poll_seconds = 0.02;   ///< channel sampling cadence
  double stall_seconds = 0.25;  ///< detection deadline: active channel
                                ///< with unchanged progress this long
  double degrade_seconds = 0.0;  ///< mark-degraded deadline (0 = 2x stall)
  double respawn_seconds = 0.0;  ///< forced-respawn deadline (0 = never)
};

/// Passed to the stall callback when an episode opens.
struct StallEvent {
  std::size_t channel = 0;
  std::string name;
  double stalled_seconds = 0.0;     ///< age of the stall at detection
  std::uint64_t progress = 0;       ///< the frozen progress value
};

/// Per-channel health as seen by outside readers (atomic, lock-free).
enum class ChannelHealth : int { kHealthy = 0, kStalled = 1, kDegraded = 2 };

class Watchdog {
 public:
  using ProgressFn = std::function<std::uint64_t()>;
  using ActiveFn = std::function<bool()>;
  using StallCallback = std::function<void(const StallEvent&)>;
  using RespawnFn = std::function<void(std::size_t channel)>;

  explicit Watchdog(WatchdogConfig config = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a channel; returns its index. `progress` is an opaque
  /// odometer sampled on the monitor thread; `active` gates the deadline
  /// (an idle channel never stalls). Call before start().
  std::size_t add_channel(std::string name, ProgressFn progress,
                          ActiveFn active);

  /// Episode-open hook (log/collect); runs on the monitor thread. Set
  /// before start().
  void set_stall_callback(StallCallback callback);

  /// Forced-recovery hook, armed only when respawn_seconds > 0. Runs on
  /// the monitor thread, once per episode. Set before start().
  void set_respawn(RespawnFn respawn);

  /// Starts the monitor thread (no-op when already running).
  void start();
  /// Stops and joins the monitor thread. Idempotent.
  void stop();
  bool running() const { return running_; }

  /// One synchronous evaluation pass — the deterministic test seam.
  /// Only valid while the monitor thread is NOT running.
  void tick();

  ChannelHealth health(std::size_t channel) const;
  /// The registry holding obs.watchdog.* counters (snapshot it, or add
  /// it to a Snapshotter as a source).
  const MetricsRegistry& metrics() const { return registry_; }

 private:
  struct Channel {
    std::string name;
    ProgressFn progress;
    ActiveFn active;
    std::uint64_t last_progress = 0;
    std::chrono::steady_clock::time_point last_change{};
    int stage = 0;  ///< 0 ok, 1 stalled, 2 degraded, 3 respawn fired
    std::atomic<int> health{0};
  };

  void run();
  void poll_channels(std::chrono::steady_clock::time_point now);

  WatchdogConfig config_;
  MetricsRegistry registry_;
  Counter* polls_ = nullptr;
  Counter* stalls_ = nullptr;
  Counter* degraded_ = nullptr;
  Counter* respawns_ = nullptr;
  Counter* recoveries_ = nullptr;

  // deque: Channel holds an atomic (not movable) and emplace_back on a
  // deque never relocates existing elements, so health readers keep a
  // stable address.
  std::deque<Channel> channels_;
  StallCallback stall_callback_;
  RespawnFn respawn_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace wnf::obs
