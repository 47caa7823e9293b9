// Measurement plumbing shared by every workload: clocks and order
// statistics, the result line, the in-memory span log of a traced run, and
// the hard deadline that turns a stuck library call into a failed run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One completed unit of timed work: when it ended (seconds into the
/// phase), how long it took, and how many operations it carried.
struct Completion {
  double end_s = 0.0;
  double latency_s = 0.0;
  double operations = 0.0;
};

/// A timed phase summarised. Throughput (operations per second over the
/// whole phase) and p50 count every completion, so a stall or a slow
/// stretch counts in proportion to the time it took. p95 is the median,
/// over 10 equal windows of the phase, of each window's p95: the tail is
/// where a host that lends its CPU to other tenants for seconds at a time
/// shows most (over the whole phase, three such runs in ten moved
/// campaign's p95 by 30-50 % and its p50 by 5-7 %). A slow stretch then
/// decides p95 only if it covers half the run; a tail present in most
/// windows shows in full.
struct PhaseSummary {
  double throughput = 0.0;  ///< operations per second
  double p50_s = 0.0;       ///< latency percentiles
  double p95_s = 0.0;
};
PhaseSummary summarise(const std::vector<Completion>& completions,
                       double phase_s);

/// Peak resident set of this process, MiB.
double peak_rss_self_mb();
/// Largest peak resident set among this process's reaped children, MiB.
double peak_rss_children_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `failed` counts operations that were shed,
/// left undelivered, or delivered wrong; `correct` turns false only on a
/// wrong output (a checksum mismatch, a cross-backend divergence, or an
/// observed error above the bound).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Sets catalogued metric `name` (unit from catalogue.hpp), replacing an
  /// earlier value: the workload's own hot path overrides what the layer
  /// sweep measured for the same metric.
  void set(std::string_view name, double value);
  const Metric* find(std::string_view name) const;
  /// Counts `operations` as failed; `wrong_output` also clears `correct`.
  void fail(std::uint64_t operations, bool wrong_output,
            const std::string& why);
};

/// The run's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} with `metrics` in the given order.
std::string result_line(const Outcome& outcome,
                        const std::vector<Metric>& metrics);

/// Spans the benchmark records around its own calls into the library's
/// public functions: name, start, end, parent span and the request or
/// batch id the span serves. Kept in memory, written when the run ends. A
/// disabled log records nothing and reads no clock, so untraced code paths
/// can pass one around for free.
class SpanLog {
 public:
  static constexpr std::int32_t kNone = -1;

  explicit SpanLog(bool enabled);

  /// Opens a span; returns its handle (kNone when disabled or full).
  std::int32_t begin(const char* name, std::int32_t parent = kNone,
                     std::uint64_t id = 0);
  void end(std::int32_t span);

  /// Sum of the durations (ns) of the finished spans named `name`.
  double total_ns(std::string_view name) const;

  /// Writes the first `limit` spans as Chrome trace-event JSON (complete
  /// events; args carry the id and parent). False when the file cannot be
  /// written.
  bool write(const std::string& path, std::size_t limit) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t id;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name,
             std::int32_t parent = SpanLog::kNone, std::uint64_t id = 0)
      : log_(log), span_(log.begin(name, parent, id)) {}
  ~ScopedSpan() { log_.end(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t handle() const { return span_; }

 private:
  SpanLog& log_;
  std::int32_t span_;
};

/// Bounds every blocking library call: arm() before the call, disarm()
/// after. Both are one relaxed atomic store, so a closed loop can arm
/// around every batch; the guard thread samples the deadline every 50 ms.
/// If an armed deadline passes, `on_expire` runs on the guard thread; it
/// is expected to report the failure and end the process, because the
/// call it guards may never return.
class HardDeadline {
 public:
  explicit HardDeadline(std::function<void()> on_expire);
  ~HardDeadline();
  HardDeadline(const HardDeadline&) = delete;
  HardDeadline& operator=(const HardDeadline&) = delete;

  void arm(double seconds);
  void disarm() { deadline_ns_.store(0, std::memory_order_relaxed); }

 private:
  void run();
  std::int64_t now_ns() const;

  std::function<void()> on_expire_;
  Clock::time_point epoch_;
  std::atomic<std::int64_t> deadline_ns_{0};  ///< 0: disarmed
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  ///< guarded by mutex_
  std::thread thread_;     // last: started after the state it reads
};

/// Scope guard for one armed deadline.
class Armed {
 public:
  Armed(HardDeadline& deadline, double seconds) : deadline_(deadline) {
    deadline_.arm(seconds);
  }
  ~Armed() { deadline_.disarm(); }
  Armed(const Armed&) = delete;
  Armed& operator=(const Armed&) = delete;

 private:
  HardDeadline& deadline_;
};

}  // namespace perfbench
