// Low-overhead request-lifecycle tracing: per-thread single-writer ring
// buffers of fixed-size events, stamped from the steady clock. The serving
// hot paths (pool submit/execute, host dispatch/harvest, worker evaluate)
// call record() unconditionally; when tracing is disabled the call is one
// relaxed atomic load and a branch, and with WNF_OBS_ENABLED=0 the
// recording surface compiles out entirely. Tracing never touches an Rng —
// every bit-identity pin in the repo holds with tracing on or off.
//
// Ownership model: each thread writes its own ring (registered with the
// process-wide TraceLog on first record), so recording takes no locks and
// overwrites its own oldest events when it wraps. Forked worker processes
// inherit the parent's rings over fork(); worker_main() calls
// TraceLog::instance().reset() first thing, which bumps an epoch that
// invalidates every inherited thread-local ring pointer — the child then
// records into fresh rings of its own and ships them back over its control
// socket as Telemetry frames (see transport/codec.hpp), where the host
// ingests them as remote events tagged with the worker's pid and
// Hello-time clock offset.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace wnf::obs {

// Compile-out switch: building with -DWNF_OBS_ENABLED=0 (CMake option
// WNF_OBS_TRACING=OFF) turns enabled() into a constant false, so every
// record path is dead code the optimizer deletes. The event/ring types
// stay compiled either way — the wire protocol and exporters are part of
// the ABI whether or not this build can produce events.
#ifndef WNF_OBS_ENABLED
#define WNF_OBS_ENABLED 1
#endif

/// What one trace event is. Span begin/end pair up per thread by nesting
/// order (synchronous work on one thread); async begin/end pair up by `id`
/// across threads and processes (a request's life across the pipeline).
enum class EventKind : std::uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kAsyncBegin = 2,
  kAsyncEnd = 3,
  kInstant = 4,
  kCounter = 5,
};

/// Fixed catalogue of event names: a u16 on the wire and in the ring (no
/// strings on the hot path). Keep trace_name_string() in sync.
enum class TraceName : std::uint16_t {
  kNone = 0,
  // Request lifecycle, shared by both serving runtimes.
  kRequest = 1,   ///< async: accepted at submit -> delivered to the driver
  kQueue = 2,     ///< async: accepted -> a replica/worker starts executing
  kExecute = 3,   ///< span: one pool replica's run of same-segment
                  ///< requests, served as one simulator block (id=first
                  ///< request id, value=run length)
  kCompletionPush = 4,  ///< instant: a worker pushed finished results
  kDeliver = 5,         ///< instant: the driver popped a result in id order
  // Transport host.
  kDispatch = 6,  ///< instant: one dispatch() pass wrote >=1 ring probe
  kWire = 7,      ///< async: probe written to a ring -> its result harvested
                  ///< (re-begun after a death resubmits the probe)
  kHarvest = 8,   ///< instant: result slots harvested (value=results)
  kSigkill = 9,   ///< instant: scripted SIGKILL (id=worker, value=pid)
  kRespawn = 10,  ///< instant: worker respawned (id=worker, value=new pid)
  kRebindEvent = 11,  ///< instant: fleet rebound to a new deployment
  kResubmit = 12,     ///< instant: in-flight probe orphaned by a death,
                      ///< re-queued for a survivor (id=request id)
  kShed = 13,         ///< instant: a submission shed (value=reason code)
  // Worker process (recorded in the worker, shipped back via Telemetry).
  kWorkerExecute = 14,  ///< span: one probe evaluation (id=request id)
  kWorkerFlush = 15,    ///< instant: a worker's Telemetry frame arrived
  // Campaign/replay layers.
  kTrialStream = 16,  ///< span: one exec backend run_trials stream
  kReplay = 17,       ///< span: one load::replay run (value=arrivals)
  // Counter tracks.
  kQueueDepth = 18,      ///< counter: accepted - delivered
  kInflightFrames = 19,  ///< counter: a worker's un-answered ring probes
  // Continuous monitoring (watchdog thread + snapshot sampler).
  kWatchdogStall = 20,    ///< instant: channel stalled (id=channel,
                          ///< value=ms without progress)
  kWatchdogRecover = 21,  ///< instant: stalled channel progressed again
  kWatchdogRespawn = 22,  ///< instant: watchdog forced a respawn
  kSnapshotWindow = 23,   ///< instant: one snapshot window flushed
                          ///< (id=window seq, value=bytes written)
  kPostmortem = 24,       ///< instant: postmortem artifact written
                          ///< (id=worker, value=artifact seq)
  kNameCount  // keep last
};

/// Display string for a TraceName (stable, used by the exporters).
const char* trace_name_string(TraceName name);

/// One fixed-size ring slot. 32 bytes, trivially copyable — the Telemetry
/// frame ships these nearly verbatim.
struct TraceEvent {
  std::uint64_t ts_ns = 0;  ///< steady clock, ns (host-local until aligned)
  std::uint64_t id = 0;     ///< async-pair / correlation id
  std::uint64_t value = 0;  ///< counter value or auxiliary payload
  TraceName name = TraceName::kNone;
  EventKind kind = EventKind::kInstant;
};

/// Steady-clock now in nanoseconds — the trace timebase. Monotonic within
/// a process; cross-process alignment uses the Hello-time offset.
std::uint64_t trace_clock_ns();

namespace detail {
#if WNF_OBS_ENABLED
extern std::atomic<bool> g_trace_enabled;
#endif
void record_slow(EventKind kind, TraceName name, std::uint64_t id,
                 std::uint64_t value);
}  // namespace detail

/// Runtime switch. Off by default; the disabled record() path is one
/// relaxed load. Flip only from the driver thread while the pipelines are
/// quiet if balanced spans matter (mid-span flips keep the process safe
/// but can orphan a begin).
inline bool enabled() {
#if WNF_OBS_ENABLED
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}
void set_enabled(bool on);

/// Process-unique id for async spans (never reused, never 0). Cheap
/// enough to call unconditionally; callers on hot paths still gate on
/// enabled() so the disabled build does no atomic work.
std::uint64_t next_span_id();

/// Records one event into the calling thread's ring. The disabled path is
/// the enabled() load only — no clock read, no TLS touch.
inline void record(EventKind kind, TraceName name, std::uint64_t id = 0,
                   std::uint64_t value = 0) {
#if WNF_OBS_ENABLED
  if (enabled()) detail::record_slow(kind, name, id, value);
#else
  (void)kind;
  (void)name;
  (void)id;
  (void)value;
#endif
}

inline void span_begin(TraceName name, std::uint64_t id = 0,
                       std::uint64_t value = 0) {
  record(EventKind::kSpanBegin, name, id, value);
}
inline void span_end(TraceName name, std::uint64_t id = 0,
                     std::uint64_t value = 0) {
  record(EventKind::kSpanEnd, name, id, value);
}
inline void async_begin(TraceName name, std::uint64_t id,
                        std::uint64_t value = 0) {
  record(EventKind::kAsyncBegin, name, id, value);
}
inline void async_end(TraceName name, std::uint64_t id,
                      std::uint64_t value = 0) {
  record(EventKind::kAsyncEnd, name, id, value);
}
inline void instant(TraceName name, std::uint64_t id = 0,
                    std::uint64_t value = 0) {
  record(EventKind::kInstant, name, id, value);
}
inline void counter(TraceName name, std::uint64_t value) {
  record(EventKind::kCounter, name, 0, value);
}

/// RAII synchronous span. Arms on construction, so a begin always gets its
/// end even if tracing is switched off mid-scope.
class ScopedSpan {
 public:
  ScopedSpan(TraceName name, std::uint64_t id = 0, std::uint64_t value = 0)
      : name_(name), id_(id), armed_(enabled()) {
    if (armed_) detail::record_slow(EventKind::kSpanBegin, name_, id_, value);
  }
  ~ScopedSpan() {
    if (armed_) detail::record_slow(EventKind::kSpanEnd, name_, id_, 0);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceName name_;
  std::uint64_t id_;
  bool armed_;
};

/// One local thread's collected events, oldest first.
struct ThreadEvents {
  std::uint32_t tid = 0;  ///< stable per-ring id (registration order)
  std::uint64_t dropped = 0;  ///< events overwritten by ring wrap
  std::vector<TraceEvent> events;
};

/// Events shipped from another process (a forked worker) via Telemetry
/// frames, tagged for per-process exporter tracks.
struct RemoteEvents {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::int64_t clock_offset_ns = 0;  ///< host_clock - worker_clock at Hello
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

/// Process-wide registry of per-thread rings plus ingested remote events.
/// record() is lock-free after a thread's first event; collect()/reset()
/// take the registry lock and expect recording to be quiescent (call them
/// from the driver with the pipelines idle).
class TraceLog {
 public:
  static TraceLog& instance();

  /// Snapshot of every local thread's ring, oldest events first.
  std::vector<ThreadEvents> collect() const;
  /// Everything ingested from worker processes so far.
  std::vector<RemoteEvents> remote() const;
  /// Total events currently held (local + remote) — the disabled-path pin.
  std::size_t total_events() const;

  /// Drains the *calling thread's* ring: returns its events (oldest first)
  /// and the dropped count, leaving the ring empty. This is the worker's
  /// Telemetry flush.
  std::pair<std::vector<TraceEvent>, std::uint64_t> drain_thread_ring();

  /// Appends one worker flush. `events` are in the worker's clock domain;
  /// the exporter applies `clock_offset_ns` when it builds the timeline.
  void ingest_remote(std::uint32_t pid, std::uint32_t tid,
                     std::int64_t clock_offset_ns,
                     std::vector<TraceEvent> events, std::uint64_t dropped);

  /// Drops every ring and remote batch and bumps the registration epoch,
  /// orphaning all cached thread-local ring pointers. The fork-hygiene
  /// call (a child inherits the parent's rings) and the test-isolation
  /// call.
  void reset();

  /// Capacity (events, rounded up to a power of two) for rings created
  /// after this call. Existing rings keep theirs.
  void set_ring_capacity(std::size_t capacity);

 private:
  TraceLog() = default;
};

}  // namespace wnf::obs
