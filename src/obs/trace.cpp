#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "util/contract.hpp"

namespace wnf::obs {

namespace {

constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 15;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// One thread's event ring: single writer (the owning thread), overwrite-
/// oldest on wrap. The head counter is atomic only so collect() from the
/// driver reads a coherent count during quiescence; the writer side is
/// plain stores plus one release.
class ThreadRing {
 public:
  ThreadRing(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), mask_(capacity - 1), slots_(capacity) {}

  void push(const TraceEvent& event) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    slots_[head & mask_] = event;
    head_.store(head + 1, std::memory_order_release);
  }

  std::uint32_t tid() const { return tid_; }

  /// Oldest-first snapshot plus how many events the wrap overwrote.
  ThreadEvents snapshot() const {
    ThreadEvents out;
    out.tid = tid_;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(head, mask_ + 1);
    out.dropped = head - kept;
    out.events.reserve(kept);
    for (std::uint64_t i = head - kept; i < head; ++i) {
      out.events.push_back(slots_[i & mask_]);
    }
    return out;
  }

  void drain(std::vector<TraceEvent>& events, std::uint64_t& dropped) {
    ThreadEvents snap = snapshot();
    events = std::move(snap.events);
    dropped = snap.dropped;
    head_.store(0, std::memory_order_release);
  }

  std::uint64_t held() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return std::min<std::uint64_t>(head, mask_ + 1);
  }

 private:
  std::uint32_t tid_;
  std::uint64_t mask_;
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Registry state behind TraceLog. A plain mutex guards registration,
/// collection, and remote ingestion; the record path touches it only on a
/// thread's first event (or after reset() bumps the epoch).
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::vector<RemoteEvents> remote;
  std::size_t ring_capacity = kDefaultRingCapacity;
  std::atomic<std::uint64_t> epoch{1};
};

Registry& registry() {
  static Registry* instance = new Registry;  // leaked: alive for exiting threads
  return *instance;
}

struct ThreadSlot {
  ThreadRing* ring = nullptr;
  std::uint64_t epoch = 0;
};
thread_local ThreadSlot t_slot;

ThreadRing& this_thread_ring() {
  Registry& reg = registry();
  const std::uint64_t epoch = reg.epoch.load(std::memory_order_acquire);
  if (t_slot.ring == nullptr || t_slot.epoch != epoch) {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const auto tid = static_cast<std::uint32_t>(reg.rings.size());
    reg.rings.push_back(std::make_unique<ThreadRing>(
        tid, round_up_pow2(reg.ring_capacity)));
    t_slot.ring = reg.rings.back().get();
    t_slot.epoch = reg.epoch.load(std::memory_order_acquire);
  }
  return *t_slot.ring;
}

std::atomic<std::uint64_t> g_next_span_id{1};

}  // namespace

namespace detail {

#if WNF_OBS_ENABLED
std::atomic<bool> g_trace_enabled{false};
#endif

void record_slow(EventKind kind, TraceName name, std::uint64_t id,
                 std::uint64_t value) {
  TraceEvent event;
  event.ts_ns = trace_clock_ns();
  event.id = id;
  event.value = value;
  event.name = name;
  event.kind = kind;
  this_thread_ring().push(event);
}

}  // namespace detail

std::uint64_t trace_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_enabled(bool on) {
#if WNF_OBS_ENABLED
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

std::uint64_t next_span_id() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

const char* trace_name_string(TraceName name) {
  switch (name) {
    case TraceName::kNone: return "none";
    case TraceName::kRequest: return "request";
    case TraceName::kQueue: return "queue";
    case TraceName::kExecute: return "execute";
    case TraceName::kCompletionPush: return "completion_push";
    case TraceName::kDeliver: return "deliver";
    case TraceName::kDispatch: return "dispatch";
    case TraceName::kWire: return "wire";
    case TraceName::kHarvest: return "harvest";
    case TraceName::kSigkill: return "sigkill";
    case TraceName::kRespawn: return "respawn";
    case TraceName::kRebindEvent: return "rebind";
    case TraceName::kResubmit: return "resubmit";
    case TraceName::kShed: return "shed";
    case TraceName::kWorkerExecute: return "worker_execute";
    case TraceName::kWorkerFlush: return "worker_flush";
    case TraceName::kTrialStream: return "trial_stream";
    case TraceName::kReplay: return "replay";
    case TraceName::kQueueDepth: return "queue_depth";
    case TraceName::kInflightFrames: return "inflight_frames";
    case TraceName::kWatchdogStall: return "watchdog_stall";
    case TraceName::kWatchdogRecover: return "watchdog_recover";
    case TraceName::kWatchdogRespawn: return "watchdog_respawn";
    case TraceName::kSnapshotWindow: return "snapshot_window";
    case TraceName::kPostmortem: return "postmortem";
    case TraceName::kNameCount: break;
  }
  return "unknown";
}

TraceLog& TraceLog::instance() {
  static TraceLog log;
  return log;
}

std::vector<ThreadEvents> TraceLog::collect() const {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<ThreadEvents> out;
  out.reserve(reg.rings.size());
  for (const auto& ring : reg.rings) out.push_back(ring->snapshot());
  return out;
}

std::vector<RemoteEvents> TraceLog::remote() const {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.remote;
}

std::size_t TraceLog::total_events() const {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& ring : reg.rings) {
    total += static_cast<std::size_t>(ring->held());
  }
  for (const auto& batch : reg.remote) total += batch.events.size();
  return total;
}

std::pair<std::vector<TraceEvent>, std::uint64_t>
TraceLog::drain_thread_ring() {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  Registry& reg = registry();
  const std::uint64_t epoch = reg.epoch.load(std::memory_order_acquire);
  // Only a thread that has actually recorded has a ring to drain.
  if (t_slot.ring != nullptr && t_slot.epoch == epoch) {
    t_slot.ring->drain(events, dropped);
  }
  return {std::move(events), dropped};
}

void TraceLog::ingest_remote(std::uint32_t pid, std::uint32_t tid,
                             std::int64_t clock_offset_ns,
                             std::vector<TraceEvent> events,
                             std::uint64_t dropped) {
  if (events.empty() && dropped == 0) return;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.remote.push_back(
      {pid, tid, clock_offset_ns, dropped, std::move(events)});
}

void TraceLog::reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  // Bump first: any thread racing a record re-registers against the new
  // epoch instead of writing into a ring this clear is about to drop.
  reg.epoch.fetch_add(1, std::memory_order_acq_rel);
  reg.rings.clear();
  reg.remote.clear();
}

void TraceLog::set_ring_capacity(std::size_t capacity) {
  WNF_EXPECTS(capacity > 0);
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.ring_capacity = capacity;
}

}  // namespace wnf::obs
