// Shared-memory SPSC rings: the probe plane of the multi-process
// deployment. Each worker owns a pair of lock-free
// single-producer/single-consumer rings in one anonymous shared mapping
// created by the host *before* fork — a host→worker request ring and a
// worker→host result ring — with cache-line-aligned fixed-size slots the
// producer writes in place and the consumer reads in place: no
// serialization, no checksum, no syscall on the data path. Every probe
// rides these rings; the socket carries only control frames and doorbell
// bytes.
//
// Commit protocol (seqlock-style, per slot): the producer writes the
// slot's sequence number twice around the payload —
//
//       begin_seq <- pos+1          (the write has started)
//       ...payload fields...
//       commit_seq <- pos+1         (release: the write is complete)
//
// and the consumer accepts a slot only when commit_seq (acquire) equals
// the position it expects. A SIGKILL between the two leaves a detectably
// *torn* slot — begin_seq advanced, commit_seq not — rather than a
// poisoned stream: after reaping the corpse the host counts the tear and
// lets its ordinary resubmit-unacknowledged machinery re-run the probe,
// exactly as if the worker had never answered. Slot reuse cannot alias a
// stale commit: position p and position p-capacity commit different
// sequence values.
//
// Wide probes: an input wider than kRingSlotDoubles spans
// request_slots(width) consecutive request slots. The head slot carries
// the header and the first kRingSlotDoubles inputs; each continuation
// slot carries only the next run of inputs in its x array. Only the head
// publishes a commit word, and the tail advances past every slot at once,
// so the consumer sees the whole probe or none of it — and a continuation
// slot can never pass for a committed head, because heads are found by
// position and a continuation's stale commit word names an older lap.
//
// Wakeups: the data path never blocks — a consumer that runs dry spins
// with exponential backoff (SpinBackoff), then publishes a waiting flag
// and parks on the socketpair. The producer, after publishing, atomically
// exchanges the flag and sends a single doorbell byte (kDoorbellByte,
// never a valid frame start) only when it observed the peer parked — at
// most one byte per park, zero bytes while both sides run hot. The flag
// handshake is seq_cst on both sides (Dekker: either the parker sees the
// new tail, or the producer sees the flag), so a wakeup cannot be lost.
// The result ring carries a second flag for the reverse direction — a
// worker parked because the result ring is *full* is woken by the host
// after it harvests.
//
// Layout of one worker's mapping:
//
//   [RingControl request][RingControl result]
//   [RequestSlot x capacity][ResultSlot x capacity]
//
// The mapping is created once per worker and survives respawns: the host
// re-initialises it (reset()) after reaping a dead worker and before
// forking its replacement, so every child inherits a quiescent ring.
#pragma once

#include <algorithm>
#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "util/contract.hpp"

namespace wnf::transport {

/// The doorbell byte. Frames always start with the first magic byte
/// (0x31, "WNF1" little-endian), and neither side ever interleaves a
/// doorbell inside a frame, so leading doorbell bytes at a frame boundary
/// strip unambiguously.
inline constexpr std::uint8_t kDoorbellByte = 0xDB;

/// Input payload capacity of one request slot, in doubles.
inline constexpr std::size_t kRingSlotDoubles = 64;

/// Request slots a probe of `width` inputs occupies: one up to
/// kRingSlotDoubles, ceil(width / kRingSlotDoubles) beyond. A deployment
/// whose probes need more slots than the ring holds can never dispatch
/// one, so the host rejects it at bind and rebind.
constexpr std::size_t request_slots(std::size_t width) {
  return width <= kRingSlotDoubles
             ? 1
             : (width + kRingSlotDoubles - 1) / kRingSlotDoubles;
}

/// Request-slot flag: the worker writes the matching result slot's
/// begin_seq and a partial payload, then SIGKILLs itself — a
/// deterministic torn-slot for the crash-recovery tests. Armed by
/// TransportConfig::debug_tear_result_at; never set in production.
inline constexpr std::uint32_t kSlotFlagTearForTest = 1u;

/// Completion status byte of a ResultSlot. A compliant worker only ever
/// reports kOk (a probe it cannot evaluate is a protocol violation and the
/// worker exits instead); the host treats any other byte as a violation.
enum class ProbeStatus : std::uint8_t {
  kOk = 0,
  kFailed = 1,
};

/// One probe (or, for a wide probe, its head), host → worker, written in
/// place. 64-byte aligned so a slot never shares a cache line with its
/// neighbour. A continuation slot of a wide probe uses only `x`.
struct alignas(64) RequestSlot {
  std::atomic<std::uint64_t> begin_seq{0};
  std::uint64_t id = 0;
  /// Control-plane frames the host had enqueued to this worker when the
  /// slot was written. The worker defers a slot from the future (epoch
  /// beyond what it has applied) until the in-flight bind/segments frame
  /// lands — the ring must never overtake the control channel.
  std::uint64_t epoch = 0;
  std::uint32_t segment = 0;
  std::uint32_t x_count = 0;  ///< the probe's whole width, all slots
  std::uint32_t flags = 0;
  std::uint32_t pad_ = 0;
  std::array<std::uint64_t, 4> rng_state{};  ///< raw Rng::split state
  double x[kRingSlotDoubles] = {};
  std::atomic<std::uint64_t> commit_seq{0};
};

/// One probe outcome, worker → host. One cache line.
struct alignas(64) ResultSlot {
  std::atomic<std::uint64_t> begin_seq{0};
  std::uint64_t id = 0;
  double output = 0.0;
  double completion_time = 0.0;
  std::uint64_t resets_sent = 0;
  std::uint8_t status = 0;  ///< ProbeStatus byte
  std::atomic<std::uint64_t> commit_seq{0};
};

/// Shared cursors + park flags of one ring. Each atomic sits on its own
/// cache line: the producer bounces only on head, the consumer only on
/// tail.
struct RingControl {
  alignas(64) std::atomic<std::uint64_t> tail{0};  ///< slots published
  alignas(64) std::atomic<std::uint64_t> head{0};  ///< slots consumed
  /// Consumer parked on the socket, wants a doorbell on empty→nonempty.
  alignas(64) std::atomic<std::uint32_t> consumer_waiting{0};
  /// Producer parked on the socket, wants a doorbell on full→has-space.
  alignas(64) std::atomic<std::uint32_t> producer_waiting{0};
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared-memory rings need address-free 64-bit atomics");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shared-memory rings need address-free 32-bit atomics");

/// Strips leading doorbell bytes from a socket buffer (both sides call
/// this at frame boundaries before parsing). Returns how many were
/// stripped.
inline std::size_t strip_doorbells(std::vector<std::uint8_t>& buffer) {
  std::size_t n = 0;
  while (n < buffer.size() && buffer[n] == kDoorbellByte) ++n;
  if (n > 0) {
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return n;
}

/// CPU-friendly busy-wait pause.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Exponential spin backoff (the spin half of spin-then-sleep): each
/// round pauses twice as long as the last, capped, until the budget runs
/// out — at which point the caller publishes its waiting flag and parks
/// on the socket. On a single-CPU machine the budget is zero: spinning
/// there can only burn the timeslice the *peer* needs to make the awaited
/// progress, so both sides go straight to the doorbell park.
class SpinBackoff {
 public:
  /// Burns one backoff round. False when the spin budget is exhausted
  /// and the caller should park.
  bool spin() {
    static const bool solo = std::thread::hardware_concurrency() <= 1;
    if (solo || round_ >= kRounds) return false;
    const int reps = 1 << (round_ < kMaxShift ? round_ : kMaxShift);
    for (int i = 0; i < reps; ++i) cpu_relax();
    ++round_;
    return true;
  }

  void reset() { round_ = 0; }

 private:
  static constexpr int kRounds = 64;
  static constexpr int kMaxShift = 6;
  int round_ = 0;
};

/// One worker's ring pair over one shared mapping. Constructed by the
/// host before fork; after fork each process holds its own copy of this
/// object (same mapped addresses), and the process-local cursors below
/// naturally split by role: the host advances the request producer and
/// result consumer cursors, the worker the other two.
class WorkerRings {
 public:
  /// Maps and initialises a ring pair of `capacity` slots per direction.
  /// Aborts when the mapping fails, like a failed socketpair or fork.
  static std::unique_ptr<WorkerRings> create(std::size_t capacity);

  ~WorkerRings();
  WorkerRings(const WorkerRings&) = delete;
  WorkerRings& operator=(const WorkerRings&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Host-only, with the worker process reaped: re-initialises both rings
  /// and every cursor so the respawned child inherits a quiescent pair.
  void reset();

  // --- request ring, host side (producer) -------------------------------
  /// True when a probe of `width` inputs fits the free slots.
  bool request_free(std::size_t width) const {
    return req_push_ + request_slots(width) -
               req_ctl_->head.load(std::memory_order_acquire) <=
           capacity_;
  }
  /// Starts a probe write of `width` inputs (publishes the head slot's
  /// begin_seq); null when the ring lacks request_slots(width) free
  /// slots. The caller fills the header fields, then commit_request().
  RequestSlot* try_begin_request(std::size_t width) {
    if (!request_free(width)) return nullptr;
    RequestSlot& slot = req_slots_[req_push_ % capacity_];
    slot.begin_seq.store(req_push_ + 1, std::memory_order_release);
    // Compiler-only fence: the payload stores that follow must not sink
    // above begin_seq in program order — death (SIGKILL) is asynchronous
    // like a signal, and the torn-slot forensics read the two sequence
    // words of whatever the corpse had actually stored.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    slot.x_count = static_cast<std::uint32_t>(width);
    return &slot;
  }
  /// Copies `x` into the head slot begun above and, past
  /// kRingSlotDoubles, into the continuation slots; then publishes the
  /// head's commit word and advances the tail past every slot at once.
  void commit_request(std::span<const double> x) {
    RequestSlot& head = req_slots_[req_push_ % capacity_];
    WNF_ASSERT(x.size() == head.x_count);
    for (std::size_t at = 0, s = 0; at < x.size();
         at += kRingSlotDoubles, ++s) {
      const std::size_t n = std::min(kRingSlotDoubles, x.size() - at);
      std::copy_n(x.data() + at, n, req_slots_[(req_push_ + s) % capacity_].x);
    }
    head.commit_seq.store(req_push_ + 1, std::memory_order_release);
    req_push_ += request_slots(x.size());
    req_ctl_->tail.store(req_push_, std::memory_order_seq_cst);
  }
  /// True when the worker had parked on an empty request ring — the host
  /// owes it one doorbell byte. Clears the flag (at most one byte per
  /// park).
  bool take_request_doorbell() {
    return req_ctl_->consumer_waiting.exchange(
               0, std::memory_order_seq_cst) != 0;
  }

  // --- request ring, worker side (consumer) -----------------------------
  bool request_ready() const {
    const RequestSlot& slot = req_slots_[req_pop_ % capacity_];
    return slot.commit_seq.load(std::memory_order_acquire) == req_pop_ + 1;
  }
  /// The committed probe at the head, or null. Valid until pop_request().
  RequestSlot* peek_request() {
    RequestSlot& slot = req_slots_[req_pop_ % capacity_];
    if (slot.commit_seq.load(std::memory_order_acquire) != req_pop_ + 1) {
      return nullptr;
    }
    return &slot;
  }
  /// The head probe's inputs: read in place when they fit one slot,
  /// gathered from the continuation slots into `scratch` (reused across
  /// probes, so a steady wide stream allocates once) otherwise.
  std::span<const double> request_input(const RequestSlot& head,
                                        std::vector<double>& scratch) const {
    const std::size_t width = head.x_count;
    if (width <= kRingSlotDoubles) return {head.x, width};
    WNF_ASSERT(request_slots(width) <= capacity_);
    scratch.resize(width);
    for (std::size_t at = 0, s = 0; at < width; at += kRingSlotDoubles, ++s) {
      const std::size_t n = std::min(kRingSlotDoubles, width - at);
      std::copy_n(req_slots_[(req_pop_ + s) % capacity_].x, n,
                  scratch.data() + at);
    }
    return scratch;
  }
  /// Pops the head probe together with every continuation slot it spans.
  void pop_request() {
    req_pop_ += request_slots(req_slots_[req_pop_ % capacity_].x_count);
    req_ctl_->head.store(req_pop_, std::memory_order_release);
  }
  void publish_request_waiting() {
    req_ctl_->consumer_waiting.store(1, std::memory_order_seq_cst);
  }
  void clear_request_waiting() {
    req_ctl_->consumer_waiting.store(0, std::memory_order_seq_cst);
  }
  /// Post-park recheck (seq_cst against the producer's tail publish).
  bool request_published() const {
    return req_ctl_->tail.load(std::memory_order_seq_cst) != req_pop_;
  }

  // --- result ring, worker side (producer) ------------------------------
  bool result_free() const {
    return res_push_ - res_ctl_->head.load(std::memory_order_acquire) <
           capacity_;
  }
  ResultSlot* try_begin_result() {
    if (!result_free()) return nullptr;
    ResultSlot& slot = res_slots_[res_push_ % capacity_];
    slot.begin_seq.store(res_push_ + 1, std::memory_order_release);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return &slot;
  }
  void commit_result() {
    ResultSlot& slot = res_slots_[res_push_ % capacity_];
    slot.commit_seq.store(res_push_ + 1, std::memory_order_release);
    ++res_push_;
    res_ctl_->tail.store(res_push_, std::memory_order_seq_cst);
  }
  bool take_result_doorbell() {
    return res_ctl_->consumer_waiting.exchange(
               0, std::memory_order_seq_cst) != 0;
  }
  void publish_result_space_waiting() {
    res_ctl_->producer_waiting.store(1, std::memory_order_seq_cst);
  }
  void clear_result_space_waiting() {
    res_ctl_->producer_waiting.store(0, std::memory_order_seq_cst);
  }
  /// Post-park recheck (seq_cst against the consumer's head publish).
  bool result_space_published() const {
    return res_push_ - res_ctl_->head.load(std::memory_order_seq_cst) <
           capacity_;
  }

  // --- result ring, host side (consumer) --------------------------------
  bool result_ready() const {
    const ResultSlot& slot = res_slots_[res_pop_ % capacity_];
    return slot.commit_seq.load(std::memory_order_acquire) == res_pop_ + 1;
  }
  ResultSlot* peek_result() {
    ResultSlot& slot = res_slots_[res_pop_ % capacity_];
    if (slot.commit_seq.load(std::memory_order_acquire) != res_pop_ + 1) {
      return nullptr;
    }
    return &slot;
  }
  void pop_result() {
    ++res_pop_;
    res_ctl_->head.store(res_pop_, std::memory_order_seq_cst);
  }
  /// True when the worker had parked on a full result ring — the host
  /// owes it one doorbell byte after harvesting.
  bool take_result_space_doorbell() {
    return res_ctl_->producer_waiting.exchange(
               0, std::memory_order_seq_cst) != 0;
  }
  void publish_result_waiting() {
    res_ctl_->consumer_waiting.store(1, std::memory_order_seq_cst);
  }
  void clear_result_waiting() {
    res_ctl_->consumer_waiting.store(0, std::memory_order_seq_cst);
  }
  /// Post-park recheck (seq_cst against the worker's tail publish).
  bool result_published() const {
    return res_ctl_->tail.load(std::memory_order_seq_cst) != res_pop_;
  }

  // --- post-mortem forensics (host side, worker reaped) ------------------
  /// True when the slot at the result head shows a started-but-
  /// uncommitted write: the worker died mid-slot. The probe is still
  /// unacknowledged (commit never published), so the ordinary
  /// resubmission path re-runs it; this predicate only lets the host
  /// *count* the tear.
  bool result_head_torn() const {
    const ResultSlot& slot = res_slots_[res_pop_ % capacity_];
    return slot.begin_seq.load(std::memory_order_acquire) == res_pop_ + 1 &&
           slot.commit_seq.load(std::memory_order_acquire) != res_pop_ + 1;
  }

 private:
  WorkerRings() = default;

  std::size_t capacity_ = 0;
  void* mem_ = nullptr;
  std::size_t bytes_ = 0;
  RingControl* req_ctl_ = nullptr;
  RingControl* res_ctl_ = nullptr;
  RequestSlot* req_slots_ = nullptr;
  ResultSlot* res_slots_ = nullptr;
  // Process-local cursors. After fork each process owns a private copy;
  // the host uses req_push_/res_pop_, the worker req_pop_/res_push_.
  std::uint64_t req_push_ = 0;
  std::uint64_t req_pop_ = 0;
  std::uint64_t res_push_ = 0;
  std::uint64_t res_pop_ = 0;
};

}  // namespace wnf::transport
