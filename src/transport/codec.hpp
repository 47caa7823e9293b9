// Framed binary control protocol of the multi-process deployment.
//
// Probes never cross the socket — they ride the shared-memory rings
// (ring.hpp). What the socket carries between a WorkerHost and a Worker
// process is doorbell bytes and these control frames:
//
//   u32 magic      "WNF1" (0x574E4631)      | fixed 20-byte header,
//   u16 version    protocol version (= 5)   | little-endian on the wire
//   u16 type       MessageType              | whatever the host CPU is
//   u32 size       payload bytes that follow
//   u64 checksum   FNV-1a 64 over the payload
//   ...payload...
//
// Hello greets the host with the worker's index, pid and steady clock
// (the clock places worker trace events on the host timebase). Bind ships
// a network and its configuration, Segments the timeline's per-segment
// fault plans, and Rebind swaps both on a live worker so a fleet survives
// across campaigns without re-forking. Telemetry ships a worker's trace
// ring back (on Shutdown and before a Rebind applies); Shutdown ends the
// worker.
//
// Protocol v5 retires the framed probe plane of v2-v4 (single and batched
// request/result frames): their type numbers 4, 5, 7 and 8 are no longer
// valid and parse as kMalformed. A frame whose magic is right but whose
// version is not ours parses as kWrongVersion — a distinct rejection, so
// a cross-version peer is reported as such instead of as corruption.
//
// Payloads are explicit little-endian primitives (doubles as IEEE-754 bit
// patterns), so a frame is a byte-exact artifact: the same network or
// plan encodes to the same bytes on every platform, and the worker's
// reconstruction is bit-identical to the host's original — the property
// the TransportBackend↔SimulatorBackend cross-checks rest on. Network
// weights ride the `nn::serialize` v1 text format (17 significant digits
// round-trips every double exactly).
//
// Decoding is defensive end to end: a frame with a bad magic, a retired
// or unknown type, a lying size, a checksum mismatch, or a truncated/
// overlong payload is rejected as malformed, never interpreted. The host
// treats a worker that sends either rejection as crashed; the worker
// exits on either from the host.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/latency.hpp"
#include "dist/sim.hpp"
#include "fault/plan.hpp"
#include "obs/trace.hpp"

namespace wnf::transport {

inline constexpr std::uint32_t kFrameMagic = 0x574E4631u;  // "WNF1"
inline constexpr std::uint16_t kProtocolVersion = 5;
inline constexpr std::size_t kFrameHeaderSize = 20;
/// Sanity cap on payload size (a lying length field must not trigger a
/// multi-gigabyte allocation before the checksum can reject the frame).
inline constexpr std::uint32_t kMaxPayloadSize = 1u << 28;  // 256 MiB

/// Control-frame types. The gaps (4, 5, 7, 8) are the retired probe
/// frames; try_parse rejects them as malformed.
enum class MessageType : std::uint16_t {
  kHello = 1,     ///< worker -> host: worker index + pid, sent on startup
  kBind = 2,      ///< host -> worker: network + simulator/latency/cut config
  kSegments = 3,  ///< host -> worker: the timeline's per-segment fault plans
  kShutdown = 6,  ///< host -> worker: exit cleanly
  kRebind = 9,    ///< host -> worker: swap network/config/segments live
  kTelemetry = 10,  ///< worker -> host: the worker's trace-ring contents,
                    ///< flushed on Shutdown and before applying a Rebind
};

/// One decoded frame: the type plus its raw payload bytes.
struct Frame {
  MessageType type = MessageType::kShutdown;
  std::vector<std::uint8_t> payload;
};

/// worker -> host greeting: lets the host verify protocol agreement and
/// that the peer is the worker it spawned. `clock_ns` is the worker's
/// steady clock at send time; the host differences it against its own
/// clock at receipt, and that offset places every trace event the worker
/// later ships (Telemetry frames) on the host timebase.
struct HelloMsg {
  std::uint32_t worker_index = 0;
  std::uint32_t pid = 0;
  std::uint64_t clock_ns = 0;
};

/// host -> worker: everything a fresh worker process needs to become a
/// simulator replica. Sent once after spawn (and again after a respawn).
struct BindMsg {
  std::string network_text;  ///< nn::save_network v1 text
  dist::SimConfig sim;
  dist::LatencyModel latency;
  /// Precomputed Corollary-2 wait counts, size L+1 (empty = full waits) —
  /// the host ships the counts, not the cut, so host and worker cannot
  /// disagree on the cut-to-counts mapping.
  std::vector<std::uint64_t> wait_counts;
};

/// host -> worker: the finalized timeline as its constant segments. A
/// ring probe addresses a segment by index; the worker installs a
/// segment's plan only when consecutive probes change segments.
struct SegmentsMsg {
  std::vector<fault::FaultPlan> plans;
};

/// host -> worker: atomically swap a live worker onto a new deployment —
/// network, simulator/latency/cut configuration, and timeline segments in
/// one frame. This is how a persistent fleet serves many campaigns without
/// re-forking: the host resets its request-id stream and root RNG, the
/// worker rebuilds its replica, and the rebound deployment is bit-identical
/// to a freshly constructed one.
struct RebindMsg {
  BindMsg bind;
  SegmentsMsg segments;
};

/// worker -> host: the worker's trace-ring contents. Events are in the
/// worker's own clock domain; the host aligns them via the Hello-time
/// offset before export. `dropped` counts events the worker's ring wrap
/// overwrote (a SIGKILLed worker simply never sends this frame — its
/// unflushed events are lost by design, which the tests pin).
struct TelemetryMsg {
  std::uint32_t tid = 0;  ///< worker-local ring id (one thread today)
  std::uint64_t dropped = 0;
  std::vector<obs::TraceEvent> events;
};

/// Outcome of trying to parse the front of a byte stream.
enum class ParseStatus {
  kNeedMore,      ///< not enough bytes yet for a complete frame
  kFrame,         ///< one frame extracted and validated
  kMalformed,     ///< the stream is corrupt; the peer cannot be trusted
  kWrongVersion,  ///< a well-framed peer speaking another protocol
                  ///< version (older or newer) — reject, but report it
                  ///< as a version mismatch, not corruption
};

/// Stateless encoder/decoder for the wire format. Framing (encode/
/// try_parse) is separate from payload codecs so the host's nonblocking
/// reader can accumulate bytes and extract frames incrementally.
class Codec {
 public:
  /// Wraps `payload` in a validated frame (header + checksum + payload).
  static std::vector<std::uint8_t> encode(MessageType type,
                                          std::vector<std::uint8_t> payload);

  /// Attempts to extract one frame from the front of `buffer`. On kFrame,
  /// fills `frame` and erases the consumed bytes from `buffer`. On
  /// kNeedMore, `buffer` is untouched. On kMalformed or kWrongVersion,
  /// the stream must be abandoned (byte-stream transports cannot
  /// resynchronise, and there is no cross-version negotiation).
  static ParseStatus try_parse(std::vector<std::uint8_t>& buffer,
                               Frame& frame);

  // Payload codecs. Every decoder returns nullopt when the payload is
  // truncated, overlong, or structurally invalid for its message type.
  static std::vector<std::uint8_t> encode_hello(const HelloMsg& msg);
  static std::optional<HelloMsg> decode_hello(
      const std::vector<std::uint8_t>& payload);

  static std::vector<std::uint8_t> encode_bind(const BindMsg& msg);
  static std::optional<BindMsg> decode_bind(
      const std::vector<std::uint8_t>& payload);

  static std::vector<std::uint8_t> encode_segments(const SegmentsMsg& msg);
  static std::optional<SegmentsMsg> decode_segments(
      const std::vector<std::uint8_t>& payload);

  // The rebind decoder length-prefixes its inner bind and segments
  // payloads and rejects any disagreement between the prefixes and the
  // actual bytes.
  static std::vector<std::uint8_t> encode_rebind(const RebindMsg& msg);
  static std::optional<RebindMsg> decode_rebind(
      const std::vector<std::uint8_t>& payload);

  // The telemetry decoder bounds-checks the event count and rejects
  // out-of-range kind/name discriminants.
  static std::vector<std::uint8_t> encode_telemetry(const TelemetryMsg& msg);
  static std::optional<TelemetryMsg> decode_telemetry(
      const std::vector<std::uint8_t>& payload);

  /// FNV-1a 64 over `bytes` — the frame checksum.
  static std::uint64_t checksum(const std::uint8_t* bytes, std::size_t size);
};

}  // namespace wnf::transport
