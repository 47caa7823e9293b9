#include "transport/codec.hpp"

#include <bit>
#include <cstring>

#include "util/contract.hpp"

namespace wnf::transport {
namespace {

// ------------------------------------------------------------- primitives
// Explicit little-endian byte codecs: the wire format is defined in bytes,
// not in host integer layout.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over a payload. `ok()` goes false on
/// the first out-of-range read and stays false; decoders check it once at
/// the end (plus `exhausted()` so trailing garbage is rejected too).
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool exhausted() const { return ok_ && at_ == bytes_.size(); }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return bytes_[at_++];
  }

  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (std::uint16_t{bytes_[at_++]} << (8 * i)));
    }
    return v;
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes_[at_++]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes_[at_++]} << (8 * i);
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t size = u32();
    if (!take(size)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + at_), size);
    at_ += size;
    return s;
  }

  /// Bulk copy of `n` bytes in one bounds check — for nested payloads
  /// (the rebind frame's inner bind can be a whole serialized network).
  std::vector<std::uint8_t> bytes(std::size_t n) {
    if (!take(n)) return {};
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<long>(at_),
                                  bytes_.begin() + static_cast<long>(at_ + n));
    at_ += n;
    return out;
  }

  /// Element-count guard for vectors: a lying count must fail the bounds
  /// check now, not allocate first. `unit` is the encoded size per element.
  bool fits(std::uint64_t count, std::size_t unit) {
    if (!ok_) return false;
    if (count > (bytes_.size() - at_) / unit) {
      ok_ = false;
      return false;
    }
    return true;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || bytes_.size() - at_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------------------ fault plans

void put_plan(std::vector<std::uint8_t>& out, const fault::FaultPlan& plan) {
  out.push_back(static_cast<std::uint8_t>(plan.convention));
  put_u32(out, static_cast<std::uint32_t>(plan.neurons.size()));
  for (const auto& fault : plan.neurons) {
    put_u32(out, static_cast<std::uint32_t>(fault.layer));
    put_u32(out, static_cast<std::uint32_t>(fault.neuron));
    out.push_back(static_cast<std::uint8_t>(fault.kind));
    put_f64(out, fault.value);
  }
  put_u32(out, static_cast<std::uint32_t>(plan.synapses.size()));
  for (const auto& fault : plan.synapses) {
    put_u32(out, static_cast<std::uint32_t>(fault.layer));
    put_u32(out, static_cast<std::uint32_t>(fault.to));
    put_u32(out, static_cast<std::uint32_t>(fault.from));
    out.push_back(static_cast<std::uint8_t>(fault.kind));
    put_f64(out, fault.value);
  }
}

constexpr std::size_t kNeuronFaultBytes = 4 + 4 + 1 + 8;
constexpr std::size_t kSynapseFaultBytes = 4 + 4 + 4 + 1 + 8;

bool read_plan(Reader& reader, fault::FaultPlan& plan) {
  const std::uint8_t convention = reader.u8();
  if (convention > static_cast<std::uint8_t>(
                       theory::CapacityConvention::kTransmittedValueBound)) {
    return false;
  }
  plan.convention = static_cast<theory::CapacityConvention>(convention);
  const std::uint32_t neurons = reader.u32();
  if (!reader.fits(neurons, kNeuronFaultBytes)) return false;
  plan.neurons.resize(neurons);
  for (auto& fault : plan.neurons) {
    fault.layer = reader.u32();
    fault.neuron = reader.u32();
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(fault::NeuronFaultKind::kStuckAt)) {
      return false;
    }
    fault.kind = static_cast<fault::NeuronFaultKind>(kind);
    fault.value = reader.f64();
  }
  const std::uint32_t synapses = reader.u32();
  if (!reader.fits(synapses, kSynapseFaultBytes)) return false;
  plan.synapses.resize(synapses);
  for (auto& fault : plan.synapses) {
    fault.layer = reader.u32();
    fault.to = reader.u32();
    fault.from = reader.u32();
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(fault::SynapseFaultKind::kByzantine)) {
      return false;
    }
    fault.kind = static_cast<fault::SynapseFaultKind>(kind);
    fault.value = reader.f64();
  }
  return reader.ok();
}

/// True for the v5 control types; the retired probe frames (4, 5, 7, 8)
/// and anything out of range are not.
bool known_type(std::uint16_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello:
    case MessageType::kBind:
    case MessageType::kSegments:
    case MessageType::kShutdown:
    case MessageType::kRebind:
    case MessageType::kTelemetry:
      return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------- framing

std::uint64_t Codec::checksum(const std::uint8_t* bytes, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;  // FNV-1a 64 prime
  }
  return hash;
}

std::vector<std::uint8_t> Codec::encode(MessageType type,
                                        std::vector<std::uint8_t> payload) {
  // Enforce the parser's sanity cap at the source: an oversized payload
  // (a pathologically large network) must fail loudly here, not ship a
  // frame every receiver rejects as malformed.
  WNF_EXPECTS(payload.size() <= kMaxPayloadSize);
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  put_u32(frame, kFrameMagic);
  put_u16(frame, kProtocolVersion);
  put_u16(frame, static_cast<std::uint16_t>(type));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u64(frame, checksum(payload.data(), payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

ParseStatus Codec::try_parse(std::vector<std::uint8_t>& buffer, Frame& frame) {
  if (buffer.size() < kFrameHeaderSize) return ParseStatus::kNeedMore;
  Reader header(buffer);
  const std::uint32_t magic = header.u32();
  const std::uint16_t version = header.u16();
  const std::uint16_t type = header.u16();
  const std::uint32_t size = header.u32();
  const std::uint64_t expected = header.u64();
  if (magic != kFrameMagic || size > kMaxPayloadSize || !known_type(type)) {
    return ParseStatus::kMalformed;
  }
  // A structurally sound frame from a peer on another protocol version
  // (older or newer) is a version mismatch, not corruption — the
  // distinction matters to whoever reports the rejection.
  if (version != kProtocolVersion) return ParseStatus::kWrongVersion;
  if (buffer.size() < kFrameHeaderSize + size) return ParseStatus::kNeedMore;
  if (checksum(buffer.data() + kFrameHeaderSize, size) != expected) {
    return ParseStatus::kMalformed;
  }
  frame.type = static_cast<MessageType>(type);
  frame.payload.assign(buffer.begin() + kFrameHeaderSize,
                       buffer.begin() + kFrameHeaderSize + size);
  buffer.erase(buffer.begin(),
               buffer.begin() + kFrameHeaderSize + size);
  return ParseStatus::kFrame;
}

// ----------------------------------------------------------------- hello

std::vector<std::uint8_t> Codec::encode_hello(const HelloMsg& msg) {
  std::vector<std::uint8_t> out;
  put_u32(out, msg.worker_index);
  put_u32(out, msg.pid);
  put_u64(out, msg.clock_ns);
  return out;
}

std::optional<HelloMsg> Codec::decode_hello(
    const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  HelloMsg msg;
  msg.worker_index = reader.u32();
  msg.pid = reader.u32();
  msg.clock_ns = reader.u64();
  if (!reader.exhausted()) return std::nullopt;
  return msg;
}

// ------------------------------------------------------------------ bind

std::vector<std::uint8_t> Codec::encode_bind(const BindMsg& msg) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(msg.network_text.size()));
  out.reserve(out.size() + msg.network_text.size());
  for (const char c : msg.network_text) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  put_f64(out, msg.sim.capacity);
  out.push_back(static_cast<std::uint8_t>(msg.latency.kind));
  put_f64(out, msg.latency.base);
  put_f64(out, msg.latency.spread);
  put_f64(out, msg.latency.straggler_fraction);
  put_u32(out, static_cast<std::uint32_t>(msg.wait_counts.size()));
  for (const std::uint64_t count : msg.wait_counts) put_u64(out, count);
  return out;
}

std::optional<BindMsg> Codec::decode_bind(
    const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  BindMsg msg;
  msg.network_text = reader.str();
  msg.sim.capacity = reader.f64();
  const std::uint8_t kind = reader.u8();
  if (kind > static_cast<std::uint8_t>(dist::LatencyKind::kHeavyTail)) {
    return std::nullopt;
  }
  msg.latency.kind = static_cast<dist::LatencyKind>(kind);
  msg.latency.base = reader.f64();
  msg.latency.spread = reader.f64();
  msg.latency.straggler_fraction = reader.f64();
  const std::uint32_t counts = reader.u32();
  if (!reader.fits(counts, 8)) return std::nullopt;
  msg.wait_counts.resize(counts);
  for (auto& count : msg.wait_counts) count = reader.u64();
  if (!reader.exhausted()) return std::nullopt;
  return msg;
}

// -------------------------------------------------------------- segments

std::vector<std::uint8_t> Codec::encode_segments(const SegmentsMsg& msg) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(msg.plans.size()));
  for (const auto& plan : msg.plans) put_plan(out, plan);
  return out;
}

std::optional<SegmentsMsg> Codec::decode_segments(
    const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  SegmentsMsg msg;
  const std::uint32_t plans = reader.u32();
  // Every plan is at least 9 bytes (convention + two zero counts).
  if (!reader.fits(plans, 9)) return std::nullopt;
  msg.plans.resize(plans);
  for (auto& plan : msg.plans) {
    if (!read_plan(reader, plan)) return std::nullopt;
  }
  if (!reader.exhausted()) return std::nullopt;
  return msg;
}

// ------------------------------------------------------------- telemetry

namespace {
/// ts + id + value + name + kind per event on the wire.
constexpr std::size_t kTelemetryEventBytes = 8 + 8 + 8 + 2 + 1;
}  // namespace

std::vector<std::uint8_t> Codec::encode_telemetry(const TelemetryMsg& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 8 + 4 + msg.events.size() * kTelemetryEventBytes);
  put_u32(out, msg.tid);
  put_u64(out, msg.dropped);
  put_u32(out, static_cast<std::uint32_t>(msg.events.size()));
  for (const obs::TraceEvent& event : msg.events) {
    put_u64(out, event.ts_ns);
    put_u64(out, event.id);
    put_u64(out, event.value);
    put_u16(out, static_cast<std::uint16_t>(event.name));
    out.push_back(static_cast<std::uint8_t>(event.kind));
  }
  return out;
}

std::optional<TelemetryMsg> Codec::decode_telemetry(
    const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  TelemetryMsg msg;
  msg.tid = reader.u32();
  msg.dropped = reader.u64();
  const std::uint32_t count = reader.u32();
  if (!reader.fits(count, kTelemetryEventBytes)) return std::nullopt;
  msg.events.resize(count);
  for (obs::TraceEvent& event : msg.events) {
    event.ts_ns = reader.u64();
    event.id = reader.u64();
    event.value = reader.u64();
    const std::uint16_t name = reader.u16();
    if (name >= static_cast<std::uint16_t>(obs::TraceName::kNameCount)) {
      return std::nullopt;
    }
    event.name = static_cast<obs::TraceName>(name);
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(obs::EventKind::kCounter)) {
      return std::nullopt;
    }
    event.kind = static_cast<obs::EventKind>(kind);
  }
  if (!reader.exhausted()) return std::nullopt;
  return msg;
}

// ---------------------------------------------------------------- rebind

std::vector<std::uint8_t> Codec::encode_rebind(const RebindMsg& msg) {
  // The two inner payloads are length-prefixed so the decoder can hand
  // each to its own codec (which enforces its own exhaustion check).
  const auto bind = encode_bind(msg.bind);
  const auto segments = encode_segments(msg.segments);
  std::vector<std::uint8_t> out;
  out.reserve(8 + bind.size() + segments.size());
  put_u32(out, static_cast<std::uint32_t>(bind.size()));
  out.insert(out.end(), bind.begin(), bind.end());
  put_u32(out, static_cast<std::uint32_t>(segments.size()));
  out.insert(out.end(), segments.begin(), segments.end());
  return out;
}

std::optional<RebindMsg> Codec::decode_rebind(
    const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  const std::uint32_t bind_size = reader.u32();
  const std::vector<std::uint8_t> bind_bytes = reader.bytes(bind_size);
  const std::uint32_t segments_size = reader.u32();
  const std::vector<std::uint8_t> segments_bytes =
      reader.bytes(segments_size);
  if (!reader.exhausted()) return std::nullopt;
  RebindMsg msg;
  auto bind = decode_bind(bind_bytes);
  if (!bind) return std::nullopt;
  msg.bind = std::move(*bind);
  auto segments = decode_segments(segments_bytes);
  if (!segments) return std::nullopt;
  msg.segments = std::move(*segments);
  return msg;
}

}  // namespace wnf::transport
