// Transport-subsystem tests: the control-frame codec (round-trips,
// malformed-input rejection, seeded mutation fuzzing), the multi-process
// WorkerHost and its shared-memory rings against the in-process
// ReplicaPool (bit-identity across 1/2/8 worker processes and ring
// shapes, with and without real SIGKILLed workers), and the
// TransportBackend behind the EvalBackend seam (bit-equivalence with
// ServeBackend and — at campaign scale, transmitted-value convention —
// with SimulatorBackend).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "exec/serve_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/campaign.hpp"
#include "nn/builder.hpp"
#include "nn/serialize.hpp"
#include "obs/json.hpp"
#include "obs/snapshot.hpp"
#include "obs/watchdog.hpp"
#include "serve/pool.hpp"
#include "transport/codec.hpp"
#include "transport/host.hpp"
#include "transport/monitor.hpp"
#include "transport/worker.hpp"

namespace wnf::transport {
namespace {

nn::FeedForwardNetwork transport_net(std::uint64_t seed = 3) {
  Rng rng(seed);
  return nn::NetworkBuilder(3)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(7)
      .hidden(5)
      .init(nn::InitKind::kUniform, 0.5)
      .build(rng);
}

/// The 3-input test net, or a wider one whose probes span
/// request_slots(width) ring slots.
nn::FeedForwardNetwork net_of_width(std::size_t width) {
  if (width == 3) return transport_net(13);
  Rng rng(5);
  return nn::NetworkBuilder(width)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(6)
      .hidden(4)
      .init(nn::InitKind::kUniform, 0.3)
      .build(rng);
}

std::vector<std::vector<double>> transport_workload(std::size_t count,
                                                    std::uint64_t seed = 7,
                                                    std::size_t width = 3) {
  Rng rng(seed);
  std::vector<std::vector<double>> workload(count);
  for (auto& x : workload) {
    x.resize(width);
    for (double& v : x) v = rng.uniform();
  }
  return workload;
}

dist::LatencyModel heavy_tail() {
  return {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
}

fault::FaultPlan sample_plan() {
  fault::FaultPlan plan;
  plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                  {2, 1, fault::NeuronFaultKind::kByzantine, 0.7},
                  {1, 4, fault::NeuronFaultKind::kStuckAt, 0.3}};
  plan.synapses = {{2, 3, 1, fault::SynapseFaultKind::kCrash, 0.0},
                   {3, 0, 2, fault::SynapseFaultKind::kByzantine, -0.4}};
  return plan;
}

#define SKIP_WITHOUT_TRANSPORT()                                   \
  if (!transport_available()) {                                    \
    GTEST_SKIP() << "no POSIX fork/socketpair on this platform";   \
  }

/// The determinism contract's reference (host.hpp): the in-process pool
/// with the deployment's latency, cut and seed serves the same results at
/// any replica or worker count.
std::vector<serve::RequestResult> pool_reference(
    const nn::FeedForwardNetwork& net, const TransportConfig& config,
    const std::vector<std::vector<double>>& workload,
    const serve::FaultTimeline* timeline = nullptr) {
  serve::ServeConfig pool_config;
  pool_config.replicas = 2;
  pool_config.queue_capacity = std::max<std::size_t>(1, workload.size());
  pool_config.sim = config.sim;
  pool_config.latency = config.latency;
  pool_config.straggler_cut = config.straggler_cut;
  pool_config.seed = config.seed;
  serve::ReplicaPool pool(net, pool_config);
  if (timeline != nullptr) pool.set_timeline(*timeline);
  EXPECT_EQ(pool.submit_batch(workload), workload.size());
  return pool.drain();
}

// Serves `workload` through a WorkerHost built from `config` and returns
// the drained results.
std::vector<serve::RequestResult> serve_through(
    const nn::FeedForwardNetwork& net, const TransportConfig& config,
    const std::vector<std::vector<double>>& workload,
    const serve::FaultTimeline* timeline = nullptr) {
  WorkerHost host(net, config);
  if (timeline != nullptr) host.set_timeline(*timeline);
  EXPECT_EQ(host.submit_batch(workload), workload.size());
  return host.drain();
}

void expect_bit_identical(const std::vector<serve::RequestResult>& got,
                          const std::vector<serve::RequestResult>& want,
                          const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " request " << i;
    EXPECT_DOUBLE_EQ(got[i].output, want[i].output)
        << label << " request " << i;
    EXPECT_DOUBLE_EQ(got[i].completion_time, want[i].completion_time)
        << label << " request " << i;
    EXPECT_EQ(got[i].resets_sent, want[i].resets_sent)
        << label << " request " << i;
  }
}

// ------------------------------------------------------------------ codec

TEST(Codec, FramesRoundTripEveryMessageType) {
  HelloMsg hello{4, 1234};
  SegmentsMsg segments;
  segments.plans = {fault::FaultPlan{}, sample_plan()};

  std::vector<std::uint8_t> stream;
  for (const auto& frame :
       {Codec::encode(MessageType::kHello, Codec::encode_hello(hello)),
        Codec::encode(MessageType::kSegments,
                      Codec::encode_segments(segments)),
        Codec::encode(MessageType::kShutdown, {})}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  Frame frame;
  ASSERT_EQ(Codec::try_parse(stream, frame), ParseStatus::kFrame);
  ASSERT_EQ(frame.type, MessageType::kHello);
  const auto hello_out = Codec::decode_hello(frame.payload);
  ASSERT_TRUE(hello_out.has_value());
  EXPECT_EQ(hello_out->worker_index, 4u);
  EXPECT_EQ(hello_out->pid, 1234u);

  ASSERT_EQ(Codec::try_parse(stream, frame), ParseStatus::kFrame);
  ASSERT_EQ(frame.type, MessageType::kSegments);
  const auto segments_out = Codec::decode_segments(frame.payload);
  ASSERT_TRUE(segments_out.has_value());
  ASSERT_EQ(segments_out->plans.size(), 2u);
  EXPECT_TRUE(segments_out->plans[0].empty());
  const auto& plan = segments_out->plans[1];
  const auto reference = sample_plan();
  EXPECT_EQ(plan.convention, reference.convention);
  ASSERT_EQ(plan.neurons.size(), reference.neurons.size());
  for (std::size_t i = 0; i < plan.neurons.size(); ++i) {
    EXPECT_EQ(plan.neurons[i].layer, reference.neurons[i].layer);
    EXPECT_EQ(plan.neurons[i].neuron, reference.neurons[i].neuron);
    EXPECT_EQ(plan.neurons[i].kind, reference.neurons[i].kind);
    EXPECT_EQ(plan.neurons[i].value, reference.neurons[i].value);
  }
  ASSERT_EQ(plan.synapses.size(), reference.synapses.size());
  for (std::size_t i = 0; i < plan.synapses.size(); ++i) {
    EXPECT_EQ(plan.synapses[i].layer, reference.synapses[i].layer);
    EXPECT_EQ(plan.synapses[i].to, reference.synapses[i].to);
    EXPECT_EQ(plan.synapses[i].from, reference.synapses[i].from);
    EXPECT_EQ(plan.synapses[i].kind, reference.synapses[i].kind);
    EXPECT_EQ(plan.synapses[i].value, reference.synapses[i].value);
  }

  ASSERT_EQ(Codec::try_parse(stream, frame), ParseStatus::kFrame);
  EXPECT_EQ(frame.type, MessageType::kShutdown);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_TRUE(stream.empty());
}

TEST(Codec, BindRoundTripsNetworkBitExact) {
  const auto net = transport_net(11);
  BindMsg bind;
  std::ostringstream text;
  nn::save_network(net, text);
  bind.network_text = text.str();
  bind.sim.capacity = 2.5;
  bind.latency = heavy_tail();
  bind.wait_counts = {3, 7, 5, 1};

  auto frame_bytes =
      Codec::encode(MessageType::kBind, Codec::encode_bind(bind));
  Frame frame;
  ASSERT_EQ(Codec::try_parse(frame_bytes, frame), ParseStatus::kFrame);
  const auto out = Codec::decode_bind(frame.payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sim.capacity, 2.5);
  EXPECT_EQ(out->latency.kind, dist::LatencyKind::kHeavyTail);
  EXPECT_EQ(out->latency.spread, 50.0);
  EXPECT_EQ(out->wait_counts, bind.wait_counts);

  std::istringstream in(out->network_text);
  const auto loaded = nn::load_network(in);
  ASSERT_TRUE(loaded.has_value());
  Rng rng(5);
  for (int n = 0; n < 16; ++n) {
    const std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->evaluate(x)),
              std::bit_cast<std::uint64_t>(net.evaluate(x)))
        << "wire-shipped network must be the same function bit for bit";
  }
}

TEST(Codec, MalformedFramesAreRejectedNotInterpreted) {
  const auto good =
      Codec::encode(MessageType::kHello, Codec::encode_hello({1, 2}));

  // Truncated header and truncated payload: wait for more bytes.
  for (std::size_t keep : {std::size_t{0}, std::size_t{5},
                           kFrameHeaderSize - 1, good.size() - 1}) {
    std::vector<std::uint8_t> partial(good.begin(),
                                      good.begin() + static_cast<long>(keep));
    Frame frame;
    EXPECT_EQ(Codec::try_parse(partial, frame), ParseStatus::kNeedMore)
        << keep << " bytes";
    EXPECT_EQ(partial.size(), keep);  // kNeedMore must not consume
  }

  // Corrupted magic, type, and payload bytes: malformed. (A corrupted
  // version byte is the one corruption with its own status — see
  // CrossVersionFramesAreRejectedDistinctly.)
  for (const std::size_t flip : {std::size_t{0},   // magic
                                 std::size_t{6},   // type (-> 0, invalid)
                                 kFrameHeaderSize,  // payload vs checksum
                                 good.size() - 1}) {
    auto bad = good;
    bad[flip] ^= 0x5a;
    Frame frame;
    EXPECT_EQ(Codec::try_parse(bad, frame), ParseStatus::kMalformed)
        << "flip at byte " << flip;
  }

  // A lying length field larger than the sanity cap is rejected before
  // any allocation, even though the bytes "after" it never arrive.
  {
    auto bad = good;
    bad[8] = 0xff; bad[9] = 0xff; bad[10] = 0xff; bad[11] = 0xff;
    Frame frame;
    EXPECT_EQ(Codec::try_parse(bad, frame), ParseStatus::kMalformed);
  }

  // Structurally invalid payloads: truncated vector, trailing garbage,
  // out-of-range enum, element count that cannot fit the payload.
  const auto payload = Codec::encode_segments({{sample_plan()}});
  auto truncated = payload;
  truncated.pop_back();
  EXPECT_FALSE(Codec::decode_segments(truncated).has_value());
  auto overlong = payload;
  overlong.push_back(0);
  EXPECT_FALSE(Codec::decode_segments(overlong).has_value());
  auto lying_count = payload;
  lying_count[4 + 1] = 0xff;  // first plan's neuron-count low byte
  EXPECT_FALSE(Codec::decode_segments(lying_count).has_value());
  auto bad_kind = payload;
  bad_kind[4 + 1 + 4 + 4 + 4] = 0x7f;  // first neuron's kind byte
  EXPECT_FALSE(Codec::decode_segments(bad_kind).has_value());

  EXPECT_FALSE(Codec::decode_bind({0x01}).has_value());
  EXPECT_FALSE(Codec::decode_hello({}).has_value());
  EXPECT_FALSE(Codec::decode_telemetry({1, 2, 3}).has_value());
}

TEST(Codec, CrossVersionFramesAreRejectedDistinctly) {
  // A structurally sound frame from another protocol version — older (a
  // v4 peer's frame reaching this v5 parser) or newer (a v6 frame from
  // some future peer) — is a version mismatch, not corruption. The
  // distinct status is the whole point: "incompatible peer" and "garbage
  // stream" demand different operator responses.
  ASSERT_EQ(kProtocolVersion, 5u);
  const auto good =
      Codec::encode(MessageType::kHello, Codec::encode_hello({1, 2}));
  for (const std::uint16_t version : {std::uint16_t{4}, std::uint16_t{6}}) {
    auto foreign = good;
    foreign[4] = static_cast<std::uint8_t>(version);  // LE u16 low byte
    foreign[5] = 0;
    Frame frame;
    EXPECT_EQ(Codec::try_parse(foreign, frame), ParseStatus::kWrongVersion)
        << "version " << version;
    EXPECT_EQ(foreign.size(), good.size());  // rejected, not consumed
  }
  // Corrupting the version *and* the magic is still just garbage.
  auto garbage = good;
  garbage[0] ^= 0x5a;
  garbage[4] = 3;
  Frame frame;
  EXPECT_EQ(Codec::try_parse(garbage, frame), ParseStatus::kMalformed);
}

TEST(Codec, TelemetryFramesRoundTrip) {
  TelemetryMsg msg;
  msg.tid = 7;
  msg.dropped = 42;
  for (std::uint64_t i = 0; i < 5; ++i) {
    obs::TraceEvent event;
    event.ts_ns = 1000 * (i + 1);
    event.id = 0x1234560 + i;
    event.value = i;
    event.name = static_cast<obs::TraceName>(i + 1);
    event.kind = static_cast<obs::EventKind>(i % 6);
    msg.events.push_back(event);
  }
  auto bytes = Codec::encode(MessageType::kTelemetry,
                             Codec::encode_telemetry(msg));
  Frame frame;
  ASSERT_EQ(Codec::try_parse(bytes, frame), ParseStatus::kFrame);
  ASSERT_EQ(frame.type, MessageType::kTelemetry);
  const auto out = Codec::decode_telemetry(frame.payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tid, msg.tid);
  EXPECT_EQ(out->dropped, msg.dropped);
  ASSERT_EQ(out->events.size(), msg.events.size());
  for (std::size_t i = 0; i < msg.events.size(); ++i) {
    EXPECT_EQ(out->events[i].ts_ns, msg.events[i].ts_ns);
    EXPECT_EQ(out->events[i].id, msg.events[i].id);
    EXPECT_EQ(out->events[i].value, msg.events[i].value);
    EXPECT_EQ(out->events[i].name, msg.events[i].name);
    EXPECT_EQ(out->events[i].kind, msg.events[i].kind);
  }

  // Defensive decoding: truncation, trailing garbage, a lying event
  // count, and out-of-range name/kind enums must all reject.
  auto payload = Codec::encode_telemetry(msg);
  auto truncated = payload;
  truncated.pop_back();
  EXPECT_FALSE(Codec::decode_telemetry(truncated).has_value());
  auto overlong = payload;
  overlong.push_back(0);
  EXPECT_FALSE(Codec::decode_telemetry(overlong).has_value());
  auto lying_count = payload;
  lying_count[4 + 8] = 0xff;  // event-count low byte
  EXPECT_FALSE(Codec::decode_telemetry(lying_count).has_value());
  auto bad_name = payload;
  bad_name[4 + 8 + 4 + 8 + 8 + 8] = 0xff;  // first event's name low byte
  EXPECT_FALSE(Codec::decode_telemetry(bad_name).has_value());
  auto bad_kind = payload;
  bad_kind[4 + 8 + 4 + 8 + 8 + 8 + 2] = 0x7f;  // first event's kind byte
  EXPECT_FALSE(Codec::decode_telemetry(bad_kind).has_value());
}

TEST(Codec, RebindRoundTripsBindAndSegments) {
  const auto net = transport_net(23);
  RebindMsg rebind;
  std::ostringstream text;
  nn::save_network(net, text);
  rebind.bind.network_text = text.str();
  rebind.bind.sim.capacity = 1.5;
  rebind.bind.latency = heavy_tail();
  rebind.bind.wait_counts = {2, 4, 3, 1};
  rebind.segments.plans = {fault::FaultPlan{}, sample_plan()};

  auto stream =
      Codec::encode(MessageType::kRebind, Codec::encode_rebind(rebind));
  Frame frame;
  ASSERT_EQ(Codec::try_parse(stream, frame), ParseStatus::kFrame);
  ASSERT_EQ(frame.type, MessageType::kRebind);
  const auto out = Codec::decode_rebind(frame.payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->bind.network_text, rebind.bind.network_text);
  EXPECT_EQ(out->bind.sim.capacity, 1.5);
  EXPECT_EQ(out->bind.latency.kind, dist::LatencyKind::kHeavyTail);
  EXPECT_EQ(out->bind.wait_counts, rebind.bind.wait_counts);
  ASSERT_EQ(out->segments.plans.size(), 2u);
  EXPECT_TRUE(out->segments.plans[0].empty());
  EXPECT_EQ(out->segments.plans[1].neurons.size(),
            sample_plan().neurons.size());
}

TEST(Codec, MalformedRebindFramesAreRejected) {
  const auto net = transport_net(29);
  RebindMsg rebind;
  std::ostringstream text;
  nn::save_network(net, text);
  rebind.bind.network_text = text.str();
  rebind.segments.plans = {sample_plan()};
  const auto rebind_payload = Codec::encode_rebind(rebind);

  // Truncation anywhere — inside the bind length prefix, the bind bytes,
  // the segments prefix, or the segments bytes — is rejected.
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{4},
                           std::size_t{10}, rebind_payload.size() - 1}) {
    std::vector<std::uint8_t> cut(
        rebind_payload.begin(),
        rebind_payload.begin() + static_cast<long>(keep));
    EXPECT_FALSE(Codec::decode_rebind(cut).has_value()) << keep;
  }

  // A lying inner-bind length must not be interpreted.
  auto lying_bind = rebind_payload;
  lying_bind[0] = 0xff;
  lying_bind[1] = 0xff;
  EXPECT_FALSE(Codec::decode_rebind(lying_bind).has_value());

  // Garbage inner payloads fail the inner codecs even when the lengths
  // are consistent.
  auto garbage = rebind_payload;
  garbage[4] ^= 0x5a;  // first byte of the bind payload
  EXPECT_FALSE(Codec::decode_rebind(garbage).has_value());

  auto trailing = rebind_payload;
  trailing.push_back(0);
  EXPECT_FALSE(Codec::decode_rebind(trailing).has_value());
}

/// Decodes `payload` as a `type` frame and re-encodes what the decoder
/// accepted; nullopt when it rejects (Shutdown has no payload codec).
std::optional<std::vector<std::uint8_t>> reencode(
    MessageType type, const std::vector<std::uint8_t>& payload) {
  switch (type) {
    case MessageType::kHello:
      if (const auto msg = Codec::decode_hello(payload)) {
        return Codec::encode_hello(*msg);
      }
      break;
    case MessageType::kBind:
      if (const auto msg = Codec::decode_bind(payload)) {
        return Codec::encode_bind(*msg);
      }
      break;
    case MessageType::kSegments:
      if (const auto msg = Codec::decode_segments(payload)) {
        return Codec::encode_segments(*msg);
      }
      break;
    case MessageType::kRebind:
      if (const auto msg = Codec::decode_rebind(payload)) {
        return Codec::encode_rebind(*msg);
      }
      break;
    case MessageType::kTelemetry:
      if (const auto msg = Codec::decode_telemetry(payload)) {
        return Codec::encode_telemetry(*msg);
      }
      break;
    case MessageType::kShutdown:
      break;
  }
  return std::nullopt;
}

TEST(Codec, SeededMutationsOfControlFramesNeverAbortAndReencodeExactly) {
  // Golden frames of every v5 control type, mutated from a seeded Rng:
  // bit flips, truncations, length-field lies, and splices between two
  // valid frames. Each mutant goes through try_parse as received and,
  // re-framed with an honest size and checksum, through the decoder of
  // its golden type. Nothing may abort, and every accepted frame or
  // payload must re-encode to exactly the bytes it was decoded from.
  const auto net = transport_net(19);
  std::ostringstream text;
  nn::save_network(net, text);
  RebindMsg rebind;
  rebind.bind.network_text = text.str();
  rebind.bind.latency = heavy_tail();
  rebind.bind.wait_counts = {3, 7, 5, 1};
  rebind.segments.plans = {fault::FaultPlan{}, sample_plan()};
  TelemetryMsg telemetry;
  telemetry.tid = 1;
  telemetry.dropped = 2;
  telemetry.events = {{100, 7, 1, obs::TraceName::kWorkerExecute,
                       obs::EventKind::kSpanBegin},
                      {250, 7, 1, obs::TraceName::kWorkerExecute,
                       obs::EventKind::kSpanEnd}};
  const std::vector<std::pair<MessageType, std::vector<std::uint8_t>>>
      golden = {
          {MessageType::kHello, Codec::encode_hello({2, 4242, 123456789})},
          {MessageType::kBind, Codec::encode_bind(rebind.bind)},
          {MessageType::kSegments, Codec::encode_segments(rebind.segments)},
          {MessageType::kRebind, Codec::encode_rebind(rebind)},
          {MessageType::kTelemetry, Codec::encode_telemetry(telemetry)},
          {MessageType::kShutdown, {}},
      };
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& [type, payload] : golden) {
    EXPECT_EQ(reencode(type, payload).value_or(payload), payload);
    frames.push_back(Codec::encode(type, payload));
  }

  // The retired probe frames are not v5 frames, however well formed.
  for (const std::uint8_t retired : {4, 5, 7, 8}) {
    auto bytes = frames.front();
    bytes[6] = retired;  // LE u16 type
    Frame frame;
    EXPECT_EQ(Codec::try_parse(bytes, frame), ParseStatus::kMalformed)
        << "type " << int{retired};
  }

  Rng rng(0xf022);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t round = 0; round < 4000; ++round) {
    const std::size_t which = rng.uniform_index(frames.size());
    const MessageType type = golden[which].first;
    std::vector<std::uint8_t> mutant = frames[which];
    switch (round % 4) {
      case 0:  // bit flips
        for (std::size_t f = 0, n = 1 + rng.uniform_index(4); f < n; ++f) {
          mutant[rng.uniform_index(mutant.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_index(8));
        }
        break;
      case 1:  // truncation
        mutant.resize(rng.uniform_index(mutant.size()));
        break;
      case 2: {  // a length field lies: the header's, or one in the payload
        const std::size_t at =
            rng.bernoulli(0.3)
                ? 8
                : kFrameHeaderSize +
                      rng.uniform_index(mutant.size() - kFrameHeaderSize + 1);
        const std::uint32_t lie = rng.bernoulli(0.5)
                                      ? static_cast<std::uint32_t>(
                                            rng.uniform_index(64))
                                      : static_cast<std::uint32_t>(rng());
        for (std::size_t b = 0; b < 4 && at + b < mutant.size(); ++b) {
          mutant[at + b] = static_cast<std::uint8_t>(lie >> (8 * b));
        }
        break;
      }
      default: {  // splice: a prefix of this frame, a suffix of another
        const auto& other = frames[rng.uniform_index(frames.size())];
        mutant.resize(rng.uniform_index(mutant.size() + 1));
        mutant.insert(mutant.end(),
                      other.begin() + static_cast<long>(
                                          rng.uniform_index(other.size() + 1)),
                      other.end());
        break;
      }
    }

    // As received: a mutant that still frames is a valid frame, so it
    // re-encodes to the bytes it was parsed from.
    std::vector<std::uint8_t> stream = mutant;
    Frame frame;
    if (Codec::try_parse(stream, frame) == ParseStatus::kFrame) {
      const std::vector<std::uint8_t> consumed(
          mutant.begin(),
          mutant.begin() + static_cast<long>(mutant.size() - stream.size()));
      EXPECT_EQ(Codec::encode(frame.type, frame.payload), consumed);
      if (const auto again = reencode(frame.type, frame.payload)) {
        EXPECT_EQ(*again, frame.payload);
      }
    }
    // Re-framed honestly: the mutated payload reaches its decoder.
    std::vector<std::uint8_t> honest = Codec::encode(
        type, {mutant.begin() + static_cast<long>(std::min(
                                    mutant.size(), kFrameHeaderSize)),
               mutant.end()});
    ASSERT_EQ(Codec::try_parse(honest, frame), ParseStatus::kFrame);
    if (const auto again = reencode(type, frame.payload)) {
      EXPECT_EQ(*again, frame.payload) << "round " << round;
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // The corpus exercised both verdicts.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------------- WorkerHost

TEST(WorkerHost, MatchesReplicaPoolBitForBit) {
  SKIP_WITHOUT_TRANSPORT();
  // The same deployment shape in threads and in processes: identical seed,
  // timeline, and cut must give identical outputs, completion times, and
  // reset counts — the wire protocol is invisible to the numbers.
  const auto net = transport_net(13);
  const auto workload = transport_workload(40, 21);

  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0},
                   {1, 5, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.neurons = {{2, 0, fault::NeuronFaultKind::kByzantine, 0.6}};
  timeline.add(10, 25, crash);
  timeline.add(30, 34, byzantine);

  serve::ServeConfig pool_config;
  pool_config.replicas = 2;
  pool_config.latency = heavy_tail();
  pool_config.straggler_cut = {2, 1};
  pool_config.seed = 99;
  serve::ReplicaPool pool(net, pool_config);
  pool.set_timeline(timeline);
  ASSERT_EQ(pool.submit_batch(workload), workload.size());
  const auto expected = pool.drain();

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 99;
  WorkerHost host(net, config);
  host.set_timeline(timeline);
  ASSERT_EQ(host.submit_batch(workload), workload.size());
  const auto served = host.drain();

  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].id, expected[i].id);
    EXPECT_DOUBLE_EQ(served[i].output, expected[i].output);
    EXPECT_DOUBLE_EQ(served[i].completion_time, expected[i].completion_time);
    EXPECT_EQ(served[i].resets_sent, expected[i].resets_sent);
  }

  const auto report = host.report();
  EXPECT_EQ(report.completed, workload.size());
  EXPECT_EQ(report.replicas, 2u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.resubmitted, 0u);
  EXPECT_EQ(report.worker_restarts, 0u);
  EXPECT_EQ(host.alive_workers(), 2u);
}

TEST(WorkerHost, ScriptedSigkillResubmitsToSurvivorsAndRespawns) {
  SKIP_WITHOUT_TRANSPORT();
  // The acceptance bar: a crash window SIGKILLs a real worker process, its
  // in-flight requests complete on the survivors, the worker respawns at
  // the recovery boundary — and the results are bit-identical across
  // 1/2/8 workers and to a deployment that never crashed at all.
  const auto net = transport_net(13);
  const auto workload = transport_workload(48, 21);

  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(12, 30, crash);

  // The undisturbed reference deployment.
  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 4242;
  std::vector<serve::RequestResult> reference;
  {
    WorkerHost host(net, config);
    host.set_timeline(timeline);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    reference = host.drain();
    EXPECT_EQ(host.report().worker_restarts, 0u);
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    TransportConfig crashed = config;
    crashed.workers = workers;
    WorkerHost host(net, crashed);
    host.set_timeline(timeline);
    // Worker 0 dies with the logical crash window and recovers with it; a
    // second death hits another worker (or worker 0 again) later.
    host.set_crash_script({{0, 12, 30},
                           {workers > 1 ? 1u : 0u, 36, 42}});
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    const auto served = host.drain();

    ASSERT_EQ(served.size(), reference.size()) << workers << " workers";
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].id, reference[i].id);
      EXPECT_DOUBLE_EQ(served[i].output, reference[i].output)
          << "request " << i << " on " << workers << " workers";
      EXPECT_DOUBLE_EQ(served[i].completion_time,
                       reference[i].completion_time);
      EXPECT_EQ(served[i].resets_sent, reference[i].resets_sent);
    }
    const auto report = host.report();
    EXPECT_EQ(report.completed, workload.size());
    EXPECT_EQ(report.worker_restarts, 2u) << workers << " workers";
    EXPECT_EQ(host.alive_workers(), workers);  // both recovered
    EXPECT_EQ(host.restarts(), 2u);
  }
}

TEST(WorkerHost, SpontaneousWorkerDeathIsDetectedAndHealed) {
  SKIP_WITHOUT_TRANSPORT();
  // An *unscripted* SIGKILL from outside (this test playing saboteur): the
  // host notices the EOF, respawns immediately, resubmits, and the drain
  // still completes with bit-identical results.
  const auto net = transport_net(13);
  const auto workload = transport_workload(30, 33);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 7;
  std::vector<serve::RequestResult> expected;
  {
    WorkerHost host(net, config);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    expected = host.drain();
  }

  WorkerHost host(net, config);
  ASSERT_EQ(host.submit_batch(workload), workload.size());
  const int victim = host.worker_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  const auto served = host.drain();
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_DOUBLE_EQ(served[i].output, expected[i].output);
  }
  EXPECT_EQ(host.report().worker_restarts, 1u);
  EXPECT_EQ(host.alive_workers(), 2u);
}

TEST(WorkerHost, BoundedQueueShedsAsTransportBackpressure) {
  SKIP_WITHOUT_TRANSPORT();
  const auto net = transport_net();
  const auto workload = transport_workload(12);

  TransportConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.seed = 5;
  WorkerHost host(net, config);
  EXPECT_EQ(host.submit_batch(workload), 8u);
  const auto report_before = host.report();
  EXPECT_EQ(report_before.shed, 4u);
  EXPECT_EQ(report_before.rejected, 4u);  // mirrored for pool parity
  const auto served = host.drain();
  EXPECT_EQ(served.size(), 8u);
  // Shed load never consumed a split: id 8 serves next, like the pool.
  EXPECT_TRUE(host.submit(workload[8]));
  const auto next = host.drain();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id, 8u);
}

TEST(WorkerHost, AsyncPollWaitBitIdenticalToDrainUnderFaults) {
  SKIP_WITHOUT_TRANSPORT();
  // The async pipeline against the legacy drain, across 1/2/8 worker
  // processes under an active fault timeline: submitting one request at a
  // time while poll() harvests opportunistically, then wait()ing out the
  // tail, must deliver results bit-identical to submit-everything-then-
  // drain — the CompletionQueue's id-ordered merge erases the pipelining.
  const auto net = transport_net(13);
  const auto workload = transport_workload(40, 21);

  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(10, 25, crash);

  TransportConfig config;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 99;

  config.workers = 2;
  std::vector<serve::RequestResult> expected;
  {
    WorkerHost reference(net, config);
    reference.set_timeline(timeline);
    ASSERT_EQ(reference.submit_batch(workload), workload.size());
    expected = reference.drain();
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    TransportConfig async = config;
    async.workers = workers;
    WorkerHost host(net, async);
    host.set_timeline(timeline);
    std::vector<serve::RequestResult> served;
    serve::RequestResult ready;
    for (const auto& x : workload) {
      ASSERT_TRUE(host.submit(x));
      while (host.poll(ready)) served.push_back(ready);
    }
    while (host.pending() > 0) served.push_back(host.wait());
    EXPECT_FALSE(host.poll(ready));  // idle host: poll is a cheap no

    ASSERT_EQ(served.size(), expected.size()) << workers << " workers";
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].id, expected[i].id);
      EXPECT_DOUBLE_EQ(served[i].output, expected[i].output)
          << "request " << i << " on " << workers << " workers";
      EXPECT_DOUBLE_EQ(served[i].completion_time,
                       expected[i].completion_time);
      EXPECT_EQ(served[i].resets_sent, expected[i].resets_sent);
    }
    EXPECT_EQ(host.report().completed, workload.size());
  }
}

TEST(WorkerHost, AsyncPollWaitSurvivesSigkillMidReplay) {
  SKIP_WITHOUT_TRANSPORT();
  // SIGKILL through the async seam: a scripted worker death fires while
  // the driver is still submitting (the crash script runs inside the pump
  // that poll()/wait() share), in-flight probes resubmit to survivors, and
  // the poll/wait stream is still bit-identical to an undisturbed drain.
  const auto net = transport_net(13);
  const auto workload = transport_workload(48, 21);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 4242;
  std::vector<serve::RequestResult> expected;
  {
    WorkerHost reference(net, config);
    ASSERT_EQ(reference.submit_batch(workload), workload.size());
    expected = reference.drain();
    EXPECT_EQ(reference.report().worker_restarts, 0u);
  }

  WorkerHost host(net, config);
  host.set_crash_script({{0, 12, 30}});
  std::vector<serve::RequestResult> served;
  serve::RequestResult ready;
  for (const auto& x : workload) {
    ASSERT_TRUE(host.submit(x));
    while (host.poll(ready)) served.push_back(ready);
  }
  while (host.pending() > 0) served.push_back(host.wait());

  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].id, expected[i].id);
    EXPECT_DOUBLE_EQ(served[i].output, expected[i].output) << "request " << i;
    EXPECT_EQ(served[i].resets_sent, expected[i].resets_sent);
  }
  const auto report = host.report();
  EXPECT_EQ(report.worker_restarts, 1u);
  // How many probes the kill orphaned is wall-timing-dependent, but never
  // more than the victim's window.
  EXPECT_LE(report.resubmitted, config.window);
  EXPECT_EQ(host.alive_workers(), 2u);
}

TEST(WorkerHost, WindowSweepIsBitIdenticalToReplicaPool) {
  SKIP_WITHOUT_TRANSPORT();
  // The window is a pipelining knob, not a semantics knob: the same
  // deployment at 4, 32, and 256 in-flight probes per worker serves
  // outputs, completion times, and reset counts bit-identical to the
  // in-process pool.
  const auto net = transport_net(13);
  const auto workload = transport_workload(96, 43);

  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 1, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(20, 70, crash);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 123;
  const auto expected = pool_reference(net, config, workload, &timeline);
  for (const std::size_t window : {4u, 32u, 256u}) {
    config.window = window;
    WorkerHost host(net, config);
    host.set_timeline(timeline);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    expect_bit_identical(host.drain(), expected, "window sweep");
    EXPECT_EQ(host.report().completed, workload.size()) << window;
  }
}

TEST(WorkerHost, SigkillMidBatchResubmitsOnlyUnacknowledgedProbes) {
  SKIP_WITHOUT_TRANSPORT();
  // A worker dies with a window of probes in flight. Per-probe
  // acknowledgement means the host resubmits at most the unanswered probes
  // — bounded by the window — and the drain still completes bit-identical
  // to an undisturbed deployment.
  const auto net = transport_net(13);
  const auto workload = transport_workload(80, 51);

  TransportConfig config;
  config.workers = 2;
  config.window = 16;
  config.latency = heavy_tail();
  config.seed = 77;
  std::vector<serve::RequestResult> reference;
  {
    WorkerHost host(net, config);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    reference = host.drain();
  }

  WorkerHost host(net, config);
  // The kill fires when the dispatch frontier reaches id 24 — mid-stream,
  // with up to a window of probes unacknowledged on the victim.
  host.set_crash_script({{0, 24, 60}});
  ASSERT_EQ(host.submit_batch(workload), workload.size());
  const auto served = host.drain();
  ASSERT_EQ(served.size(), reference.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].id, reference[i].id);
    EXPECT_DOUBLE_EQ(served[i].output, reference[i].output) << i;
    EXPECT_DOUBLE_EQ(served[i].completion_time, reference[i].completion_time);
    EXPECT_EQ(served[i].resets_sent, reference[i].resets_sent);
  }
  const auto report = host.report();
  EXPECT_EQ(report.completed, workload.size());
  EXPECT_EQ(report.worker_restarts, 1u);
  // Only the victim's unacknowledged probes were lost, never more than
  // its window could hold.
  EXPECT_LE(report.resubmitted, config.window);
}

// -------------------------------------------------- persistent worker fleet

TEST(WorkerHost, RebindServesRepeatedCampaignsWithoutReforking) {
  SKIP_WITHOUT_TRANSPORT();
  // The fleet forks once; five rebind cycles each replay the same
  // deployment bit-identically, because a rebind restarts the id stream
  // and reseeds the root RNG — a rebound fleet IS a fresh host, minus the
  // forks.
  const auto net = transport_net(13);
  const auto workload = transport_workload(40, 21);

  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(10, 25, crash);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 99;

  std::vector<serve::RequestResult> expected;
  {
    WorkerHost fresh(net, config);
    fresh.set_timeline(timeline);
    ASSERT_EQ(fresh.submit_batch(workload), workload.size());
    expected = fresh.drain();
  }

  WorkerHost fleet(net, config);
  for (std::size_t campaign = 0; campaign < 5; ++campaign) {
    if (campaign > 0) fleet.rebind(net);
    fleet.set_timeline(timeline);
    ASSERT_EQ(fleet.submit_batch(workload), workload.size());
    const auto served = fleet.drain();
    ASSERT_EQ(served.size(), expected.size()) << "campaign " << campaign;
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].id, expected[i].id);
      EXPECT_DOUBLE_EQ(served[i].output, expected[i].output)
          << "campaign " << campaign << " request " << i;
      EXPECT_DOUBLE_EQ(served[i].completion_time,
                       expected[i].completion_time);
      EXPECT_EQ(served[i].resets_sent, expected[i].resets_sent);
    }
    // The per-deployment report restarted with the rebind.
    const auto report = fleet.report();
    EXPECT_EQ(report.completed, workload.size());
    EXPECT_EQ(report.rebinds, campaign);
  }
  // The whole point: five campaigns, one fork per worker, zero respawns.
  EXPECT_EQ(fleet.total_spawns(), 2u);
  EXPECT_EQ(fleet.rebinds(), 4u);
  EXPECT_EQ(fleet.alive_workers(), 2u);
}

TEST(WorkerHost, RebindSwapsTheNetworkOnLiveWorkers) {
  SKIP_WITHOUT_TRANSPORT();
  // Rebinding moves the fleet to a different network (and cut) entirely;
  // results match a host constructed fresh on that network, and no new
  // processes fork.
  const auto net_a = transport_net(13);
  Rng rng(31);
  const auto net_b = nn::NetworkBuilder(3)
                         .activation(nn::ActivationKind::kTanh01, 0.8)
                         .hidden(9)
                         .hidden(4)
                         .init(nn::InitKind::kUniform, 0.4)
                         .build(rng);
  const auto workload = transport_workload(24, 61);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 5;

  std::vector<serve::RequestResult> expected_b;
  {
    TransportConfig config_b = config;
    config_b.straggler_cut = {3, 0};
    config_b.seed = 11;
    WorkerHost fresh(net_b, config_b);
    ASSERT_EQ(fresh.submit_batch(workload), workload.size());
    expected_b = fresh.drain();
  }

  WorkerHost fleet(net_a, config);
  ASSERT_EQ(fleet.submit_batch(workload), workload.size());
  (void)fleet.drain();  // a first campaign on net A

  RebindOptions options;
  options.seed = 11;
  options.straggler_cut = std::vector<std::size_t>{3, 0};
  fleet.rebind(net_b, std::move(options));
  ASSERT_EQ(fleet.submit_batch(workload), workload.size());
  const auto served = fleet.drain();
  ASSERT_EQ(served.size(), expected_b.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_DOUBLE_EQ(served[i].output, expected_b[i].output) << i;
    EXPECT_DOUBLE_EQ(served[i].completion_time,
                     expected_b[i].completion_time);
    EXPECT_EQ(served[i].resets_sent, expected_b[i].resets_sent);
  }
  EXPECT_EQ(fleet.total_spawns(), 2u);
}

TEST(WorkerHost, UnboundFleetBindsOnFirstRebind) {
  SKIP_WITHOUT_TRANSPORT();
  // connect() once, bind later: a fleet forked before its network exists
  // serves bit-identically to one constructed bound.
  const auto net = transport_net(13);
  const auto workload = transport_workload(20, 71);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 42;

  std::vector<serve::RequestResult> expected;
  {
    WorkerHost bound(net, config);
    ASSERT_EQ(bound.submit_batch(workload), workload.size());
    expected = bound.drain();
  }

  WorkerHost fleet(config);  // forks unbound
  EXPECT_FALSE(fleet.bound());
  fleet.rebind(net);
  EXPECT_TRUE(fleet.bound());
  ASSERT_EQ(fleet.submit_batch(workload), workload.size());
  const auto served = fleet.drain();
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_DOUBLE_EQ(served[i].output, expected[i].output) << i;
  }
  EXPECT_EQ(fleet.total_spawns(), 2u);
  EXPECT_EQ(fleet.rebinds(), 1u);
}

TEST(WorkerHostDeathTest, ServingAnUnboundFleetIsAContractViolation) {
  SKIP_WITHOUT_TRANSPORT();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // "Rebind before you serve": submitting to a fleet that was never bound
  // aborts loudly instead of shipping probes to workers with no network.
  TransportConfig config;
  config.workers = 1;
  WorkerHost fleet(config);
  EXPECT_DEATH((void)fleet.submit({0.1, 0.2, 0.3}), "precondition");
}

TEST(WorkerHostDeathTest, ProbesWiderThanTheRingAbortAtBindAndRebind) {
  SKIP_WITHOUT_TRANSPORT();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 130 inputs span three request slots; a two-slot ring could never
  // hold one such probe, so the deployment is refused up front — at
  // construction and at rebind — instead of stalling at first dispatch.
  const auto wide = net_of_width(130);
  ASSERT_EQ(request_slots(wide.input_dim()), 3u);
  TransportConfig config;
  config.workers = 1;
  config.ring_capacity = 2;
  EXPECT_DEATH({ WorkerHost host(wide, config); }, "precondition");
  const auto narrow = transport_net();
  WorkerHost host(narrow, config);
  EXPECT_DEATH(host.rebind(wide), "precondition");
}

// ------------------------------------------------- shared-memory rings

TEST(WorkerHostRings, RingPathBitIdenticalToReplicaPoolAcrossWorkerCounts) {
  SKIP_WITHOUT_TRANSPORT();
  // The ring probe plane serves outputs, completion times, and reset
  // counts bit-identical to the in-process pool at 1, 2, and 8 workers,
  // under a mid-stream fault timeline and a straggler cut — for probes
  // that fit one slot and for wide ones spanning consecutive slots (65
  // inputs take two, 130 take three).
  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 1, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(20, 70, crash);
  ASSERT_EQ(request_slots(65), 2u);
  ASSERT_EQ(request_slots(130), 3u);
  for (const std::size_t width : {3u, 65u, 130u}) {
    const auto net = net_of_width(width);
    const auto workload = transport_workload(96, 43, width);
    TransportConfig config;
    config.latency = heavy_tail();
    config.straggler_cut = {2, 1};
    config.seed = 123;
    const auto expected = pool_reference(net, config, workload, &timeline);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      config.workers = workers;
      WorkerHost host(net, config);
      host.set_timeline(timeline);
      ASSERT_EQ(host.submit_batch(workload), workload.size());
      expect_bit_identical(host.drain(), expected, "rings vs pool");
      EXPECT_EQ(host.ring_slots_written(),
                workload.size() * request_slots(width))
          << "width " << width << " workers " << workers;
      EXPECT_EQ(host.report().completed, workload.size());
    }
  }
}

TEST(WorkerHostRings, SigkillMidSlotLeavesTornSlotThatIsRecovered) {
  SKIP_WITHOUT_TRANSPORT();
  // Crash-consistency of the seqlock commit protocol: a worker SIGKILLed
  // between begin_seq and commit_seq leaves a detectably torn slot. The
  // host counts the tear (transport.ring_torn_recovered), resubmits the
  // probe like any unacknowledged one, and the delivered stream stays
  // bit-identical to the in-process pool — zero divergence, for a
  // one-slot probe and for a three-slot wide one.
  for (const std::size_t width : {3u, 130u}) {
    const auto net = net_of_width(width);
    const auto workload = transport_workload(64, 21, width);
    TransportConfig config;
    config.workers = 2;
    config.latency = heavy_tail();
    config.seed = 7;
    const auto expected = pool_reference(net, config, workload);
    config.debug_tear_result_at = 10;  // tear mid-stream
    WorkerHost host(net, config);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    expect_bit_identical(host.drain(), expected, "torn-slot recovery");
    EXPECT_EQ(host.ring_torn_recovered(), 1u) << "width " << width;
    EXPECT_GE(host.resubmitted(), 1u);  // the torn probe re-ran elsewhere
    EXPECT_GE(host.restarts(), 1u);     // the dead worker rejoined
    EXPECT_EQ(host.report().completed, workload.size());
  }
}

TEST(WorkerHostRings, RebindOnRingsServesRepeatedCampaignsBitIdentically) {
  SKIP_WITHOUT_TRANSPORT();
  // The persistent-fleet contract holds on the rings: each rebind resets
  // the rings' logical stream, and every campaign on the warm fleet is
  // bit-identical to a fresh host — with zero extra forks.
  const auto net = transport_net(11);
  const auto workload = transport_workload(48, 17);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 29;
  WorkerHost host(net, config);
  const auto expected = serve_through(net, config, workload);

  for (int campaign = 0; campaign < 3; ++campaign) {
    host.rebind(net);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    const auto served = host.drain();
    expect_bit_identical(served, expected, "rebound campaign");
    EXPECT_EQ(host.ring_slots_written(), workload.size());
  }
  EXPECT_EQ(host.total_spawns(), config.workers);  // rebinds never re-fork
}

TEST(WorkerHostRings, TinyRingCapacitiesWrapAroundBitIdentically) {
  SKIP_WITHOUT_TRANSPORT();
  // Wraparound torture: at a few slots per ring the cursors lap dozens of
  // times and both sides hit the full/empty park paths constantly; the
  // seqlock commit words must keep every lap unambiguous. The wide
  // probes' capacities make probes straddle the wrap: two-slot probes in
  // 3 or 5 slots, three-slot probes in 4 or 5 slots.
  struct Shape {
    std::size_t width;
    std::vector<std::size_t> capacities;
  };
  for (const Shape& shape : {Shape{3, {2, 3, 4}}, Shape{65, {3, 5}},
                             Shape{130, {4, 5}}}) {
    const auto net = net_of_width(shape.width);
    const auto workload = transport_workload(96, 43, shape.width);
    TransportConfig config;
    config.latency = heavy_tail();
    config.seed = 123;
    const auto expected = pool_reference(net, config, workload);
    for (const std::size_t capacity : shape.capacities) {
      for (const std::size_t workers : {1u, 2u}) {
        config.workers = workers;
        config.ring_capacity = capacity;
        WorkerHost host(net, config);
        ASSERT_EQ(host.submit_batch(workload), workload.size());
        expect_bit_identical(host.drain(), expected, "tiny-capacity rings");
        EXPECT_EQ(host.ring_slots_written(),
                  workload.size() * request_slots(shape.width))
            << "width " << shape.width << " capacity " << capacity
            << " workers " << workers;
      }
    }
  }
}

TEST(WorkerHostRings, ScriptedSigkillOnRingsMatchesReplicaPool) {
  SKIP_WITHOUT_TRANSPORT();
  // The scripted crash machinery rides on the rings: a SIGKILL window
  // mid-replay moves requests between processes, and the result stream
  // never diverges from the in-process pool.
  const auto net = transport_net(9);
  const auto workload = transport_workload(96, 31);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 41;
  const auto expected = pool_reference(net, config, workload);

  WorkerHost host(net, config);
  host.set_crash_script({{0, 24, 72}});
  ASSERT_EQ(host.submit_batch(workload), workload.size());
  expect_bit_identical(host.drain(), expected, "scripted kill vs pool");
  EXPECT_GE(host.restarts(), 1u);
  EXPECT_EQ(host.report().completed, workload.size());
}

TEST(WorkerHostRings, DoorbellCountersCountBothDirectionsOfAPark) {
  SKIP_WITHOUT_TRANSPORT();
  // The doorbell counters tell the truth: a worker idle long enough parks
  // on its empty request ring; a probe submitted while it is SIGSTOPped
  // owes it one doorbell byte, the host's spin runs dry and it parks too
  // (a sleep wakeup), and once a side thread SIGCONTs the worker its
  // result comes back with one byte the other way.
  const auto net = transport_net(13);
  const auto workload = transport_workload(2, 21);
  TransportConfig config;
  config.workers = 1;
  config.latency = heavy_tail();
  config.seed = 17;
  const auto expected = pool_reference(net, config, workload);

  WorkerHost host(net, config);
  ASSERT_TRUE(host.submit(workload[0]));
  std::vector<serve::RequestResult> served{host.wait()};
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // it parks
  const std::size_t doorbells = host.ring_doorbells();
  const std::size_t sleeps = host.ring_sleep_wakeups();
  const int pid = host.worker_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);
  ASSERT_TRUE(host.submit(workload[1]));
  std::thread resume([pid] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(pid, SIGCONT);
  });
  served.push_back(host.wait());
  resume.join();

  expect_bit_identical(served, expected, "doorbell round trip");
  EXPECT_GE(host.ring_sleep_wakeups(), sleeps + 1);
  EXPECT_GE(host.ring_doorbells(), doorbells + 2);  // one byte each way
}

TEST(WorkerHostRings, KillRespawnWindowsLeaveNoResidue) {
  SKIP_WITHOUT_TRANSPORT();
  // Endurance at CI size, after Sardi et al.'s reoccurring catastrophic
  // failures: 250 scripted kill/respawn windows alternate between the two
  // workers of one fleet. Every respawn reuses the worker's ring mapping
  // and a fresh socketpair, so the process must hold as many descriptors
  // after window 250 as after window 50 and no more mappings — and the
  // results stay bit-identical to the pool.
  if (!std::filesystem::is_directory("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd on this platform";
  }
  const auto count_fds = [] {
    std::size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  const auto count_maps = [] {
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);) ++n;
    return n;
  };

  constexpr std::size_t kWindows = 250;
  // Requests per window: worker k % 2 dies at id 4k + 1 and is back at
  // 4k + 3, so each checkpoint (a drained multiple of the period) finds
  // both workers alive and the next window not yet fired.
  constexpr std::size_t kPeriod = 4;
  const auto net = transport_net(13);
  const auto workload = transport_workload(kWindows * kPeriod, 23);
  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 61;
  const auto expected = pool_reference(net, config, workload);

  WorkerHost host(net, config);
  std::vector<CrashWindow> script;
  for (std::size_t k = 0; k < kWindows; ++k) {
    script.push_back({k % 2, k * kPeriod + 1, k * kPeriod + 3});
  }
  host.set_crash_script(script);
  // Fifty windows per drain, so every drain allocates alike and only a
  // leak can move the counts after the first checkpoint.
  std::vector<serve::RequestResult> served;
  served.reserve(workload.size());
  std::size_t fds_at_50 = 0;
  std::size_t maps_at_50 = 0;
  for (std::size_t upto = 50; upto <= kWindows; upto += 50) {
    const std::span<const std::vector<double>> chunk{
        workload.data() + served.size(), 50 * kPeriod};
    ASSERT_EQ(host.submit_batch(chunk), chunk.size());
    for (auto& result : host.drain()) served.push_back(result);
    EXPECT_EQ(host.restarts(), upto);
    if (upto == 50) {
      fds_at_50 = count_fds();
      maps_at_50 = count_maps();
    }
  }
  EXPECT_EQ(count_fds(), fds_at_50);
  EXPECT_LE(count_maps(), maps_at_50);
  EXPECT_EQ(host.restarts(), kWindows);
  expect_bit_identical(served, expected, "kill/respawn endurance");
}

TEST(WorkerHostRings, ClosedLoopBatchesNeverStall) {
  SKIP_WITHOUT_TRANSPORT();
  // Regression for a lost wakeup in the worker's idle path: a probe
  // committed after the worker's ring burst found the ring empty sent it
  // into the blocking socket read without publishing its waiting flag, so
  // the host never rang the doorbell and both sides waited for good.
  // Thousands of closed-loop batches cross that window many times. A side
  // thread SIGKILLs the workers whenever one batch overruns its deadline;
  // the host's EOF recovery then resubmits and the batch completes, so a
  // stall is counted instead of hanging the test.
  Rng net_rng(8);
  const auto net = nn::NetworkBuilder(8)
                       .activation(nn::ActivationKind::kSigmoid, 1.0)
                       .hidden(16)
                       .hidden(16)
                       .init(nn::InitKind::kUniform, 0.5)
                       .build(net_rng);
  Rng input_rng(16);
  std::vector<std::vector<double>> workload(512);
  for (auto& x : workload) {
    x.resize(8);
    for (double& v : x) v = input_rng.uniform();
  }

  TransportConfig config;
  config.workers = 2;
  config.window = 256;
  WorkerHost host(net, config);

  constexpr int kBatches = 3000;
  constexpr auto kBatchDeadline = std::chrono::seconds(5);
  std::atomic<int> batches_done{0};
  std::atomic<bool> stop{false};
  std::atomic<int> stalls{0};
  std::thread deadline([&] {
    int seen = -1;
    auto since = std::chrono::steady_clock::now();
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const int done = batches_done.load();
      const auto now = std::chrono::steady_clock::now();
      if (done != seen) {
        seen = done;
        since = now;
      } else if (now - since > kBatchDeadline) {
        stalls.fetch_add(1);
        for (std::size_t w = 0; w < config.workers; ++w) {
          host.force_kill_worker(w);
        }
        since = now;
      }
    }
  });
  bool complete = true;
  for (int b = 0; b < kBatches && complete; ++b) {
    complete = host.submit_batch(workload) == workload.size() &&
               host.drain().size() == workload.size();
    batches_done.fetch_add(1);
  }
  stop.store(true);
  deadline.join();
  EXPECT_TRUE(complete);
  EXPECT_EQ(batches_done.load(), kBatches);
  EXPECT_EQ(stalls.load(), 0);
}

// ------------------------------------------------------- TransportBackend

TEST(TransportBackend, SerialPathMatchesServeBackend) {
  SKIP_WITHOUT_TRANSPORT();
  const auto net = transport_net();
  const std::vector<double> x{0.3, 0.8, 0.1};
  fault::FaultPlan plan;
  plan.convention = theory::CapacityConvention::kTransmittedValueBound;
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                  {2, 1, fault::NeuronFaultKind::kByzantine, 0.9}};

  exec::ServeBackend serve(net);
  exec::TransportBackend transport(net);
  // Same probe sequence on both serial paths: install, probe, clear,
  // probe. The request streams advance in lockstep, so every evaluation
  // must agree bit for bit.
  for (exec::EvalBackend* backend :
       std::vector<exec::EvalBackend*>{&serve, &transport}) {
    backend->install(plan);
  }
  EXPECT_DOUBLE_EQ(transport.evaluate(x).output, serve.evaluate(x).output);
  serve.clear();
  transport.clear();
  EXPECT_DOUBLE_EQ(transport.evaluate(x).output, serve.evaluate(x).output);
}

TEST(TransportBackend, RunTrialsBitIdenticalToServeBackend) {
  SKIP_WITHOUT_TRANSPORT();
  const auto net = transport_net(7);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomCrash;
  config.trials = 12;
  config.probes_per_trial = 6;
  config.seed = 77;
  const std::vector<std::size_t> counts{1, 1};
  const auto trials = fault::make_campaign_trials(net, counts, config);

  exec::ServeBackendOptions serve_options;
  serve_options.replicas = 2;
  serve_options.latency = heavy_tail();
  serve_options.straggler_cut = {2, 1};
  exec::ServeBackend serve(net, serve_options);

  exec::TransportBackendOptions transport_options;
  transport_options.workers = 2;
  transport_options.latency = heavy_tail();
  transport_options.straggler_cut = {2, 1};
  exec::TransportBackend transport(net, transport_options);

  const auto on_serve = serve.run_trials(trials);
  const auto on_transport = transport.run_trials(trials);
  ASSERT_EQ(on_serve.size(), on_transport.size());
  for (std::size_t t = 0; t < on_serve.size(); ++t) {
    ASSERT_EQ(on_serve[t].probes.size(), on_transport[t].probes.size());
    for (std::size_t i = 0; i < on_serve[t].probes.size(); ++i) {
      EXPECT_DOUBLE_EQ(on_transport[t].probes[i].output,
                       on_serve[t].probes[i].output);
      EXPECT_DOUBLE_EQ(on_transport[t].probes[i].completion_time,
                       on_serve[t].probes[i].completion_time);
      EXPECT_EQ(on_transport[t].probes[i].resets_sent,
                on_serve[t].probes[i].resets_sent);
    }
    EXPECT_DOUBLE_EQ(on_transport[t].worst_error, on_serve[t].worst_error);
  }
}

TEST(TransportBackend, CrossCheckPinsBitEquivalenceWithSimulator) {
  SKIP_WITHOUT_TRANSPORT();
  // The campaign-scale acceptance bar: one trial stream replayed on the
  // in-process simulator and over real IPC diverges by exactly zero under
  // the transmitted-value convention.
  const auto net = transport_net(5);
  for (const auto attack : {fault::AttackKind::kRandomCrash,
                            fault::AttackKind::kRandomByzantine,
                            fault::AttackKind::kRandomSynapseByzantine}) {
    fault::CampaignConfig config;
    config.attack = attack;
    config.trials = 20;
    config.probes_per_trial = 8;
    config.capacity = 1.0;
    config.convention = theory::CapacityConvention::kTransmittedValueBound;
    config.seed = 31;
    std::vector<std::size_t> counts(net.layer_count(), 1);
    if (attack == fault::AttackKind::kRandomSynapseByzantine) {
      counts.push_back(1);
    }
    theory::FepOptions fep;
    fep.mode = attack == fault::AttackKind::kRandomCrash
                   ? theory::FailureMode::kCrash
                   : theory::FailureMode::kByzantine;

    exec::SimulatorBackend simulator(net);
    exec::TransportBackendOptions options;
    options.workers = 3;
    exec::TransportBackend transport(net, options);
    const auto check = fault::cross_check_campaign(net, counts, config, fep,
                                                   transport, simulator);
    EXPECT_EQ(check.max_divergence, 0.0)
        << "attack " << static_cast<int>(attack) << " diverged at trial "
        << check.divergent_trial << " probe " << check.divergent_probe;
    EXPECT_EQ(check.first.observed_max, check.second.observed_max);
  }
}

TEST(TransportBackend, RepeatedCampaignsReuseOneFleet) {
  SKIP_WITHOUT_TRANSPORT();
  // The acceptance bar for amortisation: five consecutive run_campaign
  // calls on ONE TransportBackend fork each worker exactly once (no crash
  // script, so no respawns), and every campaign is bit-identical to the
  // serve backend running the same trial stream.
  const auto net = transport_net(7);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomCrash;
  config.trials = 8;
  config.probes_per_trial = 4;
  config.seed = 77;
  const std::vector<std::size_t> counts{1, 1};
  theory::FepOptions fep;
  fep.mode = theory::FailureMode::kCrash;

  exec::ServeBackendOptions serve_options;
  serve_options.replicas = 2;
  serve_options.latency = heavy_tail();
  exec::ServeBackend serve(net, serve_options);

  exec::TransportBackendOptions transport_options;
  transport_options.workers = 2;
  transport_options.latency = heavy_tail();
  exec::TransportBackend transport(net, transport_options);
  EXPECT_EQ(transport.runtime(), nullptr);  // nothing forked yet

  for (std::size_t campaign = 0; campaign < 5; ++campaign) {
    const auto expected = fault::run_campaign(net, counts, config, fep, serve);
    const auto actual =
        fault::run_campaign(net, counts, config, fep, transport);
    EXPECT_EQ(actual.observed_max, expected.observed_max)
        << "campaign " << campaign;
    ASSERT_NE(transport.runtime(), nullptr);
    EXPECT_EQ(transport.runtime()->rebinds(), campaign);
    EXPECT_EQ(transport.runtime()->report().completed,
              config.trials * config.probes_per_trial);
  }
  // Five campaigns, two forks, total — the fleet never re-forked.
  EXPECT_EQ(transport.runtime()->total_spawns(), 2u);
  EXPECT_EQ(transport.runtime()->rebinds(), 4u);
}

TEST(TransportBackend, CrossCheckHoldsWithSigkillMidWindow) {
  SKIP_WITHOUT_TRANSPORT();
  // Transport↔Simulator bit-equality at the default window with a real
  // SIGKILL landing mid-window — and the worker_restarts / resubmitted
  // counters show the kill really happened and probes really moved.
  const auto net = transport_net(5);
  fault::CampaignConfig config;
  config.attack = fault::AttackKind::kRandomByzantine;
  config.trials = 16;
  config.probes_per_trial = 8;
  config.capacity = 1.0;
  config.convention = theory::CapacityConvention::kTransmittedValueBound;
  config.seed = 31;
  const std::vector<std::size_t> counts(net.layer_count(), 1);
  theory::FepOptions fep;
  fep.mode = theory::FailureMode::kByzantine;

  exec::SimulatorBackend simulator(net);
  exec::TransportBackendOptions options;
  options.workers = 2;
  // The kill lands at request id 20 — inside the dispatched window — and
  // recovers at 64.
  options.crash_script = {{0, 20, 64}};
  exec::TransportBackend transport(net, options);
  const auto check = fault::cross_check_campaign(net, counts, config, fep,
                                                 transport, simulator);
  EXPECT_EQ(check.max_divergence, 0.0)
      << "diverged at trial " << check.divergent_trial << " probe "
      << check.divergent_probe;
  EXPECT_EQ(check.first.observed_max, check.second.observed_max);
  // Exactly one scripted kill, its unacknowledged probes resubmitted,
  // everything completed.
  const auto& report = transport.runtime()->report();
  EXPECT_EQ(report.worker_restarts, 1u);
  EXPECT_LE(report.resubmitted, TransportConfig{}.window);
  EXPECT_EQ(report.completed, config.trials * config.probes_per_trial);
}

TEST(TransportBackend, TimelineCampaignWithRealKillsMatchesSimulator) {
  SKIP_WITHOUT_TRANSPORT();
  // Recurring catastrophic failures, one layer lower: the logical crash
  // windows also SIGKILL worker processes (ids are trial-major probe
  // indices), and the campaign still replays the simulator bit for bit on
  // 1, 2, and 8 workers — deaths move requests, never results.
  const auto net = transport_net(9);
  serve::FaultTimeline timeline;
  fault::FaultPlan burst;
  burst.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0},
                   {1, 6, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(6, 12, burst);
  fault::FaultPlan late;
  late.neurons = {{2, 1, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(20, serve::FaultTimeline::kForever, late);

  fault::TimelineCampaignConfig config;
  config.trials = 28;
  config.probes_per_trial = 4;
  config.seed = 17;

  exec::SimulatorBackend simulator(net);
  const auto expected =
      fault::run_timeline_campaign(net, timeline, config, simulator);
  ASSERT_EQ(expected.per_trial_error.size(), config.trials);
  EXPECT_GT(expected.faulty_trials, 0u);

  const auto probes = static_cast<std::uint64_t>(config.probes_per_trial);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    exec::TransportBackendOptions options;
    options.workers = workers;
    // Each logical crash window kills a real worker process at its start
    // request id and recovers it at its end request id.
    options.crash_script = {{0, 6 * probes, 12 * probes},
                            {workers > 1 ? 1u : 0u, 20 * probes, 24 * probes}};
    exec::TransportBackend transport(net, options);
    const auto actual =
        fault::run_timeline_campaign(net, timeline, config, transport);
    ASSERT_EQ(actual.per_trial_error.size(), config.trials);
    for (std::size_t t = 0; t < config.trials; ++t) {
      EXPECT_EQ(actual.per_trial_error[t], expected.per_trial_error[t])
          << "trial " << t << " on " << workers << " workers";
    }
    EXPECT_EQ(actual.faulty_trials, expected.faulty_trials);
    EXPECT_EQ(transport.runtime()->report().worker_restarts, 2u)
        << workers << " workers";
    EXPECT_EQ(transport.runtime()->report().completed,
              config.trials * config.probes_per_trial);
  }
}

// ------------------------------------------------ continuous monitoring

TEST(Monitoring, RebindResetsTheRegistryForPerDeploymentDeltas) {
  SKIP_WITHOUT_TRANSPORT();
  // The metric contract across deployments on one fleet: rebind() resets
  // every counter to zero (per-deployment deltas) while the registry
  // OBJECT survives — so a Snapshotter source pointer registered before
  // the rebind stays valid and simply reports the reset.
  const auto net_a = transport_net(13);
  const auto net_b = transport_net(14);
  const auto workload = transport_workload(24, 21);

  TransportConfig config;
  config.workers = 2;
  config.seed = 99;
  WorkerHost host(net_a, config);
  const obs::MetricsRegistry* registry = &host.metrics();

  ASSERT_EQ(host.submit_batch(workload), workload.size());
  const auto first = host.drain();
  std::int64_t busiest_before = 0;
  for (const auto& row : registry->snapshot().counters) {
    busiest_before = std::max(busiest_before, row.value);
  }
  EXPECT_GT(busiest_before, 0);  // deployment A left real counts

  host.rebind(net_b);
  EXPECT_EQ(registry, &host.metrics());  // same registry object
  for (const auto& row : registry->snapshot().counters) {
    EXPECT_EQ(row.value, 0) << row.name << " survived the rebind";
  }
  for (const auto& row : registry->snapshot().histograms) {
    EXPECT_EQ(row.count, 0u) << row.name << " survived the rebind";
  }

  // Deployment B re-registers the same names and counts from zero.
  ASSERT_EQ(host.submit_batch(workload), workload.size());
  const auto second = host.drain();
  EXPECT_EQ(second.size(), workload.size());
  std::int64_t busiest_after = 0;
  for (const auto& row : registry->snapshot().counters) {
    busiest_after = std::max(busiest_after, row.value);
  }
  EXPECT_GT(busiest_after, 0);
}

TEST(Monitoring, FleetBitIdenticalAcrossWorkerCountsWithMonitoringAttached) {
  SKIP_WITHOUT_TRANSPORT();
  // The acceptance pin: snapshotter + watchdog + postmortems attached must
  // not perturb a single output bit at 1, 2, or 8 workers — monitoring
  // reads mirrors and registries, never an Rng.
  const auto net = transport_net(13);
  const auto workload = transport_workload(48, 21);
  serve::FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(12, 30, crash);

  TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 4242;
  std::vector<serve::RequestResult> reference;
  {
    WorkerHost host(net, config);
    host.set_timeline(timeline);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    reference = host.drain();
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    TransportConfig monitored = config;
    monitored.workers = workers;
    monitored.postmortem_dir = "test_transport_monitored_postmortems";
    WorkerHost host(net, monitored);
    host.set_timeline(timeline);
    host.set_crash_script({{0, 12, 30}});  // a real SIGKILL mid-window too

    obs::WatchdogConfig watch_config;
    watch_config.poll_seconds = 0.002;
    watch_config.stall_seconds = 30.0;  // healthy run: never fires
    obs::Watchdog watchdog(watch_config);
    const auto channels = attach_fleet_watchdog(host, watchdog);
    EXPECT_EQ(channels.workers, workers);

    obs::SnapshotterConfig snap_config;
    snap_config.path = "test_transport_monitored_stream.jsonl";
    snap_config.interval_seconds = 0.005;
    obs::Snapshotter snapshotter(snap_config);
    snapshotter.add_source("host", &host.metrics());
    snapshotter.add_source("watchdog", &watchdog.metrics());
    ASSERT_TRUE(snapshotter.start());
    watchdog.start();

    ASSERT_EQ(host.submit_batch(workload), workload.size());
    const auto served = host.drain();
    watchdog.stop();
    snapshotter.stop();

    ASSERT_EQ(served.size(), reference.size()) << workers << " workers";
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].id, reference[i].id);
      EXPECT_DOUBLE_EQ(served[i].output, reference[i].output)
          << "request " << i << " on " << workers << " workers";
      EXPECT_DOUBLE_EQ(served[i].completion_time,
                       reference[i].completion_time);
      EXPECT_EQ(served[i].resets_sent, reference[i].resets_sent);
    }
    EXPECT_GE(snapshotter.windows(), 1u);
    ASSERT_NE(host.postmortems(), nullptr);
    EXPECT_GE(host.postmortems()->written(), 1u);  // the scripted kill
    std::remove(snap_config.path.c_str());
  }
}

TEST(Monitoring, WatchdogForceRespawnsAWedgedWorkerBitIdentically) {
  SKIP_WITHOUT_TRANSPORT();
  // The full escalation ladder against a real wedge: SIGSTOP freezes a
  // worker that owes results, the watchdog's respawn stage SIGKILLs it,
  // and the host's normal EOF recovery resubmits + respawns — with the
  // drain's outputs bit-identical to an undisturbed run (the pin that
  // makes forced respawn safe to automate).
  const auto net = transport_net(13);
  const auto workload = transport_workload(64, 33);

  TransportConfig config;
  config.workers = 2;
  config.seed = 7;
  std::vector<serve::RequestResult> expected;
  {
    WorkerHost host(net, config);
    ASSERT_EQ(host.submit_batch(workload), workload.size());
    expected = host.drain();
  }

  WorkerHost host(net, config);
  obs::WatchdogConfig watch_config;
  watch_config.poll_seconds = 0.005;
  watch_config.stall_seconds = 0.10;
  watch_config.respawn_seconds = 0.30;
  obs::Watchdog watchdog(watch_config);
  const auto channels = attach_fleet_watchdog(host, watchdog);
  watchdog.start();

  // Wedge worker 0 BEFORE any traffic: small workloads compute into the
  // rings faster than any detector can race them, but a stopped worker
  // can never serve what the host is about to dispatch to it — its
  // host-side inflight goes nonzero (the channel reads active) while its
  // harvest odometer stays frozen, the shape only the watchdog resolves.
  const std::size_t wedged = 0;
  const int victim = host.worker_pid(wedged);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGSTOP), 0);

  ASSERT_EQ(host.submit_batch(workload), workload.size());
  std::vector<serve::RequestResult> served;
  serve::RequestResult result;
  const auto forced_respawns = [&watchdog] {
    for (const auto& row : watchdog.metrics().snapshot().counters) {
      if (row.name == "obs.watchdog.forced_respawns") return row.value;
    }
    return std::int64_t{0};
  };
  // Keep pumping: the watchdog must walk the ladder and force the
  // respawn within its deadline (generous wall bound for loaded CI).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (forced_respawns() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (host.poll(result)) served.push_back(std::move(result));
  }
  ASSERT_GE(forced_respawns(), 1) << "watchdog never fired";

  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (served.size() < workload.size() &&
         std::chrono::steady_clock::now() < drain_deadline) {
    if (host.poll(result)) served.push_back(std::move(result));
  }
  // The episode closes on the first poll that sees the post-respawn
  // odometer move; give the monitor thread a chance to observe it.
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (watchdog.health(channels.first_worker + wedged) !=
             obs::ChannelHealth::kHealthy &&
         std::chrono::steady_clock::now() < heal_deadline) {
    if (host.poll(result)) served.push_back(std::move(result));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  watchdog.stop();
  EXPECT_GE(host.restarts(), 1u);  // the forced SIGKILL healed normally

  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].id, expected[i].id);
    EXPECT_DOUBLE_EQ(served[i].output, expected[i].output) << "request " << i;
  }
  EXPECT_EQ(watchdog.health(channels.first_worker + wedged),
            obs::ChannelHealth::kHealthy);  // episode closed by recovery
  std::int64_t respawns = 0;
  for (const auto& row : watchdog.metrics().snapshot().counters) {
    if (row.name == "obs.watchdog.forced_respawns") respawns = row.value;
  }
  EXPECT_GE(respawns, 1);
}

TEST(Monitoring, WorkerDeathLeavesALintableBoundedPostmortem) {
  SKIP_WITHOUT_TRANSPORT();
  // Every worker death — scripted or surprise — must leave a bounded
  // forensic artifact that strict-lints and carries the schema.
  const auto net = transport_net(13);
  const auto workload = transport_workload(40, 21);

  TransportConfig config;
  config.workers = 2;
  config.seed = 31;
  config.postmortem_dir = "test_transport_postmortems";
  config.postmortem_events = 16;
  WorkerHost host(net, config);
  host.set_crash_script({{1, 10, 20}});
  ASSERT_EQ(host.submit_batch(workload), workload.size());
  const auto served = host.drain();
  EXPECT_EQ(served.size(), workload.size());

  ASSERT_NE(host.postmortems(), nullptr);
  ASSERT_GE(host.postmortems()->written(), 1u);
  EXPECT_EQ(host.postmortems()->write_errors(), 0u);

  std::ifstream in("test_transport_postmortems/postmortem-0-w1.json");
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const obs::JsonLintResult lint = obs::json_lint(text);
  EXPECT_TRUE(lint.ok) << lint.error;
  EXPECT_NE(text.find("\"kind\":\"postmortem\""), std::string::npos);
  EXPECT_NE(text.find("\"worker\":1"), std::string::npos);
  EXPECT_NE(text.find("\"expected\":true"), std::string::npos);
  EXPECT_NE(text.find("\"inflight_ids\""), std::string::npos);
  EXPECT_NE(text.find("\"recent_events\""), std::string::npos);
  EXPECT_NE(text.find("\"counter_deltas_since_flush\""), std::string::npos);
  // Bounded: the host notes at most postmortem_events recent events.
  std::size_t events = 0;
  for (std::size_t at = text.find("\"ts_ns\":"); at != std::string::npos;
       at = text.find("\"ts_ns\":", at + 1)) {
    ++events;
  }
  EXPECT_LE(events, config.postmortem_events);
}

}  // namespace
}  // namespace wnf::transport
