#include "transport/worker.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WNF_TRANSPORT_POSIX 1
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <memory>
#include <span>
#include <sstream>

#include "dist/sim.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "transport/codec.hpp"
#include "transport/ring.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace wnf::transport {

#if !defined(WNF_TRANSPORT_POSIX)

bool transport_available() { return false; }

int worker_main(int, std::uint32_t, WorkerRings&) {
  WNF_EXPECTS(false && "transport workers need POSIX fork/socketpair");
  return 1;
}

#else

bool transport_available() { return true; }

namespace {

/// The worker's replica state, built from a kBind frame.
struct Replica {
  nn::FeedForwardNetwork net;
  std::unique_ptr<dist::NetworkSimulator> sim;
  dist::LatencyModel latency;
  std::vector<std::size_t> wait_counts;  ///< size L+1; empty = full waits
  std::vector<fault::FaultPlan> segments;
  std::size_t installed = ~std::size_t{0};  ///< segment currently applied
};

/// Blocking write of the whole frame (the worker end may block freely; the
/// nonblocking discipline lives in the host). False on EPIPE/host death.
bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Installs a decoded BindMsg as the replica state — shared by the
/// spawn-time kBind frame and the live-fleet kRebind frame, so binding and
/// rebinding cannot diverge.
bool apply_bind(const BindMsg& msg, Replica& replica) {
  std::istringstream text(msg.network_text);
  auto net = nn::load_network(text);
  if (!net) return false;
  if (!msg.wait_counts.empty() &&
      msg.wait_counts.size() != net->layer_count() + 1) {
    return false;
  }
  replica.net = std::move(*net);
  replica.sim =
      std::make_unique<dist::NetworkSimulator>(replica.net, msg.sim);
  replica.latency = msg.latency;
  replica.wait_counts.assign(msg.wait_counts.begin(),
                             msg.wait_counts.end());
  replica.segments.clear();
  replica.installed = ~std::size_t{0};
  return true;
}

bool handle_bind(const Frame& frame, Replica& replica) {
  const auto msg = Codec::decode_bind(frame.payload);
  if (!msg) return false;
  return apply_bind(*msg, replica);
}

bool handle_rebind(const Frame& frame, Replica& replica) {
  const auto msg = Codec::decode_rebind(frame.payload);
  if (!msg) return false;
  if (!apply_bind(msg->bind, replica)) return false;
  replica.segments = std::move(msg->segments.plans);
  replica.installed = ~std::size_t{0};
  return true;
}

/// Evaluates one ring probe on the bound replica. False when the probe
/// addresses a segment the binding does not have (the host never sends
/// such a probe, so this is a protocol violation and the worker exits).
bool evaluate_probe(const RequestSlot& req, std::span<const double> x,
                    Replica& replica, dist::SimResult& result) {
  const std::uint32_t segment = req.segment;
  if (segment >= replica.segments.size() &&
      !(segment == 0 && replica.segments.empty())) {
    return false;
  }
  // Same install-on-segment-change discipline as ReplicaPool::serve_run:
  // a run of requests in one segment pays one plan install.
  if (segment != replica.installed) {
    const fault::FaultPlan* plan =
        replica.segments.empty() ? nullptr : &replica.segments[segment];
    if (plan == nullptr || plan->empty()) {
      replica.sim->clear_faults();
    } else {
      replica.sim->apply_faults(*plan);
    }
    replica.installed = segment;
  }
  // The request's RNG stream is the host's split child, bit for bit.
  Rng request_rng;
  request_rng.set_state(req.rng_state);
  replica.sim->sample_latencies(replica.latency, request_rng);
  result = replica.wait_counts.empty()
               ? replica.sim->evaluate(x)
               : replica.sim->evaluate_boosted(
                     x, {replica.wait_counts.data(),
                         replica.wait_counts.size()});
  return true;
}

/// Ships the worker's trace ring as one Telemetry frame and
/// clears it. A no-op when tracing recorded nothing (disabled or compiled
/// out), so a quiet worker costs the wire nothing. Called at the
/// deployment boundaries — Shutdown and just before a Rebind applies — so
/// a SIGKILL loses exactly the events since the last boundary.
bool flush_telemetry(int fd) {
  auto [events, dropped] = obs::TraceLog::instance().drain_thread_ring();
  if (events.empty() && dropped == 0) return true;
  TelemetryMsg msg;
  msg.tid = 0;
  msg.dropped = dropped;
  msg.events = std::move(events);
  return send_all(fd, Codec::encode(MessageType::kTelemetry,
                                    Codec::encode_telemetry(msg)));
}

/// Outcome of one ring burst.
struct RingServe {
  std::size_t served = 0;
  bool violation = false;  ///< structurally invalid probe: exit 1
  bool host_gone = false;  ///< doorbell hit a closed socket: exit 0
};

/// Serves every committed probe the request ring holds (stopping when the
/// result ring has no space): evaluate straight out of the request slot
/// (a wide probe gathers into `scratch` first), write the outcome straight
/// into a result slot, publish it with the commit word, and pop every
/// request slot the probe spanned. A probe whose epoch is ahead of the
/// control frames applied so far is deferred — the bind/segments frame it
/// waits for is already in flight on the socket, and serving it early
/// would race the swap. One doorbell byte goes out at the end of the
/// burst, and only when the host had published itself parked: waking the
/// host per slot would hand the CPU back and forth once per probe, while a
/// parked host loses nothing by sleeping until the whole burst is
/// committed (the flag handshake is seq_cst, so a host parking mid-burst
/// either sees the new tail in its recheck or is caught by this exchange).
RingServe serve_ring(WorkerRings& rings, Replica& replica,
                     std::uint64_t applied_epoch, int fd,
                     std::vector<double>& scratch) {
  RingServe out;
  while (rings.result_free()) {
    RequestSlot* req = rings.peek_request();
    if (req == nullptr) break;
    if (req->epoch > applied_epoch) break;
    const obs::ScopedSpan span(obs::TraceName::kWorkerExecute, req->id);
    dist::SimResult result;
    if (!replica.sim || req->x_count != replica.net.input_dim() ||
        !evaluate_probe(*req, rings.request_input(*req, scratch), replica,
                        result)) {
      out.violation = true;
      return out;
    }
    ResultSlot* res = rings.try_begin_result();
    WNF_ASSERT(res != nullptr);  // result_free() held above
    if ((req->flags & kSlotFlagTearForTest) != 0) {
      // Crash-recovery test hook: die with the slot's begin_seq published
      // and a partial payload written but the commit word untouched — the
      // canonical torn slot the host must detect and resubmit around.
      res->id = req->id;
      ::kill(::getpid(), SIGKILL);
    }
    res->id = req->id;
    res->output = result.output;
    res->completion_time = result.completion_time;
    res->resets_sent = result.resets_sent;
    res->status = static_cast<std::uint8_t>(ProbeStatus::kOk);
    rings.commit_result();
    rings.pop_request();
    ++out.served;
  }
  if (out.served > 0 && rings.take_result_doorbell()) {
    if (!send_all(fd, {kDoorbellByte})) out.host_gone = true;
  }
  return out;
}

}  // namespace

int worker_main(int fd, std::uint32_t worker_index, WorkerRings& rings) {
#if defined(SO_NOSIGPIPE)
  // Platforms without MSG_NOSIGNAL (macOS): a frame sent to a dead host
  // must fail with EPIPE (clean exit 1), not SIGPIPE.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
  // Fork hygiene: this process inherited the host's trace rings (and its
  // thread-local ring pointer) across fork(). Drop them — this worker's
  // events belong in rings of its own, shipped back as Telemetry frames.
  obs::TraceLog::instance().reset();
  HelloMsg hello;
  hello.worker_index = worker_index;
  hello.pid = static_cast<std::uint32_t>(::getpid());
  hello.clock_ns = obs::trace_clock_ns();
  if (!send_all(fd, Codec::encode(MessageType::kHello,
                                  Codec::encode_hello(hello)))) {
    return 1;
  }

  Replica replica;
  std::vector<std::uint8_t> buffer;
  std::vector<double> scratch;  ///< gather buffer for wide probes
  // Control-plane frames applied so far; gates which ring probes may run
  // (a slot stamped with a later epoch waits for its control frame).
  std::uint64_t applied_epoch = 0;
  SpinBackoff backoff;
  std::uint8_t chunk[4096];
  while (true) {
    // Apply every complete control frame before serving more probes.
    // Doorbell bytes (ring wakeups) sit between frames; the wakeup already
    // happened, so they just strip.
    Frame frame;
    ParseStatus status;
    while (true) {
      (void)strip_doorbells(buffer);
      if ((status = Codec::try_parse(buffer, frame)) != ParseStatus::kFrame) {
        break;
      }
      switch (frame.type) {
        case MessageType::kBind:
          if (!handle_bind(frame, replica)) return 1;
          ++applied_epoch;
          break;
        case MessageType::kSegments: {
          auto msg = Codec::decode_segments(frame.payload);
          if (!msg) return 1;
          replica.segments = std::move(msg->plans);
          replica.installed = ~std::size_t{0};
          ++applied_epoch;
          break;
        }
        case MessageType::kRebind:
          // The old deployment's telemetry ships before the swap applies,
          // so the host attributes every event to the deployment that
          // produced it.
          if (!flush_telemetry(fd)) return 1;
          if (!handle_rebind(frame, replica)) return 1;
          ++applied_epoch;
          break;
        case MessageType::kShutdown:
          return flush_telemetry(fd) ? 0 : 1;
        default:
          return 1;  // kHello/kTelemetry never flow host -> worker
      }
    }
    if (status == ParseStatus::kMalformed ||
        status == ParseStatus::kWrongVersion) {
      return 1;
    }

    // Serve everything committed (and not epoch-gated), then peek the
    // socket once so a control frame pipelined behind ring traffic cannot
    // starve.
    const RingServe burst =
        serve_ring(rings, replica, applied_epoch, fd, scratch);
    if (burst.violation) return 1;
    if (burst.host_gone) return 0;
    if (burst.served > 0) {
      backoff.reset();
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer.insert(buffer.end(), chunk, chunk + n);
      } else if (n == 0) {
        return 0;  // host closed: treat like a shutdown
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return 1;
      }
      continue;
    }

    // Idle: spin-then-sleep. Spin a bounded budget re-checking the rings
    // (the outer loop re-runs serve_ring each round); once dry, publish
    // the waiting flag matching what we are starved of and park on the
    // socket — the host doorbells the transition. The publish/recheck
    // handshake is seq_cst against the peer's cursor publish, so the park
    // cannot miss a wakeup.
    if (backoff.spin()) continue;
    backoff.reset();
    if (rings.request_ready() && !rings.result_free()) {
      // Probes are waiting but the result ring is full: ask the host to
      // ring back once it harvests.
      rings.publish_result_space_waiting();
      if (rings.result_space_published()) {
        rings.clear_result_space_waiting();
        continue;
      }
    } else if (!rings.request_ready()) {
      rings.publish_request_waiting();
      if (rings.request_published()) {
        rings.clear_request_waiting();
        continue;
      }
    } else if (const RequestSlot* head = rings.peek_request();
               head != nullptr && head->epoch <= applied_epoch) {
      // A probe was committed after serve_ring found the ring empty:
      // serve it now. Parking here would publish no waiting flag, so
      // the host would never ring the doorbell.
      continue;
    }
    // else: the head probe is epoch-gated — its control frame is already
    // in flight on the socket, so the blocking read below is exactly the
    // right wait (no ring flag needed).

    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    rings.clear_request_waiting();
    rings.clear_result_space_waiting();
    if (n < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    if (n == 0) return 0;  // host closed: treat like a shutdown
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
}

#endif  // WNF_TRANSPORT_POSIX

}  // namespace wnf::transport
