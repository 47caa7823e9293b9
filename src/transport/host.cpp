#include "transport/host.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WNF_TRANSPORT_POSIX 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <thread>

#include "dist/boosting.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "transport/codec.hpp"
#include "transport/worker.hpp"
#include "util/contract.hpp"

namespace wnf::transport {

#if !defined(WNF_TRANSPORT_POSIX)

// Stub that builds everywhere: construction aborts, available() says why.
bool WorkerHost::available() { return false; }
WorkerHost::WorkerHost(const nn::FeedForwardNetwork& net, TransportConfig)
    : net_(&net) {
  WNF_EXPECTS(false && "transport needs POSIX fork/socketpair");
}
WorkerHost::WorkerHost(TransportConfig) {
  WNF_EXPECTS(false && "transport needs POSIX fork/socketpair");
}
WorkerHost::~WorkerHost() = default;
void WorkerHost::rebind(const nn::FeedForwardNetwork&, RebindOptions) {}
void WorkerHost::set_timeline(serve::FaultTimeline) {}
void WorkerHost::set_crash_script(std::vector<CrashWindow>) {}
bool WorkerHost::submit(std::vector<double>) { return false; }
std::size_t WorkerHost::submit_batch(std::span<const std::vector<double>>) {
  return 0;
}
bool WorkerHost::poll(serve::RequestResult&) { return false; }
serve::RequestResult WorkerHost::wait() { return {}; }
std::vector<serve::RequestResult> WorkerHost::drain() { return {}; }
serve::ServeReport WorkerHost::report() const { return {}; }
std::size_t WorkerHost::alive_workers() const { return 0; }
int WorkerHost::worker_pid(std::size_t) const { return -1; }
std::uint64_t WorkerHost::health_progress(std::size_t) const { return 0; }
bool WorkerHost::health_active(std::size_t) const { return false; }
int WorkerHost::health_pid(std::size_t) const { return -1; }
std::uint64_t WorkerHost::health_delivered() const { return 0; }
std::uint64_t WorkerHost::health_outstanding() const { return 0; }
void WorkerHost::force_kill_worker(std::size_t) {}
void WorkerHost::publish_health() {}
void WorkerHost::note_worker_event(std::size_t, obs::TraceName,
                                   std::uint64_t, std::uint64_t) {}
void WorkerHost::write_postmortem(std::size_t, bool, std::uint64_t, int) {}

#else

namespace {

constexpr int kPollTimeoutMs = 1000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  WNF_ASSERT(flags >= 0);
  WNF_ASSERT(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

/// A write to a dead worker must surface as EPIPE for the healing path,
/// never as a process-killing SIGPIPE. Linux suppresses per send() via
/// MSG_NOSIGNAL; platforms without it (macOS) suppress per socket here.
void suppress_sigpipe(int fd) {
#if defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

/// Insert `id` into the ascending resubmission order exactly once.
void insert_sorted(std::vector<std::uint64_t>& sorted, std::uint64_t id) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), id);
  WNF_ASSERT(it == sorted.end() || *it != id);
  sorted.insert(it, id);
}

SegmentsMsg make_segments(const serve::FaultTimeline& timeline) {
  SegmentsMsg segments;
  segments.plans.reserve(timeline.segment_count());
  for (std::size_t s = 0; s < timeline.segment_count(); ++s) {
    segments.plans.push_back(timeline.segment_plan(s));
  }
  return segments;
}

}  // namespace

bool WorkerHost::available() { return transport_available(); }

WorkerHost::WorkerHost(TransportConfig config)
    : config_(std::move(config)), root_(config_.seed) {
  WNF_EXPECTS(available());
  WNF_EXPECTS(config_.queue_capacity > 0);
  WNF_EXPECTS(config_.window > 0);
  WNF_EXPECTS(config_.ring_capacity > 0);
  if (config_.workers == 0) {
    config_.workers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The report and accessors derive from the registry; the hot paths
  // cache the metric pointers once (registrations outlive the host).
  shed_count_ = &metrics_.counter("transport.shed");
  resets_count_ = &metrics_.counter("transport.resets_sent");
  resubmitted_count_ = &metrics_.counter("transport.resubmitted");
  restarts_count_ = &metrics_.counter("transport.worker_restarts");
  ring_slots_count_ = &metrics_.counter("transport.ring_slots_written");
  ring_doorbells_count_ = &metrics_.counter("transport.ring_doorbells");
  ring_torn_count_ = &metrics_.counter("transport.ring_torn_recovered");
  ring_spin_count_ = &metrics_.counter("transport.ring_spin_wakeups");
  ring_sleep_count_ = &metrics_.counter("transport.ring_sleep_wakeups");
  completion_hist_ = &metrics_.histogram("transport.completion_time");
  queue_depth_hist_ = &metrics_.histogram("transport.queue_depth");
  trace_tag_ = obs::next_span_id() << 32;
  workers_.resize(config_.workers);
  health_ = std::make_unique<WorkerHealth[]>(workers_.size());
  if (!config_.postmortem_dir.empty()) {
    WNF_EXPECTS(config_.postmortem_events > 0);
    postmortem_ = std::make_unique<obs::PostmortemWriter>(
        obs::PostmortemConfig{config_.postmortem_dir});
  }
  set_crash_script(config_.crash_script);
  // The mappings must exist before the first fork so every child inherits
  // them.
  for (auto& worker : workers_) {
    worker.rings = WorkerRings::create(config_.ring_capacity);
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) spawn(w);
  publish_health();
}

WorkerHost::WorkerHost(const nn::FeedForwardNetwork& net,
                       TransportConfig config)
    : WorkerHost(std::move(config)) {
  net_ = &net;
  // A probe that needs more slots than the ring holds could never be
  // dispatched.
  WNF_EXPECTS(request_slots(net_->input_dim()) <= config_.ring_capacity);
  if (!config_.straggler_cut.empty()) {
    WNF_EXPECTS(config_.straggler_cut.size() == net_->layer_count());
    wait_counts_ = dist::wait_counts_from_cut(*net_, config_.straggler_cut);
  }
  // The workers forked unbound (spawn() ships nothing without a network);
  // bind them now that there is one.
  refresh_control_frames();
  for (auto& worker : workers_) {
    enqueue_bind(worker);
    enqueue_segments(worker);
  }
}

void WorkerHost::rebind(const nn::FeedForwardNetwork& net,
                        RebindOptions options) {
  // No traffic may straddle the swap: everything accepted was delivered.
  WNF_EXPECTS(outstanding_ == 0);
  WNF_ASSERT(queue_.empty() && inflight_.empty() && resubmit_.empty());
  WNF_EXPECTS(request_slots(net.input_dim()) <= config_.ring_capacity);
  net_ = &net;
  if (options.seed) config_.seed = *options.seed;
  if (options.straggler_cut) {
    config_.straggler_cut = std::move(*options.straggler_cut);
  }
  if (options.queue_capacity) {
    WNF_EXPECTS(*options.queue_capacity > 0);
    config_.queue_capacity = *options.queue_capacity;
  }
  wait_counts_.clear();
  if (!config_.straggler_cut.empty()) {
    WNF_EXPECTS(config_.straggler_cut.size() == net_->layer_count());
    wait_counts_ = dist::wait_counts_from_cut(*net_, config_.straggler_cut);
  }
  // Fresh logical deployment: ids restart at 0 on a reseeded root stream,
  // with no timeline carried over and the config's crash script re-armed.
  timeline_ = serve::FaultTimeline{};
  set_crash_script(config_.crash_script);
  root_.reseed(config_.seed);
  next_id_ = 0;
  completions_.reset(0);
  deaths_without_progress_ = 0;
  // Live workers swap state atomically via one kRebind frame, built from
  // the cached control payloads (the network serializes once per content
  // change, not once per worker per rebind). A worker whose applied
  // deployment already matches skips the send entirely — a repeated
  // campaign on identical state ships zero rebind bytes — except when
  // tracing is on, because the kRebind frame is also the worker's
  // telemetry flush boundary. Workers a previous crash script left dead
  // rejoin the fleet (spawn() binds them to the new network directly).
  refresh_control_frames();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = workers_[w];
    if (worker.alive) {
      if (worker.control_gen != control_gen_ || obs::enabled()) {
        worker.outbox.insert(worker.outbox.end(), rebind_frame_.begin(),
                             rebind_frame_.end());
        ++worker.epoch;
        worker.control_gen = control_gen_;
      }
    } else {
      worker.blocked_until = 0;
      spawn(w);
    }
  }
  // The report starts over with the deployment (rebinds_ is lifetime):
  // every per-deployment metric zeroes in place, cached pointers intact.
  completion_.clear();
  metrics_.reset();
  wall_seconds_ = 0.0;
  ++rebinds_;
  trace_tag_ = obs::next_span_id() << 32;
  obs::instant(obs::TraceName::kRebindEvent, rebinds_);
  if (postmortem_) {
    // The registry just reset; stale flush baselines would make every
    // postmortem delta negative for the rest of the deployment.
    for (auto& worker : workers_) worker.flush_base = metrics_.snapshot();
  }
  publish_health();
}

WorkerHost::~WorkerHost() {
  for (auto& worker : workers_) {
    if (!worker.alive) continue;
    // Best-effort clean shutdown; closing the socket is itself a shutdown
    // signal (the worker exits on EOF), so a full socket buffer is fine.
    const auto frame = Codec::encode(MessageType::kShutdown, {});
    (void)!::send(worker.fd, frame.data(), frame.size(),
#ifdef MSG_NOSIGNAL
                  MSG_NOSIGNAL
#else
                  0
#endif
    );
    // A tracing worker answers the Shutdown with its final telemetry
    // flush; harvest it before the close, or those events die with the
    // socket. With tracing off the worker sends nothing and the drain
    // returns on its EOF immediately.
    if (obs::enabled()) drain_final_telemetry(worker);
    ::close(worker.fd);
    // Bounded reap: a wedged worker (e.g. SIGSTOPped by an operator or a
    // watchdog test) never sees the EOF, so a plain blocking waitpid would
    // hang the destructor forever. Give it a grace window, then make the
    // death real.
    int status = 0;
    const auto reap_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    bool reaped = false;
    while (std::chrono::steady_clock::now() < reap_deadline) {
      const pid_t done = ::waitpid(worker.pid, &status, WNOHANG);
      if (done == worker.pid || (done < 0 && errno != EINTR)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!reaped) {
      ::kill(worker.pid, SIGKILL);
      ::waitpid(worker.pid, &status, 0);
    }
  }
}

bool WorkerHost::ingest_telemetry(const WorkerState& worker,
                                  const Frame& frame) {
  const auto telemetry = Codec::decode_telemetry(frame.payload);
  if (!telemetry) return false;
  obs::TraceLog::instance().ingest_remote(
      static_cast<std::uint32_t>(worker.pid), telemetry->tid,
      worker.clock_offset_ns, std::move(telemetry->events),
      telemetry->dropped);
  return true;
}

void WorkerHost::drain_final_telemetry(WorkerState& worker) {
  // Bounded: a worker that never sends EOF (wedged on something other
  // than our Shutdown) must not hang the destructor.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint8_t chunk[4096];
  Frame frame;
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd entry{};
    entry.fd = worker.fd;
    entry.events = POLLIN;
    const int ready = ::poll(&entry, 1, 100);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::read(worker.fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return;
    }
    if (n == 0) break;  // EOF: the worker flushed and exited
    worker.inbox.insert(worker.inbox.end(), chunk, chunk + n);
    ParseStatus status;
    while (true) {
      (void)strip_doorbells(worker.inbox);  // late ring doorbells
      status = Codec::try_parse(worker.inbox, frame);
      if (status != ParseStatus::kFrame) break;
      // Only telemetry is expected this late; anything else is dropped —
      // the deployment's results were all delivered before destruction.
      if (frame.type == MessageType::kTelemetry) {
        (void)ingest_telemetry(worker, frame);
      }
    }
    if (status == ParseStatus::kMalformed ||
        status == ParseStatus::kWrongVersion) {
      return;
    }
  }
}

void WorkerHost::spawn(std::size_t w) {
  int fds[2];
  WNF_ASSERT(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  // The ring mapping outlives worker processes: re-initialise it (cursors,
  // sequence words, park flags) before the fork so the child inherits a
  // quiescent pair. The previous occupant — if any — is already reaped, so
  // nobody else is touching the memory.
  workers_[w].rings->reset();
  const pid_t pid = ::fork();
  WNF_ASSERT(pid >= 0);
  if (pid == 0) {
    // Child: keep only our worker end. Closing the siblings' host-end fds
    // matters — a worker holding them would keep a sibling's socket open
    // after the host closed it, masking the EOF that signals shutdown.
    ::close(fds[0]);
    for (const auto& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    ::_exit(worker_main(fds[1], static_cast<std::uint32_t>(w),
                        *workers_[w].rings));
  }
  ::close(fds[1]);
  set_nonblocking(fds[0]);
  suppress_sigpipe(fds[0]);
  WorkerState& worker = workers_[w];
  worker.pid = pid;
  worker.fd = fds[0];
  worker.alive = true;
  worker.hello_seen = false;
  worker.blocked_until = 0;
  worker.inbox.clear();
  worker.outbox.clear();
  WNF_ASSERT(worker.inflight.empty());
  worker.epoch = 0;
  worker.control_gen = 0;
  ++worker.spawns;
  ++total_spawns_;
  if (postmortem_) {
    // A fresh process starts a fresh flush window for its postmortem.
    worker.flush_base = metrics_.snapshot();
    note_worker_event(w, obs::TraceName::kRespawn, w,
                      static_cast<std::uint64_t>(pid));
  }
  // An unbound fleet forks and greets but ships nothing; the first
  // rebind() supplies the network.
  if (net_ != nullptr) {
    enqueue_bind(worker);
    enqueue_segments(worker);
  }
}

BindMsg WorkerHost::make_bind() const {
  BindMsg bind;
  std::ostringstream text;
  nn::save_network(*net_, text);
  bind.network_text = text.str();
  bind.sim = config_.sim;
  bind.latency = config_.latency;
  bind.wait_counts.assign(wait_counts_.begin(), wait_counts_.end());
  return bind;
}

void WorkerHost::refresh_control_frames(bool refresh_bind) {
  WNF_ASSERT(net_ != nullptr);
  bool changed = false;
  // Serializing the network (make_bind) dominates this refresh, so
  // timeline-only changes (set_timeline) skip it: the bind payload depends
  // only on the bound network and the construction-time config, neither of
  // which a timeline swap can touch.
  if (refresh_bind) {
    auto payload = Codec::encode_bind(make_bind());
    if (payload != bind_payload_) {
      bind_frame_ = Codec::encode(MessageType::kBind, payload);
      bind_payload_ = std::move(payload);
      changed = true;
    }
  }
  {
    auto payload = Codec::encode_segments(make_segments(timeline_));
    if (payload != segments_payload_) {
      segments_frame_ = Codec::encode(MessageType::kSegments, payload);
      segments_payload_ = std::move(payload);
      changed = true;
    }
  }
  if (changed) {
    // The rebind payload is its two constituents, each length-prefixed
    // (codec.cpp encode_rebind); rebuild it from the cached payload bytes
    // so an unchanged network never re-serializes.
    std::vector<std::uint8_t> payload;
    payload.reserve(8 + bind_payload_.size() + segments_payload_.size());
    const auto put_u32 = [&payload](std::uint32_t v) {
      payload.push_back(static_cast<std::uint8_t>(v));
      payload.push_back(static_cast<std::uint8_t>(v >> 8));
      payload.push_back(static_cast<std::uint8_t>(v >> 16));
      payload.push_back(static_cast<std::uint8_t>(v >> 24));
    };
    put_u32(static_cast<std::uint32_t>(bind_payload_.size()));
    payload.insert(payload.end(), bind_payload_.begin(), bind_payload_.end());
    put_u32(static_cast<std::uint32_t>(segments_payload_.size()));
    payload.insert(payload.end(), segments_payload_.begin(),
                   segments_payload_.end());
    rebind_frame_ = Codec::encode(MessageType::kRebind, std::move(payload));
    ++control_gen_;
  }
}

void WorkerHost::enqueue_bind(WorkerState& worker) {
  WNF_ASSERT(!bind_frame_.empty());
  worker.outbox.insert(worker.outbox.end(), bind_frame_.begin(),
                       bind_frame_.end());
  ++worker.epoch;
}

void WorkerHost::enqueue_segments(WorkerState& worker) {
  WNF_ASSERT(!segments_frame_.empty());
  worker.outbox.insert(worker.outbox.end(), segments_frame_.begin(),
                       segments_frame_.end());
  ++worker.epoch;
  // Segments always ship last in a bind/segments pair, so receiving them
  // means the worker's applied state matches the current generation.
  worker.control_gen = control_gen_;
}

void WorkerHost::set_timeline(serve::FaultTimeline timeline) {
  WNF_EXPECTS(bound());
  // Workers resolve segments per request; swapping the segment table while
  // requests are in flight would race their installs.
  WNF_EXPECTS(outstanding_ == 0);
  timeline_ = std::move(timeline);
  timeline_.finalize(*net_);
  refresh_control_frames(/*refresh_bind=*/false);
  for (auto& worker : workers_) {
    // A timeline identical to what the worker already applied (common in
    // repeated campaigns) ships nothing.
    if (worker.alive && worker.control_gen != control_gen_) {
      enqueue_segments(worker);
    }
  }
}

void WorkerHost::set_crash_script(std::vector<CrashWindow> script) {
  script_.clear();
  script_.reserve(script.size());
  for (auto& window : script) {
    WNF_EXPECTS(window.worker < workers_.size());
    WNF_EXPECTS(window.start < window.end);
    script_.push_back({window, false});
  }
}

bool WorkerHost::submit(std::vector<double> x) {
  WNF_EXPECTS(bound());
  WNF_EXPECTS(x.size() == net_->input_dim());
  if (outstanding_ >= config_.queue_capacity) {
    shed_count_->increment();
    obs::instant(obs::TraceName::kShed, next_id_);
    return false;
  }
  if (outstanding_++ == 0) {
    busy_start_ = std::chrono::steady_clock::now();
  }
  queue_.push_back({next_id_++, std::move(x), root_.split()});
  if (obs::enabled()) {
    const std::uint64_t id = next_id_ - 1;
    obs::async_begin(obs::TraceName::kRequest, trace_tag_ + id);
    obs::counter(obs::TraceName::kQueueDepth, outstanding_);
    // Sampling histograms ride the tracing switch: the report's counters
    // are always exact, but per-request depth/latency sampling must cost
    // the disabled hot path nothing.
    queue_depth_hist_->observe(static_cast<double>(outstanding_));
  }
  return true;
}

std::size_t WorkerHost::submit_batch(
    std::span<const std::vector<double>> batch) {
  std::size_t accepted = 0;
  for (const auto& x : batch) {
    if (!submit(x)) {
      // shed the rest of the batch
      shed_count_->add(
          static_cast<std::int64_t>(batch.size() - accepted - 1));
      break;
    }
    ++accepted;
  }
  return accepted;
}

std::size_t WorkerHost::alive_workers() const {
  std::size_t alive = 0;
  for (const auto& worker : workers_) alive += worker.alive ? 1 : 0;
  return alive;
}

int WorkerHost::worker_pid(std::size_t worker) const {
  WNF_EXPECTS(worker < workers_.size());
  return workers_[worker].alive ? workers_[worker].pid : -1;
}

void WorkerHost::publish_health() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerState& worker = workers_[w];
    health_[w].progress.store(worker.harvested_total + worker.spawns,
                              std::memory_order_relaxed);
    health_[w].inflight.store(worker.inflight.size(),
                              std::memory_order_relaxed);
    health_[w].pid.store(worker.alive ? worker.pid : -1,
                         std::memory_order_relaxed);
    health_[w].alive.store(worker.alive, std::memory_order_relaxed);
  }
  health_delivered_.store(delivered_total_, std::memory_order_relaxed);
  health_outstanding_.store(outstanding_, std::memory_order_relaxed);
}

std::uint64_t WorkerHost::health_progress(std::size_t w) const {
  WNF_EXPECTS(w < config_.workers);
  return health_[w].progress.load(std::memory_order_relaxed);
}

bool WorkerHost::health_active(std::size_t w) const {
  WNF_EXPECTS(w < config_.workers);
  return health_[w].alive.load(std::memory_order_relaxed) &&
         health_[w].inflight.load(std::memory_order_relaxed) > 0;
}

int WorkerHost::health_pid(std::size_t w) const {
  WNF_EXPECTS(w < config_.workers);
  return health_[w].pid.load(std::memory_order_relaxed);
}

std::uint64_t WorkerHost::health_delivered() const {
  return health_delivered_.load(std::memory_order_relaxed);
}

std::uint64_t WorkerHost::health_outstanding() const {
  return health_outstanding_.load(std::memory_order_relaxed);
}

void WorkerHost::force_kill_worker(std::size_t w) {
  WNF_EXPECTS(w < config_.workers);
  // The mirror pid, not workers_[w].pid: this runs on the watchdog
  // thread. A stale pid is harmless — the process is already reaped, the
  // kill hits nothing (pids are not recycled fast enough to matter within
  // a poll period), and the driver's own recovery already ran.
  const int pid = health_[w].pid.load(std::memory_order_relaxed);
  if (pid > 0) ::kill(pid, SIGKILL);
}

void WorkerHost::note_worker_event(std::size_t w, obs::TraceName name,
                                   std::uint64_t id, std::uint64_t value) {
  if (!postmortem_) return;
  WorkerState& worker = workers_[w];
  obs::TraceEvent event;
  event.ts_ns = obs::trace_clock_ns();
  event.id = id;
  event.value = value;
  event.name = name;
  event.kind = obs::EventKind::kInstant;
  worker.recent.push_back(event);
  while (worker.recent.size() > config_.postmortem_events) {
    worker.recent.pop_front();
  }
}

void WorkerHost::write_postmortem(std::size_t w, bool expected,
                                  std::uint64_t torn, int pid) {
  if (!postmortem_) return;
  const WorkerState& worker = workers_[w];
  obs::PostmortemRecord record;
  record.worker = w;
  record.pid = pid;
  record.expected = expected;
  record.torn_slots = torn;
  record.deployment = rebinds_;
  record.inflight_ids.assign(worker.inflight.begin(), worker.inflight.end());
  record.recent.assign(worker.recent.begin(), worker.recent.end());
  record.counter_deltas =
      obs::postmortem_counter_deltas(metrics_.snapshot(), worker.flush_base);
  (void)postmortem_->write(record);
}

void WorkerHost::worker_died(std::size_t w, bool expected) {
  WorkerState& worker = workers_[w];
  if (!worker.alive) return;
  const int dead_pid = worker.pid;
  worker.alive = false;
  ::close(worker.fd);
  worker.fd = -1;
  // The process may still be running (a protocol violation demotes a live
  // worker); make the death real before the blocking reap.
  ::kill(worker.pid, SIGKILL);
  int status = 0;
  ::waitpid(worker.pid, &status, 0);
  worker.pid = -1;
  worker.inbox.clear();
  worker.outbox.clear();
  // Everything the worker *committed* before dying is a valid answer —
  // harvest it (nobody races us; the process is reaped) so only genuinely
  // unanswered probes resubmit. A started-but-uncommitted write at the
  // head is the torn slot: counted here, recovered below by the same
  // resubmission path as any unacknowledged probe.
  std::uint64_t torn = 0;
  std::size_t harvested = 0;
  (void)harvest_result_ring(w, harvested);
  if (worker.rings->result_head_torn()) {
    torn = 1;
    ring_torn_count_->increment();
  }
  // Forensics first: the record wants the in-flight ids this death is
  // about to hand back to the dispatcher.
  write_postmortem(w, expected, torn, dead_pid);
  // The dead worker's outstanding requests go back to the dispatcher; the
  // per-request Rng state makes the re-run bit-identical wherever it lands.
  resubmitted_count_->add(static_cast<std::int64_t>(worker.inflight.size()));
  for (const std::uint64_t id : worker.inflight) {
    // The wire span this probe opened at dispatch ends with the worker
    // (value 1 marks an aborted hop); the resubmission opens a fresh one.
    obs::async_end(obs::TraceName::kWire, trace_tag_ + id, 1);
    obs::instant(obs::TraceName::kResubmit, id, w);
    insert_sorted(resubmit_, id);
  }
  worker.inflight.clear();
  // A spontaneous death (no scripted window) respawns immediately; a
  // scripted kill stays down until its recovery boundary. Healing must
  // make progress: a fleet dying repeatedly without serving a single
  // result is a deterministic worker failure (the in-process pool would
  // have aborted in the driver), not something respawning can fix.
  if (!expected) {
    ++deaths_without_progress_;
    WNF_ASSERT(deaths_without_progress_ <= 2 * workers_.size() + 8 &&
               "worker processes keep dying without serving any request");
    respawn(w);
  }
}

void WorkerHost::kill_worker(std::size_t w, std::uint64_t recover_at) {
  WorkerState& worker = workers_[w];
  if (worker.alive) {
    obs::instant(obs::TraceName::kSigkill, w,
                 static_cast<std::uint64_t>(worker.pid));
    note_worker_event(w, obs::TraceName::kSigkill, w,
                      static_cast<std::uint64_t>(worker.pid));
    ::kill(worker.pid, SIGKILL);
    worker_died(w, /*expected=*/true);
  }
  worker.blocked_until = std::max(worker.blocked_until, recover_at);
}

void WorkerHost::respawn(std::size_t w) {
  WNF_ASSERT(!workers_[w].alive);
  workers_[w].blocked_until = 0;
  spawn(w);
  restarts_count_->increment();
  obs::instant(obs::TraceName::kRespawn, w,
               static_cast<std::uint64_t>(workers_[w].pid));
}

void WorkerHost::run_crash_script(std::uint64_t frontier_id) {
  for (auto& entry : script_) {
    if (entry.fired) continue;
    if (frontier_id >= entry.window.end) {
      entry.fired = true;  // the stream already passed this window
      continue;
    }
    if (frontier_id >= entry.window.start) {
      entry.fired = true;
      kill_worker(entry.window.worker, entry.window.end);
    }
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = workers_[w];
    if (!worker.alive && worker.blocked_until != 0 &&
        frontier_id >= worker.blocked_until) {
      respawn(w);  // the recovery boundary
    }
  }
}

bool WorkerHost::flush_outbox(std::size_t w) {
  WorkerState& worker = workers_[w];
  while (worker.alive && !worker.outbox.empty()) {
    const ssize_t n = ::send(worker.fd, worker.outbox.data(),
                             worker.outbox.size(),
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      worker.outbox.erase(worker.outbox.begin(),
                          worker.outbox.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    worker_died(w, /*expected=*/false);  // EPIPE/ECONNRESET: found a corpse
    return false;
  }
  return worker.alive;
}

void WorkerHost::ring_doorbell(std::size_t w) {
  workers_[w].outbox.push_back(kDoorbellByte);
  ring_doorbells_count_->increment();
}

void WorkerHost::dispatch() {
  // One probe at a time into the least-loaded live worker's request ring,
  // resubmissions first (they carry the oldest ids). Assignment affects
  // only where a request runs, never its result, so this load-balancing
  // needs no determinism of its own. No frame, no checksum, no syscall —
  // the slots are written in place and published by the head's commit
  // word; a doorbell byte rides the control socket only when the worker
  // had parked.
  const std::size_t width = net_->input_dim();
  const std::size_t slots = request_slots(width);
  while (!resubmit_.empty() || !queue_.empty()) {
    std::size_t target = workers_.size();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WorkerState& worker = workers_[w];
      if (!worker.alive) continue;
      if (worker.inflight.size() >= config_.window) continue;
      if (!worker.rings->request_free(width)) continue;
      if (target == workers_.size() ||
          worker.inflight.size() < workers_[target].inflight.size()) {
        target = w;
      }
    }
    if (target == workers_.size()) break;  // every window or ring full

    std::uint64_t id = 0;
    const PendingRequest* request = nullptr;
    if (!resubmit_.empty()) {
      id = resubmit_.front();
      resubmit_.erase(resubmit_.begin());
      request = &inflight_.at(id);
    } else {
      // A fresh request advances the frontier: fire any script window it
      // crosses before the probe leaves the host (possibly killing the
      // picked target, in which case re-target).
      run_crash_script(queue_.front().id);
      if (!workers_[target].alive) continue;
      PendingRequest pending = std::move(queue_.front());
      queue_.pop_front();
      id = pending.id;
      request = &inflight_.emplace(id, std::move(pending)).first->second;
    }

    WorkerState& worker = workers_[target];
    RequestSlot* slot = worker.rings->try_begin_request(width);
    WNF_ASSERT(slot != nullptr);  // request_free() held above
    slot->id = id;
    slot->epoch = worker.epoch;
    slot->segment = static_cast<std::uint32_t>(timeline_.segment_at(id));
    slot->flags = 0;
    if (id == config_.debug_tear_result_at && !tear_fired_) {
      slot->flags = kSlotFlagTearForTest;
      tear_fired_ = true;  // the resubmitted probe must ship clean
    }
    slot->rng_state = request->rng.state();
    worker.rings->commit_request(request->x);
    worker.inflight.push_back(id);
    worker.ring_dispatched = true;
    ring_slots_count_->add(static_cast<std::int64_t>(slots));
    if (obs::enabled()) {
      obs::async_begin(obs::TraceName::kWire, trace_tag_ + id, target);
      obs::counter(obs::TraceName::kInflightFrames, worker.inflight.size());
    }
  }
  // One doorbell check per worker per dispatch call, not per slot: the
  // waiting-flag exchange is a seq_cst hit on a line the worker also
  // touches, and a parked worker needs exactly one byte no matter how
  // many slots this call committed (the tail publishes are all visible by
  // the time it wakes).
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = workers_[w];
    if (!worker.ring_dispatched) continue;
    worker.ring_dispatched = false;
    note_worker_event(w, obs::TraceName::kDispatch,
                      worker.inflight.empty() ? 0 : worker.inflight.back(),
                      worker.inflight.size());
    if (worker.rings->take_request_doorbell()) ring_doorbell(w);
  }
}

void WorkerHost::service_worker(std::size_t w, bool readable, bool writable) {
  WorkerState& worker = workers_[w];
  if (!worker.alive) return;  // died while handling an earlier fd
  if (writable) {
    if (!flush_outbox(w)) return;
  }
  if (!readable) return;

  bool dead = false;
  std::uint8_t chunk[4096];
  while (true) {
    const ssize_t n = ::read(worker.fd, chunk, sizeof(chunk));
    if (n > 0) {
      worker.inbox.insert(worker.inbox.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    dead = true;  // EOF or hard error: the process is gone
    break;
  }

  Frame frame;
  ParseStatus status;
  while (true) {
    // Doorbell bytes (ring wakeups) interleave with control frames,
    // always at frame boundaries; their arrival is the wakeup — the data
    // they announce is harvested from the rings.
    const std::size_t bells = strip_doorbells(worker.inbox);
    if (bells > 0) {
      ring_doorbells_count_->add(static_cast<std::int64_t>(bells));
    }
    if ((status = Codec::try_parse(worker.inbox, frame)) !=
        ParseStatus::kFrame) {
      break;
    }
    if (frame.type == MessageType::kHello) {
      const auto hello = Codec::decode_hello(frame.payload);
      if (!hello || hello->worker_index != w || worker.hello_seen) {
        dead = true;  // garbage greeting: treat the peer as crashed
        break;
      }
      worker.hello_seen = true;
      // The worker stamped its steady clock into the greeting; the offset
      // maps its telemetry timestamps onto the host timeline. The socket
      // hop inflates it by the frame's flight time — fine for tracing.
      worker.clock_offset_ns = static_cast<std::int64_t>(obs::trace_clock_ns()) -
                               static_cast<std::int64_t>(hello->clock_ns);
      continue;
    }
    if (frame.type != MessageType::kTelemetry || !worker.hello_seen) {
      dead = true;  // protocol violation (anything but telemetry after the
      break;        // handshake): stop trusting the stream
    }
    // Workers flush their trace rings at deployment boundaries (before a
    // rebind applies, on shutdown).
    if (!ingest_telemetry(worker, frame)) {
      dead = true;
      break;
    }
    if (postmortem_) {
      // A flush resets the "deltas since last flush" postmortem window.
      worker.flush_base = metrics_.snapshot();
      note_worker_event(w, obs::TraceName::kWorkerFlush, 0,
                        frame.payload.size());
    }
  }
  if (status == ParseStatus::kMalformed ||
      status == ParseStatus::kWrongVersion) {
    dead = true;
  }
  if (dead) worker_died(w, /*expected=*/false);
}

bool WorkerHost::harvest_result_ring(std::size_t w, std::size_t& harvested) {
  WorkerState& worker = workers_[w];
  const std::size_t before = harvested;
  ResultSlot* slot = nullptr;
  while ((slot = worker.rings->peek_result()) != nullptr) {
    // An answer the host never asked this worker for, or a probe the
    // worker says it failed, means the stream cannot be trusted.
    if (static_cast<ProbeStatus>(slot->status) != ProbeStatus::kOk) {
      return false;
    }
    const std::uint64_t id = slot->id;
    const auto request = inflight_.find(id);
    if (request == inflight_.end()) return false;
    // Workers serve slots in order, so the answered id is almost always
    // the oldest one dispatched; the scan only runs after a resubmission
    // shuffled the pipeline.
    if (!worker.inflight.empty() && worker.inflight.front() == id) {
      worker.inflight.pop_front();
    } else {
      const auto inflight =
          std::find(worker.inflight.begin(), worker.inflight.end(), id);
      if (inflight == worker.inflight.end()) return false;
      worker.inflight.erase(inflight);
    }
    inflight_.erase(request);
    obs::async_end(obs::TraceName::kWire, trace_tag_ + id);
    completions_.push({id, slot->output, slot->completion_time,
                       static_cast<std::size_t>(slot->resets_sent)});
    worker.rings->pop_result();
    deaths_without_progress_ = 0;
    ++worker.harvested_total;
    ++harvested;
  }
  if (harvested > before) {
    note_worker_event(w, obs::TraceName::kHarvest, worker.inflight.size(),
                      harvested - before);
  }
  return true;
}

std::size_t WorkerHost::harvest_rings() {
  std::size_t harvested = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = workers_[w];
    if (!worker.alive) continue;
    if (!harvest_result_ring(w, harvested)) {
      worker_died(w, /*expected=*/false);
      continue;
    }
    // Freed result slots may unblock a worker parked on a full result
    // ring; it owes exactly one doorbell per park.
    if (worker.rings->take_result_space_doorbell()) {
      ring_doorbell(w);
      flush_outbox(w);
    }
  }
  return harvested;
}

bool WorkerHost::spin_for_results() {
  SpinBackoff backoff;
  do {
    for (const auto& worker : workers_) {
      if (worker.alive && worker.rings->result_ready()) return true;
    }
  } while (backoff.spin());
  return false;
}

void WorkerHost::pump(bool block) {
  const std::uint64_t frontier =
      queue_.empty() ? next_id_ : queue_.front().id;
  run_crash_script(frontier);

  // The deployment must never deadlock: if work is pending and every
  // worker is dead (e.g. a one-worker host inside a crash window), revive
  // the one whose recovery is nearest and keep serving.
  const bool work_pending =
      !queue_.empty() || !inflight_.empty() || !resubmit_.empty();
  if (work_pending && alive_workers() == 0) {
    std::size_t best = workers_.size();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (best == workers_.size() ||
          workers_[w].blocked_until < workers_[best].blocked_until) {
        best = w;
      }
    }
    respawn(best);
  }

  dispatch();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].alive) flush_outbox(w);
  }
  const std::size_t harvested = harvest_rings();
  // Fresh health before any park below: a watchdog sampling while the
  // driver sleeps in poll() must see post-dispatch, post-harvest state.
  publish_health();

  // Poll the live workers; a death surfaces as EOF/HUP on its socket. The
  // socket is polled every pump — deaths, Hello, doorbells, and telemetry
  // frames live there.
  std::vector<pollfd> fds;
  std::vector<std::size_t> owners;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].alive) continue;
    pollfd entry{};
    entry.fd = workers_[w].fd;
    entry.events = POLLIN;
    if (!workers_[w].outbox.empty()) entry.events |= POLLOUT;
    fds.push_back(entry);
    owners.push_back(w);
  }
  if (fds.empty()) return;  // the caller's loop reruns the revival path

  // Ring waits are spin-then-sleep: a bounded spin across the result
  // rings first (results usually land within a probe's service time);
  // only when that runs dry does the host publish its waiting flags and
  // park in poll() for a worker's doorbell byte. The flag/recheck
  // handshake (seq_cst on both sides) makes the park race-free: either
  // the recheck sees the committed result, or the worker sees the flag
  // and rings.
  int timeout = 0;
  bool parked = false;
  if (block && harvested == 0) {
    if (spin_for_results()) {
      ring_spin_count_->increment();
    } else {
      bool raced = false;
      for (auto& worker : workers_) {
        if (!worker.alive) continue;
        worker.rings->publish_result_waiting();
        if (worker.rings->result_published()) raced = true;
      }
      if (raced) {
        for (auto& worker : workers_) {
          if (worker.alive) worker.rings->clear_result_waiting();
        }
      } else {
        timeout = kPollTimeoutMs;
        parked = true;
      }
    }
  }
  const int ready = ::poll(fds.data(), fds.size(), timeout);
  if (parked) {
    for (auto& worker : workers_) {
      if (worker.alive) worker.rings->clear_result_waiting();
    }
    ring_sleep_count_->increment();
  }
  if (ready < 0) {
    WNF_ASSERT(errno == EINTR);
    return;
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    service_worker(owners[i], (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0,
                   (fds[i].revents & POLLOUT) != 0);
  }
  harvest_rings();
  publish_health();
}

void WorkerHost::delivered(const serve::RequestResult& result) {
  completion_.add(result.completion_time);
  resets_count_->add(static_cast<std::int64_t>(result.resets_sent));
  if (obs::enabled()) {
    completion_hist_->observe(result.completion_time);
    obs::async_end(obs::TraceName::kRequest, trace_tag_ + result.id);
    obs::counter(obs::TraceName::kQueueDepth, outstanding_ - 1);
  }
  WNF_ASSERT(outstanding_ > 0);
  ++delivered_total_;
  if (--outstanding_ == 0) {
    // The pipeline just went idle: close the busy interval that opened at
    // the first submit into an idle pipeline.
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - busy_start_)
                         .count();
    // And disarm the watchdog: an idle fleet has no stall deadline, and
    // the driver may not pump again for a long time.
    publish_health();
  }
}

bool WorkerHost::poll(serve::RequestResult& out) {
  WNF_EXPECTS(bound());
  if (completions_.try_pop(out)) {
    delivered(out);
    return true;
  }
  if (outstanding_ == 0) return false;
  pump(/*block=*/false);
  if (completions_.try_pop(out)) {
    delivered(out);
    return true;
  }
  return false;
}

serve::RequestResult WorkerHost::wait() {
  WNF_EXPECTS(bound());
  WNF_EXPECTS(outstanding_ > 0);
  serve::RequestResult out;
  while (!completions_.try_pop(out)) pump(/*block=*/true);
  delivered(out);
  return out;
}

std::vector<serve::RequestResult> WorkerHost::drain() {
  WNF_EXPECTS(bound());
  std::vector<serve::RequestResult> results;
  results.reserve(outstanding_);
  while (outstanding_ > 0) results.push_back(wait());
  return results;
}

serve::ServeReport WorkerHost::report() const {
  serve::ServeReport report;
  const std::size_t shed = static_cast<std::size_t>(counter_value(shed_count_));
  report.rejected = shed;  // parity with ReplicaPool consumers
  report.shed = shed;
  report.replicas = workers_.size();
  serve::finalize_completion_stats(report, completion_, wall_seconds_);
  report.resets_sent = static_cast<std::size_t>(counter_value(resets_count_));
  report.resubmitted =
      static_cast<std::size_t>(counter_value(resubmitted_count_));
  report.worker_restarts =
      static_cast<std::size_t>(counter_value(restarts_count_));
  report.rebinds = rebinds_;
  return report;
}

#endif  // WNF_TRANSPORT_POSIX

}  // namespace wnf::transport
