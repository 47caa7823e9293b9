#include "serve/pool.hpp"

#include <algorithm>
#include <array>

#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace wnf::serve {

namespace {

/// Requests a worker claims per dispatch-queue lock. Chunking amortises
/// the lock the way wire batching amortises syscalls, and sets the largest
/// block a replica serves; small enough that work-stealing balance
/// survives heavy-tailed per-request latency draws.
constexpr std::size_t kGrabChunk = 8;

std::size_t resolve_replicas(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ReplicaPool::ReplicaPool(const nn::FeedForwardNetwork& net, ServeConfig config)
    : net_(&net), config_(std::move(config)), root_(config_.seed) {
  WNF_EXPECTS(config_.queue_capacity > 0);
  replicas_.resize(resolve_replicas(config_.replicas));
  bind(net);
  // The report derives from the registry; the hot paths cache the metric
  // pointers once (registrations outlive the pool).
  rejected_count_ = &metrics_.counter("serve.rejected");
  resets_count_ = &metrics_.counter("serve.resets_sent");
  completion_hist_ = &metrics_.histogram("serve.completion_time");
  queue_depth_hist_ = &metrics_.histogram("serve.queue_depth");
  trace_tag_ = obs::next_span_id() << 32;
  threads_.reserve(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    threads_.emplace_back([this, r] { worker_loop(r); });
  }
}

void ReplicaPool::bind(const nn::FeedForwardNetwork& net) {
  net_ = &net;
  for (auto& replica : replicas_) {
    replica = std::make_unique<Replica>(net, config_.sim);
  }
  wait_counts_.clear();
  if (!config_.straggler_cut.empty()) {
    WNF_EXPECTS(config_.straggler_cut.size() == net.layer_count());
    wait_counts_ = dist::wait_counts_from_cut(net, config_.straggler_cut);
  }
}

void ReplicaPool::rebind(const nn::FeedForwardNetwork& net) {
  // No traffic may straddle the swap. Every accepted request was delivered,
  // so every worker is parked on the empty dispatch queue and none holds a
  // replica: the simulators can be rebuilt under them.
  WNF_EXPECTS(outstanding_.load() == 0);
  bind(net);
  // Fresh logical deployment: ids restart at 0 on a reseeded root stream,
  // with no timeline carried over.
  timeline_ = FaultTimeline{};
  root_.reseed(config_.seed);
  next_id_ = 0;
  completions_.reset(0);
  // The report starts over with the deployment (rebinds_ is lifetime):
  // every metric zeroes in place, cached pointers intact.
  completion_.clear();
  metrics_.reset();
  wall_seconds_ = 0.0;
  ++rebinds_;
  trace_tag_ = obs::next_span_id() << 32;
  obs::instant(obs::TraceName::kRebindEvent, rebinds_);
}

ReplicaPool::~ReplicaPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    dispatch_.clear();  // abandoned requests are never delivered anyway
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ReplicaPool::set_timeline(FaultTimeline timeline) {
  WNF_EXPECTS(outstanding_.load() == 0);  // workers may hold stale segments
  timeline_ = std::move(timeline);
  timeline_.finalize(*net_);
  // Segment indices from the old timeline mean nothing under the new one;
  // force every replica to re-resolve on its next request. The pipeline is
  // idle, so no worker is reading its segment concurrently.
  for (auto& replica : replicas_) replica->segment = kNoSegment;
}

bool ReplicaPool::submit(std::vector<double> x) {
  WNF_EXPECTS(x.size() == net_->input_dim());
  if (outstanding_.load() >= config_.queue_capacity) {
    rejected_count_->increment();
    obs::instant(obs::TraceName::kShed, next_id_);
    return false;
  }
  if (outstanding_.fetch_add(1) == 0) {
    busy_start_ = std::chrono::steady_clock::now();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dispatch_.push_back({next_id_++, std::move(x), root_.split()});
  }
  work_cv_.notify_one();
  if (obs::enabled()) {
    const std::uint64_t id = next_id_ - 1;
    obs::async_begin(obs::TraceName::kRequest, trace_tag_ + id);
    obs::async_begin(obs::TraceName::kQueue, trace_tag_ + id);
    obs::counter(obs::TraceName::kQueueDepth, outstanding_.load());
    // Sampling histograms ride the tracing switch: the report's counters
    // are always exact, but per-request depth sampling must cost the
    // disabled hot path nothing.
    queue_depth_hist_->observe(static_cast<double>(outstanding_.load()));
  }
  return true;
}

std::size_t ReplicaPool::submit_batch(
    std::span<const std::vector<double>> batch) {
  if (batch.empty()) return 0;
  for (const auto& x : batch) WNF_EXPECTS(x.size() == net_->input_dim());
  // One lock and one wake for the whole batch: at small request sizes the
  // per-request notify_one and mutex round-trips of submit() dominate the
  // closed-loop throughput otherwise. Capacity math is race-free because
  // the driver thread owns both submission and delivery.
  const std::size_t accepted = std::min(
      batch.size(), config_.queue_capacity - outstanding_.load());
  // the rest of the batch is shed
  rejected_count_->add(static_cast<std::int64_t>(batch.size() - accepted));
  if (accepted == 0) return 0;
  if (outstanding_.fetch_add(accepted) == 0) {
    busy_start_ = std::chrono::steady_clock::now();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < accepted; ++i) {
      dispatch_.push_back({next_id_++, batch[i], root_.split()});
    }
  }
  if (accepted >= replicas_.size()) {
    work_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < accepted; ++i) work_cv_.notify_one();
  }
  if (obs::enabled()) {
    for (std::size_t i = 0; i < accepted; ++i) {
      const std::uint64_t id = next_id_ - accepted + i;
      obs::async_begin(obs::TraceName::kRequest, trace_tag_ + id);
      obs::async_begin(obs::TraceName::kQueue, trace_tag_ + id);
    }
    obs::counter(obs::TraceName::kQueueDepth, outstanding_.load());
    queue_depth_hist_->observe(static_cast<double>(outstanding_.load()));
  }
  return accepted;
}

void ReplicaPool::serve_run(Replica& replica, std::size_t segment,
                            std::span<const PendingRequest> run,
                            std::vector<RequestResult>& finished) {
  // Each request's queue span ends where its run starts; the execute span
  // is the run's block evaluation, on this replica's thread.
  if (obs::enabled()) {
    for (const PendingRequest& request : run) {
      obs::async_end(obs::TraceName::kQueue, trace_tag_ + request.id);
    }
  }
  const obs::ScopedSpan span(obs::TraceName::kExecute, run.front().id,
                             run.size());
  if (segment != replica.segment) {
    const auto& plan = timeline_.segment_plan(segment);
    if (plan.empty()) {
      replica.sim.clear_faults();
    } else {
      replica.sim.apply_faults(plan);
    }
    replica.segment = segment;
  }
  replica.inputs.clear();
  replica.streams.clear();
  for (const PendingRequest& request : run) {
    replica.inputs.emplace_back(request.x);
    replica.streams.push_back(request.rng);
  }
  replica.results.resize(run.size());
  replica.sim.evaluate_block(replica.inputs, replica.streams, config_.latency,
                             wait_counts_, replica.results);
  for (std::size_t i = 0; i < run.size(); ++i) {
    const dist::SimResult& result = replica.results[i];
    finished.push_back({run[i].id, result.output, result.completion_time,
                        result.resets_sent});
  }
}

void ReplicaPool::worker_loop(std::size_t r) {
  std::vector<PendingRequest> grabbed;
  std::vector<RequestResult> finished;
  grabbed.reserve(kGrabChunk);
  finished.reserve(kGrabChunk);
  while (true) {
    grabbed.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !dispatch_.empty(); });
      if (stopping_) return;
      // Work-stealing in chunks: a replica stuck behind a heavy request
      // never idles the others, because the rest of the stream stays on
      // the shared queue for whoever frees up first.
      const std::size_t take = std::min(kGrabChunk, dispatch_.size());
      for (std::size_t i = 0; i < take; ++i) {
        grabbed.push_back(std::move(dispatch_.front()));
        dispatch_.pop_front();
      }
    }
    // Looked up per chunk: rebind() replaces the replica while this thread
    // is parked.
    Replica& replica = *replicas_[r];
    finished.clear();
    // The chunk splits at segment boundaries; each run of one segment's
    // requests shares a plan and is served as one block.
    for (std::size_t begin = 0; begin < grabbed.size();) {
      const std::size_t segment = timeline_.segment_at(grabbed[begin].id);
      std::size_t end = begin + 1;
      while (end < grabbed.size() &&
             timeline_.segment_at(grabbed[end].id) == segment) {
        ++end;
      }
      serve_run(replica, segment, {grabbed.data() + begin, end - begin},
                finished);
      begin = end;
    }
    // Every claimed request is flushed before the worker can sleep again,
    // so the consumer never waits on a result a parked worker is holding.
    completions_.push_many(finished);
    obs::instant(obs::TraceName::kCompletionPush, r, finished.size());
  }
}

void ReplicaPool::delivered(const RequestResult& result) {
  completion_.add(result.completion_time);
  resets_count_->add(static_cast<std::int64_t>(result.resets_sent));
  if (obs::enabled()) {
    completion_hist_->observe(result.completion_time);
    obs::instant(obs::TraceName::kDeliver, result.id);
    obs::async_end(obs::TraceName::kRequest, trace_tag_ + result.id);
  }
  if (outstanding_.fetch_sub(1) == 1) {
    // The pipeline just went idle: close the busy interval that opened at
    // the first submit into an idle pipeline.
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - busy_start_)
                         .count();
  }
}

bool ReplicaPool::poll(RequestResult& out) {
  if (!completions_.try_pop(out)) return false;
  delivered(out);
  return true;
}

RequestResult ReplicaPool::wait() {
  WNF_EXPECTS(outstanding_.load() > 0);
  RequestResult out = completions_.pop();
  delivered(out);
  return out;
}

std::vector<RequestResult> ReplicaPool::drain() {
  std::vector<RequestResult> results;
  results.reserve(outstanding_.load());
  // Bulk-pop whatever is consecutively ready per wake instead of paying a
  // queue lock per result — the consumer-side mirror of the workers'
  // push_many.
  while (outstanding_.load() > 0) {
    const std::size_t at = results.size();
    completions_.pop_ready(results);
    for (std::size_t i = at; i < results.size(); ++i) delivered(results[i]);
  }
  return results;
}

ServeReport ReplicaPool::report() const {
  ServeReport report;
  report.rejected = static_cast<std::size_t>(rejected_count_->value());
  report.replicas = replicas_.size();
  finalize_completion_stats(report, completion_, wall_seconds_);
  report.resets_sent = static_cast<std::size_t>(resets_count_->value());
  report.rebinds = rebinds_;
  return report;
}

}  // namespace wnf::serve
