#include "exec/serve_backend.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "transport/host.hpp"
#include "util/contract.hpp"

namespace wnf::exec {
namespace {

serve::ServeConfig pool_config(const ServeBackendOptions& options,
                               std::size_t queue_capacity) {
  serve::ServeConfig config;
  config.replicas = options.replicas;
  config.queue_capacity = queue_capacity;
  config.sim = options.sim;
  config.latency = options.latency;
  config.straggler_cut = options.straggler_cut;
  config.seed = options.seed;
  return config;
}

}  // namespace

ServeBackend::ServeBackend(const nn::FeedForwardNetwork& net,
                           ServeBackendOptions options)
    : net_(net), options_(std::move(options)) {}

serve::ReplicaPool& ServeBackend::serial_pool() {
  if (!serial_pool_) {
    serial_pool_ = std::make_unique<serve::ReplicaPool>(
        net_, pool_config(options_, 1));
  }
  return *serial_pool_;
}

void ServeBackend::install(const fault::FaultPlan& plan) {
  fault::validate_plan(plan, net_);
  plan_ = plan;
  plan_dirty_ = true;
}

void ServeBackend::clear() {
  plan_ = fault::FaultPlan{};
  plan_dirty_ = true;
}

ProbeResult ServeBackend::evaluate(std::span<const double> x) {
  serve::ReplicaPool& pool = serial_pool();
  if (plan_dirty_) {
    // The installed plan holds for every request from here on: one window
    // covering the rest of the pool's request stream.
    serve::FaultTimeline timeline;
    if (!plan_.empty()) {
      timeline.add(pool.next_request_id(), serve::FaultTimeline::kForever,
                   plan_);
    }
    pool.set_timeline(std::move(timeline));
    plan_dirty_ = false;
  }
  const bool accepted = pool.submit(std::vector<double>(x.begin(), x.end()));
  WNF_ASSERT(accepted);  // the serial pool drains after every request
  const auto results = pool.drain();
  WNF_ASSERT(results.size() == 1);
  return {results[0].output, results[0].completion_time,
          results[0].resets_sent};
}

std::vector<TrialResult> ServeBackend::run_trials(
    std::span<const Trial> trials) {
  std::size_t total = 0;
  for (const Trial& trial : trials) total += trial.probes.size();
  const obs::ScopedSpan span(obs::TraceName::kTrialStream, trials.size(),
                             total);
  // Fresh pool per call: ids start at 0 and the queue holds the entire
  // trial stream, so nothing is shed and prior calls leave no trace.
  serve::ReplicaPool pool(net_,
                          pool_config(options_, std::max<std::size_t>(total, 1)));
  return serve_trial_stream(pool, trials);
}

template <typename Runtime>
std::vector<TrialResult> serve_trial_stream(Runtime& runtime,
                                            std::span<const Trial> trials) {
  serve::FaultTimeline timeline;
  std::size_t total = 0;
  for (const Trial& trial : trials) {
    if (!trial.plan.empty() && !trial.probes.empty()) {
      timeline.add(total, total + trial.probes.size(), trial.plan);
    }
    total += trial.probes.size();
  }
  runtime.set_timeline(std::move(timeline));

  std::vector<serve::RequestResult> served;
  served.reserve(total);
  serve::RequestResult ready;
  for (const Trial& trial : trials) {
    for (const auto& x : trial.probes) {
      const bool accepted = runtime.submit(x);
      WNF_ASSERT(accepted);  // queue sized to the whole stream
      while (runtime.poll(ready)) served.push_back(ready);
    }
  }
  while (runtime.pending() > 0) served.push_back(runtime.wait());
  WNF_ASSERT(served.size() == total);

  std::vector<TrialResult> results(trials.size());
  std::size_t at = 0;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    results[t].probes.reserve(trials[t].probes.size());
    for (std::size_t i = 0; i < trials[t].probes.size(); ++i, ++at) {
      results[t].probes.push_back({served[at].output,
                                   served[at].completion_time,
                                   served[at].resets_sent});
    }
    finish_trial(trials[t], results[t]);
  }
  return results;
}

template std::vector<TrialResult> serve_trial_stream(serve::ReplicaPool&,
                                                     std::span<const Trial>);
template std::vector<TrialResult> serve_trial_stream(transport::WorkerHost&,
                                                     std::span<const Trial>);

}  // namespace wnf::exec
