#include "exec/serve_backend.hpp"

#include <limits>

#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace wnf::exec {

template <typename Runtime>
ServingBackend<Runtime>::ServingBackend(const nn::FeedForwardNetwork& net,
                                        Config config)
    : net_(net), config_(std::move(config)) {
  config_.queue_capacity = std::numeric_limits<std::size_t>::max();
}

template <>
std::string_view ServingBackend<serve::ReplicaPool>::name() const {
  return "serve";
}

template <>
std::string_view ServingBackend<transport::WorkerHost>::name() const {
  return "transport";
}

template <typename Runtime>
void ServingBackend<Runtime>::install(const fault::FaultPlan& plan) {
  fault::validate_plan(plan, net_);
  plan_ = plan;
  plan_dirty_ = true;
}

template <typename Runtime>
void ServingBackend<Runtime>::clear() {
  plan_ = fault::FaultPlan{};
  plan_dirty_ = true;
}

template <typename Runtime>
ProbeResult ServingBackend<Runtime>::evaluate(std::span<const double> x) {
  if (!runtime_) runtime_ = std::make_unique<Runtime>(net_, config_);
  if (plan_dirty_) {
    // The installed plan holds for every request from here on: one window
    // covering the rest of the runtime's request stream.
    serve::FaultTimeline timeline;
    if (!plan_.empty()) {
      timeline.add(runtime_->next_request_id(),
                   serve::FaultTimeline::kForever, plan_);
    }
    runtime_->set_timeline(std::move(timeline));
    plan_dirty_ = false;
  }
  const bool accepted =
      runtime_->submit(std::vector<double>(x.begin(), x.end()));
  WNF_ASSERT(accepted);  // the queue is unbounded
  const auto results = runtime_->drain();
  WNF_ASSERT(results.size() == 1);
  return {results[0].output, results[0].completion_time,
          results[0].resets_sent};
}

template <typename Runtime>
std::vector<TrialResult> ServingBackend<Runtime>::run_trials(
    std::span<const Trial> trials) {
  serve::FaultTimeline timeline;
  std::size_t total = 0;
  for (const Trial& trial : trials) {
    if (!trial.plan.empty() && !trial.probes.empty()) {
      timeline.add(total, total + trial.probes.size(), trial.plan);
    }
    total += trial.probes.size();
  }
  const obs::ScopedSpan span(obs::TraceName::kTrialStream, trials.size(),
                             total);
  // Fresh logical deployment per call: ids from 0 on the re-applied seed,
  // so prior calls leave no trace in the results.
  if (runtime_) {
    runtime_->rebind(net_);
  } else {
    runtime_ = std::make_unique<Runtime>(net_, config_);
  }
  Runtime& runtime = *runtime_;
  runtime.set_timeline(std::move(timeline));
  plan_dirty_ = true;  // the next evaluate() re-installs the installed plan

  std::vector<serve::RequestResult> served;
  served.reserve(total);
  serve::RequestResult ready;
  for (const Trial& trial : trials) {
    for (const auto& x : trial.probes) {
      const bool accepted = runtime.submit(x);
      WNF_ASSERT(accepted);  // the queue is unbounded
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

template class ServingBackend<serve::ReplicaPool>;
template class ServingBackend<transport::WorkerHost>;

}  // namespace wnf::exec
