#include "exec/transport_backend.hpp"

#include <algorithm>

#include "exec/serve_backend.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace wnf::exec {
namespace {

transport::TransportConfig host_config(const TransportBackendOptions& options,
                                       std::size_t queue_capacity) {
  transport::TransportConfig config;
  config.workers = options.workers;
  config.queue_capacity = queue_capacity;
  config.sim = options.sim;
  config.latency = options.latency;
  config.straggler_cut = options.straggler_cut;
  config.seed = options.seed;
  return config;
}

}  // namespace

bool TransportBackend::available() {
  return transport::WorkerHost::available();
}

TransportBackend::TransportBackend(const nn::FeedForwardNetwork& net,
                                   TransportBackendOptions options)
    : net_(net), options_(std::move(options)) {
  WNF_EXPECTS(available());
}

transport::WorkerHost& TransportBackend::serial_host() {
  if (!serial_host_) {
    serial_host_ = std::make_unique<transport::WorkerHost>(
        net_, host_config(options_, 1));
  }
  return *serial_host_;
}

transport::WorkerHost& TransportBackend::campaign_fleet(
    std::size_t queue_capacity) {
  if (!fleet_) {
    fleet_ = std::make_unique<transport::WorkerHost>(
        net_, host_config(options_, queue_capacity));
  } else {
    // Same fleet, fresh logical deployment: ids restart at 0 on the same
    // seed, the queue grows to hold this call's whole trial stream, and
    // no timeline or crash script carries over — bit-identical to a fresh
    // host, with zero new forks.
    transport::RebindOptions rebind;
    rebind.queue_capacity = queue_capacity;
    fleet_->rebind(net_, std::move(rebind));
  }
  return *fleet_;
}

void TransportBackend::install(const fault::FaultPlan& plan) {
  fault::validate_plan(plan, net_);
  plan_ = plan;
  plan_dirty_ = true;
}

void TransportBackend::clear() {
  plan_ = fault::FaultPlan{};
  plan_dirty_ = true;
}

ProbeResult TransportBackend::evaluate(std::span<const double> x) {
  transport::WorkerHost& host = serial_host();
  if (plan_dirty_) {
    // The installed plan holds for every request from here on: one window
    // covering the rest of the host's request stream.
    serve::FaultTimeline timeline;
    if (!plan_.empty()) {
      timeline.add(host.next_request_id(), serve::FaultTimeline::kForever,
                   plan_);
    }
    host.set_timeline(std::move(timeline));
    plan_dirty_ = false;
  }
  const bool accepted = host.submit(std::vector<double>(x.begin(), x.end()));
  WNF_ASSERT(accepted);  // the serial host drains after every request
  const auto results = host.drain();
  WNF_ASSERT(results.size() == 1);
  return {results[0].output, results[0].completion_time,
          results[0].resets_sent};
}

std::vector<TrialResult> TransportBackend::run_trials(
    std::span<const Trial> trials) {
  std::size_t total = 0;
  for (const Trial& trial : trials) total += trial.probes.size();
  const obs::ScopedSpan span(obs::TraceName::kTrialStream, trials.size(),
                             total);
  // Persistent fleet, fresh logical deployment per call: ids from 0, the
  // queue holds the entire trial stream, so nothing is shed and prior
  // calls leave no trace in the results — the exact discipline ServeBackend
  // uses with its pool, minus the per-call fork + network shipping.
  transport::WorkerHost& host =
      campaign_fleet(std::max<std::size_t>(total, 1));

  // The crash script fires at the same dispatch frontiers whether the
  // stream is pipelined or submitted whole, so it stays bit-identical.
  host.set_crash_script(options_.crash_script);
  auto results = serve_trial_stream(host, trials);
  last_report_ = host.report();
  return results;
}

}  // namespace wnf::exec
