#include "fixtures.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/fep.hpp"
#include "exec/injector_backend.hpp"
#include "exec/serve_backend.hpp"
#include "nn/builder.hpp"
#include "transport/monitor.hpp"

namespace perfbench {

namespace {

std::mutex g_fleets_mutex;
std::vector<Fleet*> g_fleets;  // guarded by g_fleets_mutex

void expire() {
  Outcome failed;
  failed.correct = false;
  failed.attempted = std::max<std::uint64_t>(1, progress().attempted.load());
  const std::uint64_t settled = progress().settled.load();
  failed.failed =
      failed.attempted > settled ? failed.attempted - settled : 1;
  std::fprintf(stderr,
               "perfbench: hard deadline expired; %llu operation(s) still "
               "undelivered count as failed\n",
               static_cast<unsigned long long>(failed.failed));
  {
    std::lock_guard lock(g_fleets_mutex);
    for (Fleet* fleet : g_fleets) {
      const auto& host = fleet->host();
      for (std::size_t w = 0; w < host.worker_count(); ++w) {
        const int pid = host.health_pid(w);
        if (pid > 0 && ::kill(pid, SIGKILL) == 0) ::waitpid(pid, nullptr, 0);
      }
    }
  }
  std::printf("%s\n", result_line(failed, {}).c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

/// EvalBackend decorator: a span around every run_trials call.
class TimedBackend final : public exec::EvalBackend {
 public:
  TimedBackend(exec::EvalBackend& inner, SpanLog& spans, const char* span,
               std::int32_t parent, std::uint64_t id)
      : inner_(inner), spans_(spans), span_(span), parent_(parent), id_(id) {}

  std::string_view name() const override { return inner_.name(); }
  const nn::FeedForwardNetwork& network() const override {
    return inner_.network();
  }
  void install(const fault::FaultPlan& plan) override { inner_.install(plan); }
  void clear() override { inner_.clear(); }
  exec::ProbeResult evaluate(std::span<const double> x) override {
    return inner_.evaluate(x);
  }
  std::vector<exec::TrialResult> run_trials(
      std::span<const exec::Trial> trials) override {
    const ScopedSpan span(spans_, span_, parent_, id_);
    const auto start = Clock::now();
    auto results = inner_.run_trials(trials);
    seconds_ += seconds_since(start);
    return results;
  }
  double seconds() const { return seconds_; }

 private:
  exec::EvalBackend& inner_;
  SpanLog& spans_;
  const char* span_;
  std::int32_t parent_;
  std::uint64_t id_;
  double seconds_ = 0.0;
};

}  // namespace

Progress& progress() {
  static Progress instance;
  return instance;
}

HardDeadline& hard_deadline() {
  static HardDeadline instance(expire);
  return instance;
}

Delivered digest_results(std::span<const serve::RequestResult> results,
                         std::uint64_t first_id) {
  Delivered delivered;
  Digest digest;
  for (std::size_t i = 0; i < results.size(); ++i) {
    digest.add(results[i].output);
    if (results[i].id != first_id + i) delivered.in_order = false;
  }
  delivered.checksum = digest.value();
  return delivered;
}

nn::FeedForwardNetwork make_net(std::uint64_t seed,
                                const std::vector<std::size_t>& widths) {
  wnf::Rng rng(seed);
  nn::NetworkBuilder builder(kInputDim);
  builder.activation(nn::ActivationKind::kSigmoid, 1.0);
  for (std::size_t width : widths) builder.hidden(width);
  return builder.init(nn::InitKind::kScaledUniform, 0.8).build(rng);
}

std::vector<std::vector<double>> make_inputs(std::size_t count,
                                             std::uint64_t seed) {
  wnf::Rng rng(seed);
  std::vector<std::vector<double>> inputs(count,
                                          std::vector<double>(kInputDim));
  for (auto& x : inputs) {
    for (double& c : x) c = rng.uniform();
  }
  return inputs;
}

dist::LatencyModel heavy_tail() {
  return {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.2};
}

fault::FaultPlan crash_plan(const nn::FeedForwardNetwork& net,
                            std::uint64_t seed) {
  wnf::Rng rng(seed);
  fault::FaultPlan plan;
  while (plan.neurons.size() < 2) {
    const std::size_t layer = 1 + rng.next_u64() % net.layer_count();
    const std::size_t neuron = rng.next_u64() % net.layer_width(layer);
    const bool taken = std::any_of(
        plan.neurons.begin(), plan.neurons.end(), [&](const auto& fault) {
          return fault.layer == layer && fault.neuron == neuron;
        });
    if (!taken) {
      plan.neurons.push_back(
          {layer, neuron, fault::NeuronFaultKind::kCrash, 0.0});
    }
  }
  return plan;
}

serve::ServeConfig pool_config(std::uint64_t serve_seed,
                               std::size_t replicas) {
  serve::ServeConfig config;
  config.replicas = replicas;
  config.latency = heavy_tail();
  config.seed = serve_seed;
  return config;
}

transport::TransportConfig fleet_config(std::uint64_t serve_seed) {
  transport::TransportConfig config;
  config.workers = kReplicas;
  config.latency = heavy_tail();
  config.seed = serve_seed;
  return config;
}

Fleet::Fleet(const nn::FeedForwardNetwork& net,
             transport::TransportConfig config) {
  const auto start = Clock::now();
  host_ = std::make_unique<transport::WorkerHost>(net, std::move(config));
  // A respawned worker is silent while it receives the network, so the
  // respawn deadline grows with the synapses a Bind ships: 40 ms at
  // 8->16->16, 49 ms at 8->64->64->64, ~0.11 s at 8->256->256 (whose
  // respawn Bind takes 55-80 ms on a 4-core x86 host). Shorter deadlines
  // keep each heal cheap.
  obs::WatchdogConfig watch;
  watch.respawn_seconds =
      0.04 + 1e-6 * static_cast<double>(net.synapse_count());
  watch.stall_seconds = watch.respawn_seconds / 2.0;
  watch.poll_seconds = std::min(0.01, watch.stall_seconds / 4.0);
  watchdog_ = std::make_unique<obs::Watchdog>(watch);
  const auto channels = transport::attach_fleet_watchdog(*host_, *watchdog_);
  // The canonical hook, counted: only worker channels have a process to
  // kill (a fleet-channel episode opens alongside and kills nothing).
  watchdog_->set_respawn([this, channels](std::size_t channel) {
    if (channel >= channels.first_worker &&
        channel < channels.first_worker + channels.workers) {
      heals_.fetch_add(1, std::memory_order_relaxed);
      host_->force_kill_worker(channel - channels.first_worker);
    }
  });
  {
    std::lock_guard lock(g_fleets_mutex);
    g_fleets.push_back(this);
  }
  watchdog_->start();
  {
    const Armed armed(hard_deadline(), kBatchDeadlineSeconds);
    host_->submit(std::vector<double>(net.input_dim(), 0.5));
    host_->wait();
  }
  bind_seconds_ = seconds_since(start);
  host_->rebind(net);
}

Fleet::~Fleet() {
  watchdog_->stop();
  {
    std::lock_guard lock(g_fleets_mutex);
    g_fleets.erase(std::find(g_fleets.begin(), g_fleets.end(), this));
  }
  watchdog_.reset();
  host_.reset();
}

std::vector<Family> campaign_families(const nn::FeedForwardNetwork& net) {
  const std::size_t depth = net.layer_count();
  theory::FepOptions crash;
  crash.mode = theory::FailureMode::kCrash;
  theory::FepOptions byzantine;
  byzantine.mode = theory::FailureMode::kByzantine;
  byzantine.capacity = 1.0;
  byzantine.convention = theory::CapacityConvention::kTransmittedValueBound;
  std::vector<std::size_t> synapse_counts(depth, 2);
  synapse_counts.push_back(1);  // the output synapse set
  return {
      {"crash", fault::AttackKind::kRandomCrash,
       std::vector<std::size_t>(depth, 2), crash},
      {"byzantine", fault::AttackKind::kRandomByzantine,
       std::vector<std::size_t>(depth, 1), byzantine},
      {"synapse", fault::AttackKind::kRandomSynapseByzantine, synapse_counts,
       byzantine},
  };
}

fault::CampaignConfig campaign_config(const Family& family,
                                      std::size_t trials, std::size_t probes,
                                      std::uint64_t seed) {
  fault::CampaignConfig config;
  config.attack = family.attack;
  config.trials = trials;
  config.probes_per_trial = probes;
  config.capacity = 1.0;
  config.convention = theory::CapacityConvention::kTransmittedValueBound;
  config.seed = seed;
  return config;
}

Backends::Backends(const nn::FeedForwardNetwork& net,
                   std::uint64_t serve_seed) {
  injector = std::make_unique<exec::InjectorBackend>(net);
  exec::ServeBackendOptions options;
  options.replicas = kReplicas;
  options.latency = heavy_tail();
  options.seed = serve_seed;
  serve = std::make_unique<exec::ServeBackend>(net, options);
}

double cross_check(Run& run, const nn::FeedForwardNetwork& net,
                   const Family& family, const fault::CampaignConfig& config,
                   Backends& backends, std::uint64_t call_id,
                   CallTimes* times) {
  SpanLog& spans = run.spans;
  const std::uint64_t evaluations =
      2 * config.trials * config.probes_per_trial;
  progress().attempted += evaluations;
  fault::CrossCheckResult check;
  const auto start = Clock::now();
  {
    const Armed armed(hard_deadline(), kCallDeadlineSeconds);
    if (times != nullptr) {
      const ScopedSpan call(spans, "fault.cross_check_campaign",
                            SpanLog::kNone, call_id);
      TimedBackend injector(*backends.injector, spans,
                            "exec.run_trials.injector", call.handle(),
                            call_id);
      TimedBackend serve(*backends.serve, spans, "exec.run_trials.serve",
                         call.handle(), call_id);
      check = fault::cross_check_campaign(net, family.counts, config,
                                          family.fep, injector, serve);
      times->injector_trials = injector.seconds();
      times->serve_trials = serve.seconds();
    } else {
      check = fault::cross_check_campaign(net, family.counts, config,
                                          family.fep, *backends.injector,
                                          *backends.serve);
    }
  }
  const double seconds = seconds_since(start);

  if (times != nullptr) {
    {
      const ScopedSpan span(spans, "fault.make_campaign_trials",
                            SpanLog::kNone, call_id);
      const auto t0 = Clock::now();
      const auto trials =
          fault::make_campaign_trials(net, family.counts, config);
      times->make_trials = seconds_since(t0);
      if (trials.size() != config.trials) {
        run.outcome.fail(0, true, "make_campaign_trials changed size");
      }
    }
    const ScopedSpan span(spans, "core.fep_bound", SpanLog::kNone, call_id);
    const auto t0 = Clock::now();
    const auto profile = theory::profile_of(net, family.fep);
    const double bound =
        family.attack == fault::AttackKind::kRandomSynapseByzantine
            ? theory::synapse_error_bound(profile, family.counts, family.fep)
            : theory::forward_error_propagation(profile, family.counts,
                                                family.fep);
    times->bound = seconds_since(t0);
    if (!(bound > 0.0)) run.outcome.fail(0, true, "non-positive Fep bound");
  }

  // The bound is the reference observed damage is checked against.
  const double bound = run.options.corrupt_reference && call_id == 0
                           ? -1.0
                           : check.first.fep_bound;
  if (check.max_divergence != 0.0) {
    run.outcome.fail(evaluations, true,
                     std::string(family.name) +
                         ": injector and serve backends diverged");
  } else if (!(check.first.observed_max <= bound) ||
             !(check.second.observed_max <= bound)) {
    run.outcome.fail(evaluations, true,
                     std::string(family.name) +
                         ": observed error above the Fep bound");
  }
  progress().settled += evaluations;
  return seconds;
}

TimedPipeline::TimedPipeline(load::Pipeline& inner,
                             const load::ArrivalTrace& trace, SpanLog& spans,
                             std::int32_t parent)
    : inner_(inner), trace_(trace), spans_(spans), parent_(parent) {
  lags_.reserve(trace.size());
}

void TimedPipeline::anchor(Clock::time_point now, double scheduled) {
  anchored_ = true;
  start_ = now - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(scheduled));
}

bool TimedPipeline::try_submit(std::vector<double> x) {
  const auto now = Clock::now();
  const double scheduled = trace_.arrivals[submitted_].time;
  if (!anchored_) anchor(now, scheduled);
  lags_.push_back(seconds_between(start_, now) - scheduled);
  const ScopedSpan span(spans_, "load.try_submit", parent_, submitted_++);
  return inner_.try_submit(std::move(x));
}

bool TimedPipeline::poll(serve::RequestResult& out) {
  // The replayer starts its clock just before its first sweep; anchoring
  // there makes the schedule comparable with the submit timestamps.
  if (!anchored_) anchor(Clock::now(), 0.0);
  ++polls_;
  if (sweep_ == SpanLog::kNone) {
    sweep_ = spans_.begin("load.poll_sweep", parent_, sweeps_++);
  }
  const bool delivered = inner_.poll(out);
  if (!delivered) {
    spans_.end(sweep_);
    sweep_ = SpanLog::kNone;
  }
  return delivered;
}

}  // namespace perfbench
