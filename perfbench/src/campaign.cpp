// campaign: the research user's loop. fault::cross_check_campaign replays
// one trial stream on the analytic Injector (fanned out over the global
// thread pool) and on exec::ServeBackend (a fresh 2-replica pool per
// run_trials call, a fault segment per trial), rotating through the
// crash, Byzantine-neuron and synapse families on an 8->64->64->64 net.
// Every call must show zero divergence and observed error within the
// Theorem 2/4 bound.
#include <cstdio>
#include <memory>

#include "ladder.hpp"
#include "workloads.hpp"

namespace perfbench {

void run_campaign(Run& run) {
  const RunOptions& opt = run.options;
  Outcome& out = run.outcome;
  const std::size_t trials = opt.tiny ? 4 : 24;
  const std::size_t probes = opt.tiny ? 4 : 16;

  wnf::Rng seeder(opt.seed);
  const std::uint64_t net_seed = seeder.next_u64();
  const std::uint64_t input_seed = seeder.next_u64();
  const std::uint64_t serve_seed = seeder.next_u64();
  const std::uint64_t campaign_seed = seeder.next_u64();

  // The campaign's set-up: building the network and constructing both
  // backends. setup_s times it, repeated after the timed phase.
  std::unique_ptr<nn::FeedForwardNetwork> net;
  std::unique_ptr<Backends> backends;
  const auto set_up = [&] {
    backends.reset();
    net.reset();
    const auto start = Clock::now();
    net = std::make_unique<nn::FeedForwardNetwork>(
        make_net(net_seed, {64, 64, 64}));
    backends = std::make_unique<Backends>(*net, serve_seed);
    return seconds_since(start);
  };
  set_up();
  const auto families = campaign_families(*net);

  // Calls rotate through the families; call k's trial stream comes from
  // its own seed. A traced run alternates traced and untraced calls.
  std::uint64_t calls = 0;
  std::uint64_t evaluations = 0;
  std::vector<Completion> completions;
  Clock::time_point phase{};
  double seconds[2] = {0.0, 0.0};
  std::uint64_t traced_evaluations[2] = {0, 0};
  CallTimes traced_sum;
  std::uint64_t traced_calls = 0;
  const auto call = [&](bool timed) {
    const Family& family = families[calls % families.size()];
    const auto config =
        campaign_config(family, trials, probes, campaign_seed + calls);
    const bool traced = opt.trace && calls % 2 == 0;
    CallTimes times;
    const double s = cross_check(run, *net, family, config, *backends, calls,
                                 traced ? &times : nullptr);
    const std::uint64_t n = 2 * config.trials * config.probes_per_trial;
    out.attempted += n;
    ++calls;
    if (!timed) return;
    evaluations += n;
    completions.push_back({seconds_since(phase), s, static_cast<double>(n)});
    seconds[traced] += s;
    traced_evaluations[traced] += n;
    if (traced) {
      ++traced_calls;
      traced_sum.make_trials += times.make_trials;
      traced_sum.injector_trials += times.injector_trials;
      traced_sum.serve_trials += times.serve_trials;
      traced_sum.bound += times.bound;
    }
  };
  // Warm-up: every family at least once, and a second of calls.
  for (const auto start = Clock::now();
       calls < families.size() || seconds_since(start) < (opt.tiny ? 0.0 : 1.0);) {
    call(false);
  }
  phase = Clock::now();
  while (seconds_since(phase) < opt.seconds) call(true);
  const PhaseSummary timed = summarise(completions, seconds_since(phase));
  std::fprintf(stderr,
               "perfbench: campaign ran %llu cross-checked calls (%llu probe "
               "evaluations timed)\n",
               static_cast<unsigned long long>(calls),
               static_cast<unsigned long long>(evaluations));

  if (opt.trace) {
    const double n = static_cast<double>(traced_calls);
    const std::pair<const char*, double> own[] = {
        {"exec.injector_trials_ms", traced_sum.injector_trials * 1e3 / n},
        {"exec.serve_trials_ms", traced_sum.serve_trials * 1e3 / n},
        {"fault.make_trials_ms", traced_sum.make_trials * 1e3 / n},
        {"core.fep_us", traced_sum.bound * 1e6 / n},
        {"obs.trace_overhead",
         1.0 - (static_cast<double>(traced_evaluations[1]) / seconds[1]) /
                   (static_cast<double>(traced_evaluations[0]) / seconds[0])},
    };
    LadderSpec ladder;
    ladder.net = net.get();
    ladder.window = make_inputs(kBatch, input_seed);
    ladder.serve_seed = serve_seed;
    ladder.rung_seconds = opt.tiny ? 0.02 : 0.25;
    run_ladder(run, ladder);
    for (const auto& [name, value] : own) out.set(name, value);
  } else {
    out.set("throughput_rps", timed.throughput);
    out.set("p50_us", timed.p50_s * 1e6);
    out.set("p95_us", timed.p95_s * 1e6);
    out.set("peak_rss_mb", peak_rss_self_mb());
    out.set("setup_s", repeat_setup(opt, set_up));
  }
}

}  // namespace perfbench
