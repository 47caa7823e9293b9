#include "ladder.hpp"

#include <string>

#include "dist/sim.hpp"
#include "fault/injector.hpp"
#include "load/trace.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

/// Runs `body(rep)` (which returns its own timed seconds) once untimed to
/// warm up, then until `budget` seconds have passed and at least three
/// timed reps ran; returns the timed reps' seconds.
template <typename Fn>
std::vector<double> repeat(double budget, Fn&& body) {
  std::size_t rep = 0;
  body(rep++);
  std::vector<double> reps;
  const auto start = Clock::now();
  while (reps.size() < 3 ||
         (seconds_since(start) < budget && reps.size() < 100000)) {
    reps.push_back(body(rep++));
  }
  return reps;
}

/// The last `n` entries of `values`: what a body recorded during the timed
/// reps, without its warm-up reps.
std::vector<double> timed_tail(const std::vector<double>& values,
                               std::size_t n) {
  return {values.end() - static_cast<std::ptrdiff_t>(n), values.end()};
}

/// Keeps kernel results observable, so timed loops cannot be elided.
volatile double g_sink = 0.0;

/// Median seconds per rep, as ns per request of a `requests`-wide window.
double ns_per_request(const std::vector<double>& reps, std::size_t requests) {
  return median(reps) * 1e9 / static_cast<double>(requests);
}

}  // namespace

void run_ladder(Run& run, const LadderSpec& spec) {
  const nn::FeedForwardNetwork& net = *spec.net;
  const auto& window = spec.window;
  const std::size_t width = window.size();
  Outcome& out = run.outcome;
  SpanLog& spans = run.spans;
  const ScopedSpan ladder(spans, "ladder");
  const std::int32_t parent = ladder.handle();

  // The in-process reference every rung must land, bit for bit.
  const std::size_t sizes[] = {width};
  const std::uint64_t reference = reference_checksums(
      net, pool_config(spec.serve_seed), spec.timeline, sizes,
      [&](std::size_t, std::size_t i) -> const std::vector<double>& {
        return window[i];
      })[0];
  const auto check = [&](const char* rung, std::uint64_t checksum,
                         bool in_order = true) {
    out.attempted += width;
    if (!in_order) {
      out.fail(width, true,
               std::string("ladder rung '") + rung +
                   "' delivered results under the wrong ids");
    } else if (checksum != reference) {
      out.fail(width, true,
               std::string("ladder rung '") + rung +
                   "' missed the reference checksum");
    }
  };
  if (spec.served_checksum) check("served", *spec.served_checksum);

  // Kernel rung: the layer kernels composed by hand (affine, activation,
  // output dot) for the checksum; gemv alone, over each layer's shape on
  // that layer's real inputs, for the time.
  const std::size_t depth = net.layer_count();
  {
    Digest checksum;
    std::vector<std::vector<std::vector<double>>> layer_inputs(depth);
    std::vector<double> y;
    std::vector<double> s;
    for (const auto& x : window) {
      y = x;
      for (std::size_t l = 1; l <= depth; ++l) {
        layer_inputs[l - 1].push_back(y);
        const auto& layer = net.layer(l);
        s.resize(layer.out_size());
        layer.affine(y, s);
        for (double& v : s) v = net.activation().value(v);
        y.swap(s);
      }
      checksum.add(wnf::dot(y, net.output_weights()) + net.output_bias());
    }
    check("kernel", checksum.value());

    std::vector<std::vector<double>> scratch(depth);
    double flops = 0.0;
    double bytes = 0.0;
    for (std::size_t l = 1; l <= depth; ++l) {
      const auto& weights = net.layer(l).weights();
      scratch[l - 1].resize(weights.rows());
      const double rows = static_cast<double>(weights.rows());
      const double cols = static_cast<double>(weights.cols());
      flops += 2.0 * rows * cols;
      bytes += 8.0 * (rows * cols + cols + rows);
    }
    double sink = 0.0;
    const auto reps = repeat(spec.rung_seconds, [&](std::size_t rep) {
      const ScopedSpan span(spans, "ladder.tensor.gemv", parent, rep);
      const auto t0 = Clock::now();
      for (std::size_t p = 0; p < width; ++p) {
        for (std::size_t l = 1; l <= depth; ++l) {
          wnf::gemv(net.layer(l).weights(), layer_inputs[l - 1][p],
                    scratch[l - 1]);
          sink += scratch[l - 1][0];
        }
      }
      return seconds_since(t0);
    });
    g_sink = sink;
    out.set("tensor.gemv_ns", ns_per_request(reps, width));
    out.set("tensor.flops", flops);
    out.set("tensor.bytes", bytes);
  }

  // Network forward rung.
  double forward_ns = 0.0;
  {
    nn::Workspace workspace;
    Digest checksum;
    const auto reps = repeat(spec.rung_seconds, [&](std::size_t rep) {
      const ScopedSpan span(spans, "ladder.nn.evaluate", parent, rep);
      const auto t0 = Clock::now();
      checksum = Digest();
      for (const auto& x : window) checksum.add(net.evaluate(x, workspace));
      return seconds_since(t0);
    });
    check("forward", checksum.value());
    forward_ns = ns_per_request(reps, width);
    out.set("nn.forward_ns", forward_ns);
  }

  // Simulator rung: each request's latencies drawn from its own split
  // child of the serving root stream, as a pool replica draws them.
  {
    const serve::ServeConfig config = pool_config(spec.serve_seed);
    dist::NetworkSimulator sim(net, config.sim);
    Digest checksum;
    const auto reps = repeat(spec.rung_seconds, [&](std::size_t rep) {
      const ScopedSpan span(spans, "ladder.dist.simulate", parent, rep);
      const auto t0 = Clock::now();
      wnf::Rng root(config.seed);
      checksum = Digest();
      for (const auto& x : window) {
        wnf::Rng request = root.split();
        sim.sample_latencies(config.latency, request);
        checksum.add(sim.evaluate(x).output);
      }
      return seconds_since(t0);
    });
    check("simulator", checksum.value());
    const double sim_ns = ns_per_request(reps, width);
    out.set("dist.sim_ns", sim_ns);
    out.set("dist.sim_overhead_ns", sim_ns - forward_ns);
  }

  // Replica-pool rung: one deployment serves the window repeatedly (the
  // first, untimed rep serves ids [0, W) and warms it up).
  double pool_ns = 0.0;
  {
    serve::ServeConfig config = pool_config(spec.serve_seed);
    config.queue_capacity = std::max(config.queue_capacity, width);
    serve::ReplicaPool pool(net, config);
    std::uint64_t next_id = 0;
    std::vector<double> submit;
    std::vector<double> drain;
    const auto reps = repeat(spec.rung_seconds, [&](std::size_t rep) {
      const ScopedSpan span(spans, "ladder.pool", parent, rep);
      const BatchServed served =
          serve_batch(pool, window, next_id, spans, "ladder.pool.submit_batch",
                      "ladder.pool.drain", span.handle(), rep);
      check("pool", served.checksum, served.in_order);
      submit.push_back(served.submit_seconds);
      drain.push_back(served.drain_seconds);
      return served.submit_seconds + served.drain_seconds;
    });
    pool_ns = ns_per_request(reps, width);
    out.set("serve.pool_ns", pool_ns);
    out.set("serve.submit_ns",
            ns_per_request(timed_tail(submit, reps.size()), width));
    out.set("serve.wait_ns",
            ns_per_request(timed_tail(drain, reps.size()), width));
    out.set("serve.rejected", static_cast<double>(pool.report().rejected));
  }

  // Ring-transport rung: a fresh fleet (ids from 0, no faults installed)
  // serves the window repeatedly. A fresh fleet on a host that was idle ran
  // ~5x slower for its first half second, so the rung warms up for four
  // rung budgets (a second) before it times.
  {
    auto fleet = std::make_unique<Fleet>(net, fleet_config(spec.serve_seed));
    out.set("transport.bind_s", fleet->bind_seconds());
    auto& host = fleet->host();
    std::uint64_t next_id = 0;
    const auto serve_window = [&](std::size_t rep) {
      const ScopedSpan span(spans, "ladder.transport", parent, rep);
      const BatchServed served = serve_batch(
          host, window, next_id, spans, "ladder.transport.submit_batch",
          "ladder.transport.drain", span.handle(), rep);
      check("transport", served.checksum, served.in_order);
      return served;
    };
    for (const auto start = Clock::now();
         seconds_since(start) < 4.0 * spec.rung_seconds;) {
      serve_window(0);
    }
    // Rebinding again restarts ids at 0 and the host's counters, so the
    // counters below cover exactly the rung's reps.
    host.rebind(net);
    next_id = 0;
    const std::uint64_t heals_before = fleet->heals();
    std::vector<double> submit;
    std::vector<double> drain;
    const auto reps = repeat(spec.rung_seconds, [&](std::size_t rep) {
      const BatchServed served = serve_window(rep);
      submit.push_back(served.submit_seconds);
      drain.push_back(served.drain_seconds);
      return served.submit_seconds + served.drain_seconds;
    });
    const double batches = static_cast<double>(reps.size());
    const double transport_ns = ns_per_request(reps, width);
    out.set("transport.ns", transport_ns);
    out.set("transport.overhead_ns", transport_ns - pool_ns);
    out.set("transport.submit_ns",
            ns_per_request(timed_tail(submit, reps.size()), width));
    out.set("transport.drain_ns",
            ns_per_request(timed_tail(drain, reps.size()), width));
    const double served = batches + 1.0;  // the counters include the warm rep
    out.set("transport.doorbells",
            static_cast<double>(host.ring_doorbells()) * 1000.0 /
                (served * static_cast<double>(width)));
    out.set("transport.spin_wakeups",
            static_cast<double>(host.ring_spin_wakeups()) / served);
    out.set("transport.sleep_wakeups",
            static_cast<double>(host.ring_sleep_wakeups()) / served);
    out.set("transport.heals",
            static_cast<double>(fleet->heals() - heals_before));
    out.set("transport.worker_restarts", static_cast<double>(host.restarts()));
    out.set("transport.resubmitted", static_cast<double>(host.resubmitted()));
    out.set("transport.torn_recovered",
            static_cast<double>(host.ring_torn_recovered()));
    fleet.reset();  // reaps the workers, so their peak RSS is on record
    out.set("transport.worker_rss_mb", peak_rss_children_mb());
  }

  // Open-loop replay rung: a Poisson schedule at a quarter of the pool's
  // closed-loop capacity (at most serve_open's 50 k rps) into a fresh
  // pool; ids [0, W) carry the window.
  if (spec.replay_rung) {
    const double rate = std::min(50000.0, 0.25e9 / pool_ns);
    wnf::Rng trace_rng(spec.serve_seed ^ 0x7e3a11ULL);
    const auto trace = load::poisson_trace(
        rate, std::max(2.0 * spec.rung_seconds,
                       2.0 * static_cast<double>(width) / rate),
        trace_rng);
    serve::ReplicaPool pool(net, pool_config(spec.serve_seed));
    load::PoolPipeline plain(pool);
    const ScopedSpan span(spans, "ladder.load.replay", parent);
    TimedPipeline timed(plain, trace, spans, span.handle());
    load::Pipeline* const pipes[] = {&timed};
    std::vector<std::vector<serve::RequestResult>> collected;
    load::LoadReport report;
    {
      const Armed armed(hard_deadline(), trace.duration + kCallDeadlineSeconds);
      report = load::replay(trace, window, pipes, {}, &collected);
    }
    const std::span<const serve::RequestResult> results(collected[0]);
    const Delivered served =
        digest_results(results.first(std::min(width, results.size())), 0);
    check("replay", served.checksum, served.in_order);
    const double shed = static_cast<double>(
        report.shed_slo + report.shed_admission + report.shed_queue);
    out.set("load.submit_lag_p99_us", quantile(timed.lags(), 0.99) * 1e6);
    out.set("load.polls_per_req",
            static_cast<double>(timed.polls()) /
                static_cast<double>(std::max<std::size_t>(1, report.completed)));
    out.set("load.shed", shed);
    out.set("load.sojourn_p99_us", report.p99 * 1e6);
  }

  // Campaign layers on this network: the hooked forward pass under each
  // family's plans, then one traced cross-check per family.
  const auto families = campaign_families(net);
  {
    fault::Injector injector(net);
    std::vector<std::vector<exec::Trial>> streams;
    std::size_t evaluations = 0;
    for (std::size_t f = 0; f < families.size(); ++f) {
      streams.push_back(fault::make_campaign_trials(
          net, families[f].counts,
          campaign_config(families[f], 4, 16, spec.serve_seed + f)));
      evaluations += 4 * 16;
    }
    double sink = 0.0;
    const auto reps = repeat(spec.rung_seconds, [&](std::size_t rep) {
      const ScopedSpan span(spans, "ladder.fault.damaged", parent, rep);
      const auto t0 = Clock::now();
      for (const auto& stream : streams) {
        for (const auto& trial : stream) {
          for (const auto& x : trial.probes) {
            sink += injector.damaged(trial.plan, x);
          }
        }
      }
      return seconds_since(t0);
    });
    g_sink = sink;
    out.set("nn.hooked_forward_ns", ns_per_request(reps, evaluations));
  }
  {
    Backends backends(net, spec.serve_seed);
    CallTimes sum;
    for (std::size_t f = 0; f < families.size(); ++f) {
      const auto config = campaign_config(families[f], 8, 8,
                                          spec.serve_seed + 100 + f);
      CallTimes times;
      cross_check(run, net, families[f], config, backends, 1000 + f, &times);
      out.attempted += 2 * config.trials * config.probes_per_trial;
      sum.make_trials += times.make_trials;
      sum.injector_trials += times.injector_trials;
      sum.serve_trials += times.serve_trials;
      sum.bound += times.bound;
    }
    const double calls = static_cast<double>(families.size());
    out.set("exec.injector_trials_ms", sum.injector_trials * 1e3 / calls);
    out.set("exec.serve_trials_ms", sum.serve_trials * 1e3 / calls);
    out.set("fault.make_trials_ms", sum.make_trials * 1e3 / calls);
    out.set("core.fep_us", sum.bound * 1e6 / calls);
  }
}

}  // namespace perfbench
