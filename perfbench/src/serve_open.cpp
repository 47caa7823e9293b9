// serve_open: load::replay replays a fixed-rate Poisson trace open-loop
// into a 2-replica ReplicaPool through PoolPipeline, with a wall-clock
// crash window over 30-50 % of the trace. Sojourn is measured from each
// arrival's scheduled time, so a stall is charged to every request it
// delays. The rate (50 k rps) sits far below the pool's saturation.
#include <cstdio>
#include <memory>

#include "ladder.hpp"
#include "load/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kRate = 50000.0;      ///< offered arrivals per second
constexpr std::size_t kInputs = 4096;  ///< arrival i carries input i % 4096
constexpr std::size_t kChunk = kBatch;  ///< verification window, requests
constexpr std::size_t kReplays = 12;    ///< replays per untraced run

/// The timeline the deployment installs: a crash episode over
/// [0.3, 0.5) of the trace, resolved onto the ids arriving inside it.
serve::FaultTimeline crash_episode(const nn::FeedForwardNetwork& net,
                                   const load::ArrivalTrace& trace,
                                   std::uint64_t seed) {
  serve::FaultTimeline timeline;
  timeline.add_wall(0.3 * trace.duration, 0.5 * trace.duration,
                    crash_plan(net, seed));
  timeline.resolve_wall(trace.arrival_times());
  return timeline;
}

}  // namespace

void run_serve_open(Run& run) {
  const RunOptions& opt = run.options;
  Outcome& out = run.outcome;
  SpanLog& spans = run.spans;

  wnf::Rng seeder(opt.seed);
  const std::uint64_t net_seed = seeder.next_u64();
  const std::uint64_t input_seed = seeder.next_u64();
  const std::uint64_t serve_seed = seeder.next_u64();
  const std::uint64_t fault_seed = seeder.next_u64();
  const std::uint64_t trace_seed = seeder.next_u64();
  const auto inputs = make_inputs(kInputs, input_seed);
  // The phase is kReplays replays of one trace, each into a fresh
  // deployment: where the runtime's threads land moved a replay's median
  // sojourn by a quarter, and a host that steals the CPU for a while
  // turns a replay's tail into milliseconds of backlog. A run reports the
  // median over its replays. A traced run alternates untraced and traced
  // replays.
  const std::size_t replays_n = opt.trace ? 4 : kReplays;
  wnf::Rng trace_rng(trace_seed);
  const auto trace = load::poisson_trace(
      kRate, opt.seconds / static_cast<double>(replays_n), trace_rng);

  // The deployment that serves first: building the network, spawning the
  // replicas and installing the resolved timeline. setup_s times the same
  // steps, repeated after the replays.
  std::unique_ptr<nn::FeedForwardNetwork> net;
  std::unique_ptr<serve::ReplicaPool> pool;
  serve::FaultTimeline timeline;
  const auto set_up = [&] {
    pool.reset();
    net.reset();
    const auto start = Clock::now();
    net = std::make_unique<nn::FeedForwardNetwork>(
        make_net(net_seed, {16, 16}));
    pool = std::make_unique<serve::ReplicaPool>(*net, pool_config(serve_seed));
    timeline = crash_episode(*net, trace, fault_seed);
    pool->set_timeline(timeline);
    return seconds_since(start);
  };
  set_up();

  SpanLog quiet(false);
  std::vector<std::vector<std::vector<serve::RequestResult>>> collected;
  std::vector<double> p50[2];
  std::vector<double> p95[2];
  std::vector<double> p99;
  std::vector<double> lags;
  std::uint64_t polls = 0;
  std::uint64_t completed[2] = {0, 0};
  double wall[2] = {0.0, 0.0};
  std::vector<std::size_t> shed_in;  // per replay
  std::uint64_t shed_total = 0;
  std::uint64_t offered_traced = 0;
  for (std::size_t r = 0; r < replays_n; ++r) {
    const bool traced = opt.trace && r % 2 == 1;
    if (!pool) {
      pool = std::make_unique<serve::ReplicaPool>(*net, pool_config(serve_seed));
      pool->set_timeline(timeline);
    }
    load::PoolPipeline plain(*pool);
    const ScopedSpan span(traced ? spans : quiet, "load.replay",
                          SpanLog::kNone, r);
    std::unique_ptr<TimedPipeline> timed;
    load::Pipeline* pipe = &plain;
    if (traced) {
      timed = std::make_unique<TimedPipeline>(plain, trace, spans,
                                              span.handle());
      pipe = timed.get();
    }
    load::Pipeline* const pipes[] = {pipe};
    collected.emplace_back();
    progress().attempted += trace.size();
    load::LoadReport report;
    {
      const Armed armed(hard_deadline(),
                        trace.duration + kCallDeadlineSeconds);
      report = load::replay(trace, inputs, pipes, {}, &collected.back());
    }
    progress().settled += trace.size();
    out.attempted += trace.size();
    const std::size_t shed =
        report.shed_slo + report.shed_admission + report.shed_queue;
    if (shed > 0) out.fail(shed, false, "open-loop arrivals shed");
    shed_in.push_back(shed);
    p50[traced].push_back(report.p50 * 1e6);
    p95[traced].push_back(report.p95 * 1e6);
    completed[traced] += report.completed;
    wall[traced] += report.wall_seconds;
    if (traced) {
      p99.push_back(report.p99 * 1e6);
      lags.insert(lags.end(), timed->lags().begin(), timed->lags().end());
      polls += timed->polls();
      shed_total += shed;
      offered_traced += report.offered;
    }
    std::fprintf(stderr,
                 "perfbench: serve_open replay %zu%s: %zu offered, %zu "
                 "completed, %zu shed, p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
                 r, traced ? " (traced)" : "", report.offered,
                 report.completed, shed, report.p50 * 1e6, report.p95 * 1e6,
                 report.p99 * 1e6);
    pool.reset();
  }

  if (opt.trace) {
    const std::pair<const char*, double> own[] = {
        {"serve.submit_ns", spans.total_ns("load.try_submit") /
                                static_cast<double>(offered_traced)},
        {"serve.wait_ns", spans.total_ns("load.poll_sweep") /
                              static_cast<double>(completed[1])},
        {"serve.rejected", static_cast<double>(shed_total)},
        {"load.submit_lag_p99_us", quantile(lags, 0.99) * 1e6},
        {"load.polls_per_req",
         static_cast<double>(polls) / static_cast<double>(completed[1])},
        {"load.shed", static_cast<double>(shed_total)},
        {"load.sojourn_p99_us", median(p99)},
        // Throughput is pinned by the trace rate, so tracing's cost shows
        // in the median sojourn instead.
        {"obs.trace_overhead", median(p50[1]) / median(p50[0]) - 1.0},
    };
    LadderSpec ladder;
    ladder.net = net.get();
    ladder.window.assign(inputs.begin(), inputs.begin() + kChunk);
    ladder.serve_seed = serve_seed;
    ladder.timeline = timeline;
    const auto& first = collected[0][0];
    if (first.size() >= kChunk) {
      const Delivered served = digest_results(
          std::span<const serve::RequestResult>(first).first(kChunk), 0);
      if (served.in_order) ladder.served_checksum = served.checksum;
    }
    ladder.replay_rung = false;  // the main phase is the replay
    ladder.rung_seconds = opt.tiny ? 0.02 : 0.25;
    run_ladder(run, ladder);
    for (const auto& [name, value] : own) out.set(name, value);
  } else {
    out.set("throughput_rps", static_cast<double>(completed[0]) / wall[0]);
    out.set("p50_us", median(p50[0]));
    out.set("p95_us", median(p95[0]));
    out.set("peak_rss_mb", peak_rss_self_mb());
    // The same deterministic net and timeline are rebuilt.
    out.set("setup_s", repeat_setup(opt, set_up));
    pool.reset();
  }

  // Every replay's outputs, window by window, against the in-process
  // reference: the results must be ids 0, 1, ... in order, one per
  // arrival, with each window's digest. Shedding would shift ids off their
  // arrivals, so a replay that shed (already failed above) is not
  // compared.
  std::vector<std::size_t> sizes;
  for (std::size_t done = 0; done < trace.size(); done += kChunk) {
    sizes.push_back(std::min(kChunk, trace.size() - done));
  }
  auto reference = reference_checksums(
      *net, pool_config(serve_seed), timeline, sizes,
      [&](std::size_t k, std::size_t i) -> const std::vector<double>& {
        return inputs[(k * kChunk + i) % kInputs];
      });
  if (opt.corrupt_reference) reference[0] ^= 1;
  for (std::size_t r = 0; r < collected.size(); ++r) {
    if (shed_in[r] > 0) continue;
    const std::span<const serve::RequestResult> results(collected[r][0]);
    if (results.size() != trace.size()) {
      out.fail(trace.size(), true,
               "replay " + std::to_string(r) + " delivered " +
                   std::to_string(results.size()) + " results for " +
                   std::to_string(trace.size()) + " arrivals");
      continue;
    }
    std::uint64_t wrong = 0;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const Delivered window =
          digest_results(results.subspan(k * kChunk, sizes[k]), k * kChunk);
      if (!window.in_order || window.checksum != reference[k]) {
        wrong += sizes[k];
      }
    }
    if (wrong > 0) {
      out.fail(wrong, true,
               "open-loop outputs missed the in-process reference or came "
               "under the wrong ids");
    }
  }
}

}  // namespace perfbench
