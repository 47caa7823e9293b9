#include "load/replay.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace wnf::load {

namespace {

/// What the driver remembers about an admitted request until its result
/// comes back: completions return in id order per pipeline, which is
/// submission order, so a FIFO per pipeline matches results to arrivals
/// without carrying ids around.
struct Submitted {
  double scheduled = 0.0;  ///< wall seconds from replay start
  std::size_t tenant = 0;  ///< index into LoadReport::tenants
};

}  // namespace

LoadReport replay(const ArrivalTrace& trace,
                  std::span<const std::vector<double>> inputs,
                  std::span<Pipeline* const> pipes,
                  const OpenLoopConfig& config,
                  std::vector<std::vector<serve::RequestResult>>* collected) {
  WNF_EXPECTS(!pipes.empty());
  WNF_EXPECTS(!inputs.empty());
  WNF_EXPECTS(config.time_scale > 0.0);
  WNF_EXPECTS(config.idle_nap_seconds >= 0.0);
  const std::chrono::duration<double> idle_nap(config.idle_nap_seconds);
  for (Pipeline* pipe : pipes) {
    WNF_EXPECTS(pipe != nullptr);
    WNF_EXPECTS(pipe->outstanding() == 0);
  }
  if (collected) collected->assign(pipes.size(), {});
  const obs::ScopedSpan replay_span(obs::TraceName::kReplay, 0, trace.size());

  LoadReport report;
  report.offered = trace.size();
  // The trace's distinct tenant ids, ascending, map to dense indices before
  // the clock starts: per-tenant state grows with the number of tenants,
  // not with the largest id, and each arrival costs one vector index.
  // `slot` sorts the ids first, then holds arrival i's index (an index
  // below the count of distinct 32-bit ids fits 32 bits).
  std::vector<std::uint32_t> slot(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    slot[i] = trace.arrivals[i].tenant;
  }
  std::sort(slot.begin(), slot.end());
  const std::vector<std::uint32_t> ids(
      slot.begin(), std::unique(slot.begin(), slot.end()));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    slot[i] = static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), trace.arrivals[i].tenant) -
        ids.begin());
  }
  report.tenants.resize(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) report.tenants[k].tenant = ids[k];
  for (const std::uint32_t k : slot) ++report.tenants[k].offered;

  std::vector<std::deque<Submitted>> submitted(pipes.size());
  SampleHistogram sojourns;
  sojourns.reserve(trace.size());
  std::vector<SampleHistogram> tenant_sojourns(report.tenants.size());

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  double last_delivery = 0.0;

  // Periodic per-tenant rate sampling (config.sample_seconds cadence).
  // Offered counts arrivals whose scheduled instant the driver has
  // reached; completed/shed deltas come straight off the tenant stats.
  std::vector<std::size_t> offered_so_far(report.tenants.size(), 0);
  std::vector<std::size_t> prev_offered(report.tenants.size(), 0);
  std::vector<std::size_t> prev_completed(report.tenants.size(), 0);
  std::vector<std::size_t> prev_shed(report.tenants.size(), 0);
  double next_sample = config.sample_seconds;
  auto bank_sample = [&](double t, double window) {
    for (std::size_t tenant = 0; tenant < report.tenants.size(); ++tenant) {
      const std::size_t off = offered_so_far[tenant] - prev_offered[tenant];
      const std::size_t done =
          report.tenants[tenant].completed - prev_completed[tenant];
      const std::size_t shed = report.tenants[tenant].shed - prev_shed[tenant];
      prev_offered[tenant] = offered_so_far[tenant];
      prev_completed[tenant] = report.tenants[tenant].completed;
      prev_shed[tenant] = report.tenants[tenant].shed;
      report.series.push_back({t, ids[tenant],
                               static_cast<double>(off) / window,
                               static_cast<double>(done) / window,
                               static_cast<double>(shed) / window});
      if (config.snapshotter != nullptr) {
        // The same window, rethreaded into the continuous snapshot
        // stream: SLO attainment is completed over completed+shed (an
        // idle window attains trivially).
        obs::TenantSample sample;
        sample.t_s = t;
        sample.tenant = "tenant" + std::to_string(ids[tenant]);
        sample.offered_rps = static_cast<double>(off) / window;
        sample.completed_rps = static_cast<double>(done) / window;
        sample.shed_rps = static_cast<double>(shed) / window;
        sample.slo_attainment =
            (done + shed) == 0
                ? 1.0
                : static_cast<double>(done) / static_cast<double>(done + shed);
        config.snapshotter->add_tenant_sample(sample);
      }
    }
  };
  auto maybe_sample = [&] {
    if (config.sample_seconds <= 0.0 || report.tenants.empty()) return;
    const double now = elapsed();
    while (now >= next_sample) {
      bank_sample(next_sample, config.sample_seconds);
      next_sample += config.sample_seconds;
    }
  };

  // One sweep over every pipeline: pump each one and bank whatever has
  // finished. Sojourn is measured from the *scheduled* arrival, so any
  // driver lateness is charged to the requests that suffered it
  // (coordinated omission is impossible by construction).
  auto harvest = [&] {
    bool any = false;
    serve::RequestResult ready;
    for (std::size_t p = 0; p < pipes.size(); ++p) {
      while (pipes[p]->poll(ready)) {
        any = true;
        WNF_ASSERT(!submitted[p].empty());
        const Submitted entry = submitted[p].front();
        submitted[p].pop_front();
        last_delivery = elapsed();
        const double sojourn = last_delivery - entry.scheduled;
        sojourns.add(sojourn);
        tenant_sojourns[entry.tenant].add(sojourn);
        ++report.completed;
        ++report.tenants[entry.tenant].completed;
        if (collected) (*collected)[p].push_back(ready);
      }
    }
    return any;
  };

  for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
    const Arrival& arrival = trace.arrivals[i];
    const double target = arrival.time * config.time_scale;
    // Hold the schedule: keep every pipeline pumped until this arrival's
    // instant, napping only when nothing completed.
    while (true) {
      const double remaining = target - elapsed();
      if (remaining <= 0.0) break;
      if (!harvest() && config.idle_nap_seconds > 0.0) {
        std::this_thread::sleep_for(
            std::min(idle_nap, std::chrono::duration<double>(remaining)));
      }
      maybe_sample();
    }
    const std::size_t k = slot[i];
    ++offered_so_far[k];
    maybe_sample();

    TenantStats& tenant = report.tenants[k];
    if (config.slo_seconds > 0.0 &&
        elapsed() - target > config.slo_seconds) {
      ++report.shed_slo;
      ++tenant.shed;
      continue;
    }
    const std::size_t p = arrival.tenant % pipes.size();
    if (config.admission_limit > 0 &&
        pipes[p]->outstanding() >= config.admission_limit) {
      ++report.shed_admission;
      ++tenant.shed;
      continue;
    }
    if (!pipes[p]->try_submit(inputs[i % inputs.size()])) {
      ++report.shed_queue;
      ++tenant.shed;
      continue;
    }
    ++report.admitted;
    ++tenant.admitted;
    submitted[p].push_back({target, k});
  }

  // Tail drain: the schedule is over, but the open-loop contract still
  // owes every admitted request a delivery.
  auto any_outstanding = [&pipes] {
    for (Pipeline* pipe : pipes) {
      if (pipe->outstanding() > 0) return true;
    }
    return false;
  };
  while (any_outstanding()) {
    if (!harvest() && config.idle_nap_seconds > 0.0) {
      std::this_thread::sleep_for(idle_nap);
    }
    maybe_sample();
  }
  WNF_ASSERT(report.completed == report.admitted);
  if (config.sample_seconds > 0.0 && !report.tenants.empty()) {
    // Close the series with the partial final window, if it saw anything.
    const double window_start = next_sample - config.sample_seconds;
    const double window = elapsed() - window_start;
    if (window > 1e-9) bank_sample(elapsed(), window);
  }

  report.wall_seconds = report.completed > 0 ? last_delivery : elapsed();
  const double offered_window = trace.duration * config.time_scale;
  report.offered_rps =
      offered_window > 0.0
          ? static_cast<double>(report.offered) / offered_window
          : 0.0;
  report.completed_rps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;
  const Quantiles q = sojourns.quantiles();
  report.p50 = q.p50;
  report.p95 = q.p95;
  report.p99 = q.p99;
  report.p999 = q.p999;
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    const SampleHistogram& xs = tenant_sojourns[t];
    if (xs.empty()) continue;
    report.tenants[t].p50 = xs.quantile(0.50);
    report.tenants[t].p99 = xs.quantile(0.99);
  }
  return report;
}

std::vector<LoadReport> replay_time_shared(
    transport::WorkerHost& host,
    std::span<const nn::FeedForwardNetwork* const> nets,
    const ArrivalTrace& trace, std::span<const std::vector<double>> inputs,
    const OpenLoopConfig& config,
    std::vector<std::vector<serve::RequestResult>>* collected) {
  WNF_EXPECTS(!nets.empty());
  WNF_EXPECTS(!inputs.empty());
  for (const nn::FeedForwardNetwork* net : nets) WNF_EXPECTS(net != nullptr);
  for (const Arrival& arrival : trace.arrivals) {
    WNF_EXPECTS(arrival.tenant < nets.size());
  }
  if (collected) collected->assign(nets.size(), {});

  std::vector<LoadReport> reports;
  reports.reserve(nets.size());
  for (std::size_t t = 0; t < nets.size(); ++t) {
    // Tenant t's slice, rebased so its first arrival is wall zero (the
    // fleet serves tenants back to back, not on the global clock): the
    // slice report's one tenant entry is tenant t.
    ArrivalTrace slice;
    double first = 0.0;
    bool have_first = false;
    for (const Arrival& arrival : trace.arrivals) {
      if (arrival.tenant != t) continue;
      if (!have_first) {
        first = arrival.time;
        have_first = true;
      }
      slice.arrivals.push_back({arrival.time - first, arrival.tenant});
    }
    slice.duration = have_first ? trace.duration - first : 0.0;

    // One live fleet, many deployments: rebind restarts request ids at 0
    // on the same seed, so each tenant's results are bit-identical to a
    // dedicated freshly constructed host — zero new forks.
    host.rebind(*nets[t]);
    HostPipeline pipe(host);
    Pipeline* const pipes[] = {&pipe};
    std::vector<std::vector<serve::RequestResult>> slice_collected;
    reports.push_back(replay(slice, inputs, pipes, config,
                             collected ? &slice_collected : nullptr));
    WNF_ASSERT(host.pending() == 0);  // the slice fully drained
    if (collected) (*collected)[t] = std::move(slice_collected[0]);
  }
  return reports;
}

}  // namespace wnf::load
