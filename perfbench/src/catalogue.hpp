// Every metric the benchmark emits, with its unit. BENCHMARK.json names the
// same metrics; the self-test checks that the two lists agree and that
// every run emits each of its metrics exactly once.
#pragma once

#include <span>
#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Untraced runs emit these, on every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"throughput_rps", "1/s"}, {"p50_us", "us"},      {"p95_us", "us"},
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
};

/// Traced runs emit these, on every workload.
inline constexpr MetricSpec kPerLayer[] = {
    {"tensor.gemv_ns", "ns"},
    {"tensor.flops", "count"},
    {"tensor.bytes", "B"},
    {"nn.forward_ns", "ns"},
    {"nn.hooked_forward_ns", "ns"},
    {"dist.sim_ns", "ns"},
    {"dist.sim_overhead_ns", "ns"},
    {"serve.pool_ns", "ns"},
    {"serve.submit_ns", "ns"},
    {"serve.wait_ns", "ns"},
    {"serve.rejected", "count"},
    {"transport.ns", "ns"},
    {"transport.overhead_ns", "ns"},
    {"transport.submit_ns", "ns"},
    {"transport.drain_ns", "ns"},
    {"transport.doorbells", "per_1k_req"},
    {"transport.spin_wakeups", "per_batch"},
    {"transport.sleep_wakeups", "per_batch"},
    {"transport.heals", "count"},
    {"transport.worker_restarts", "count"},
    {"transport.resubmitted", "count"},
    {"transport.torn_recovered", "count"},
    {"transport.bind_s", "s"},
    {"transport.worker_rss_mb", "MiB"},
    {"load.submit_lag_p99_us", "us"},
    {"load.polls_per_req", "polls/req"},
    {"load.shed", "count"},
    {"load.sojourn_p99_us", "us"},
    {"exec.injector_trials_ms", "ms"},
    {"exec.serve_trials_ms", "ms"},
    {"fault.make_trials_ms", "ms"},
    {"core.fep_us", "us"},
    {"obs.trace_overhead", "ratio"},
};

}  // namespace perfbench
