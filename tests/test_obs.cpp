// Observability tests: the tracing core (per-thread rings, balanced
// spans, unique ids, ring-wrap accounting, the pinned zero-event disabled
// path), the metrics registry (sharded counters under contention, the
// log-bucketed histogram, snapshot/reset semantics), SampleHistogram
// equivalence with the one-off percentile math it replaced, the JSON
// exporters round-tripping the strict lint, and the end-to-end story:
// tracing on/off is invisible to the bit-pinned serving outputs, and a
// SIGKILLed worker loses only its unflushed ring while the host-side
// fault instants survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "nn/builder.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "serve/pool.hpp"
#include "transport/host.hpp"
#include "transport/worker.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wnf::obs {
namespace {

/// In a WNF_OBS_TRACING=OFF build record() compiles out: tests that
/// assert on recorded events skip themselves (the disabled-path and
/// registry/exporter/bit-identity tests still run — those surfaces exist
/// in every build).
#define SKIP_WITHOUT_RECORDING()                                     \
  if (!WNF_OBS_ENABLED) {                                            \
    GTEST_SKIP() << "tracing compiled out (WNF_OBS_TRACING=OFF)";    \
  }

/// Every trace test runs inside one of these: fresh rings on entry, and
/// tracing switched off + rings dropped again on exit so no test leaks
/// events (or an enabled flag) into the next.
struct TraceSandbox {
  explicit TraceSandbox(bool enable = true) {
    set_enabled(false);
    TraceLog::instance().reset();
    set_enabled(enable);
  }
  ~TraceSandbox() {
    set_enabled(false);
    TraceLog::instance().reset();
  }
};

nn::FeedForwardNetwork obs_net(std::uint64_t seed = 3) {
  Rng rng(seed);
  return nn::NetworkBuilder(3)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(7)
      .hidden(5)
      .init(nn::InitKind::kUniform, 0.5)
      .build(rng);
}

std::vector<std::vector<double>> obs_workload(std::size_t count,
                                              std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<std::vector<double>> workload(count);
  for (auto& x : workload) {
    x = {rng.uniform(), rng.uniform(), rng.uniform()};
  }
  return workload;
}

/// Max span-nesting-stack imbalance over one thread's events; 0 means
/// every begin met its end in LIFO order.
bool spans_balance(const std::vector<TraceEvent>& events) {
  int depth = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kSpanBegin) ++depth;
    if (event.kind == EventKind::kSpanEnd) {
      if (depth == 0) return false;  // end without a begin
      --depth;
    }
  }
  return depth == 0;
}

// ------------------------------------------------------------ trace core

TEST(Trace, SpansBalancePerThreadAcrossThreads) {
  SKIP_WITHOUT_RECORDING();
  TraceSandbox sandbox;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const ScopedSpan outer(TraceName::kExecute, std::uint64_t(i));
        const ScopedSpan inner(TraceName::kWorkerExecute);
        instant(TraceName::kDeliver, std::uint64_t(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto collected = TraceLog::instance().collect();
  std::size_t ring_count = 0;
  for (const ThreadEvents& ring : collected) {
    if (ring.events.empty()) continue;
    ++ring_count;
    EXPECT_TRUE(spans_balance(ring.events)) << "ring " << ring.tid;
    EXPECT_EQ(ring.dropped, 0u);
    std::size_t begins = 0;
    std::size_t ends = 0;
    for (const TraceEvent& event : ring.events) {
      if (event.kind == EventKind::kSpanBegin) ++begins;
      if (event.kind == EventKind::kSpanEnd) ++ends;
      EXPECT_GT(event.ts_ns, 0u);
    }
    EXPECT_EQ(begins, std::size_t{2 * kSpansPerThread});
    EXPECT_EQ(ends, begins);
  }
  EXPECT_EQ(ring_count, std::size_t{kThreads});
}

TEST(Trace, TimestampsAreMonotonicPerThread) {
  SKIP_WITHOUT_RECORDING();
  TraceSandbox sandbox;
  for (int i = 0; i < 200; ++i) instant(TraceName::kDeliver, std::uint64_t(i));
  const auto collected = TraceLog::instance().collect();
  ASSERT_FALSE(collected.empty());
  for (const ThreadEvents& ring : collected) {
    for (std::size_t i = 1; i < ring.events.size(); ++i) {
      EXPECT_GE(ring.events[i].ts_ns, ring.events[i - 1].ts_ns);
    }
  }
}

TEST(Trace, SpanIdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kIdsPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &per_thread] {
      per_thread[t].reserve(kIdsPerThread);
      for (int i = 0; i < kIdsPerThread; ++i) {
        per_thread[t].push_back(next_span_id());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<std::uint64_t> seen;
  for (const auto& ids : per_thread) {
    for (const std::uint64_t id : ids) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(seen.size(), std::size_t{kThreads * kIdsPerThread});
}

TEST(Trace, DisabledPathRecordsExactlyNothing) {
  TraceSandbox sandbox(/*enable=*/false);
  ASSERT_FALSE(enabled());
  for (int i = 0; i < 100; ++i) {
    span_begin(TraceName::kExecute, std::uint64_t(i));
    span_end(TraceName::kExecute, std::uint64_t(i));
    async_begin(TraceName::kRequest, std::uint64_t(i));
    async_end(TraceName::kRequest, std::uint64_t(i));
    instant(TraceName::kSigkill, std::uint64_t(i));
    counter(TraceName::kQueueDepth, std::uint64_t(i));
    const ScopedSpan span(TraceName::kTrialStream);
  }
  EXPECT_EQ(TraceLog::instance().total_events(), 0u);
  EXPECT_TRUE(TraceLog::instance().collect().empty());
}

TEST(Trace, ScopedSpanArmsOnConstruction) {
  SKIP_WITHOUT_RECORDING();
  TraceSandbox sandbox;
  {
    const ScopedSpan span(TraceName::kExecute, 9);
    // Switched off mid-span: the armed destructor still writes the end,
    // so the ring never holds a dangling begin.
    set_enabled(false);
  }
  set_enabled(true);
  const auto collected = TraceLog::instance().collect();
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const ThreadEvents& ring : collected) {
    for (const TraceEvent& event : ring.events) {
      if (event.kind == EventKind::kSpanBegin) ++begins;
      if (event.kind == EventKind::kSpanEnd) ++ends;
    }
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
}

TEST(Trace, RingWrapKeepsNewestEventsAndCountsDropped) {
  SKIP_WITHOUT_RECORDING();
  TraceSandbox sandbox;
  TraceLog::instance().set_ring_capacity(64);
  TraceLog::instance().reset();  // rebuild this thread's ring at 64 slots
  constexpr std::uint64_t kEvents = 200;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    instant(TraceName::kDeliver, i);
  }
  const auto collected = TraceLog::instance().collect();
  ASSERT_EQ(collected.size(), 1u);
  const ThreadEvents& ring = collected[0];
  EXPECT_EQ(ring.events.size(), 64u);
  EXPECT_EQ(ring.dropped, kEvents - 64);
  // Oldest-first, and the survivors are exactly the newest events.
  for (std::size_t i = 0; i < ring.events.size(); ++i) {
    EXPECT_EQ(ring.events[i].id, kEvents - 64 + i);
  }
  TraceLog::instance().set_ring_capacity(std::size_t{1} << 15);
}

TEST(Trace, DrainThreadRingEmptiesOnlyTheCaller) {
  SKIP_WITHOUT_RECORDING();
  TraceSandbox sandbox;
  instant(TraceName::kDeliver, 1);
  instant(TraceName::kDeliver, 2);
  auto [events, dropped] = TraceLog::instance().drain_thread_ring();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, 1u);
  EXPECT_EQ(events[1].id, 2u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(TraceLog::instance().total_events(), 0u);
  instant(TraceName::kDeliver, 3);  // the drained ring keeps recording
  EXPECT_EQ(TraceLog::instance().total_events(), 1u);
}

TEST(Trace, IngestedRemoteEventsCountTowardTotals) {
  TraceSandbox sandbox;
  std::vector<TraceEvent> events(3);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i] = {1000 + i, i, 0, TraceName::kWorkerExecute,
                 EventKind::kInstant};
  }
  TraceLog::instance().ingest_remote(4242, 0, -500, events, 7);
  const auto remote = TraceLog::instance().remote();
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_EQ(remote[0].pid, 4242u);
  EXPECT_EQ(remote[0].clock_offset_ns, -500);
  EXPECT_EQ(remote[0].dropped, 7u);
  EXPECT_EQ(remote[0].events.size(), 3u);
  EXPECT_EQ(TraceLog::instance().total_events(), 3u);
  TraceLog::instance().reset();
  EXPECT_TRUE(TraceLog::instance().remote().empty());
}

// -------------------------------------------------------------- metrics

TEST(Metrics, CounterIsExactUnderContention) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), std::int64_t{kThreads} * kAddsPerThread);
  counter.add(-5);
  EXPECT_EQ(counter.value(), std::int64_t{kThreads} * kAddsPerThread - 5);
  counter.reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(Metrics, LogHistogramBucketsWithinOneOctave) {
  LogHistogram hist;
  Rng rng(11);
  double min_seen = 1e300;
  double max_seen = 0.0;
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(1e-6, 1e-2);
    hist.observe(x);
    min_seen = std::min(min_seen, x);
    max_seen = std::max(max_seen, x);
    sum += x;
  }
  EXPECT_EQ(hist.count(), 5000u);
  EXPECT_DOUBLE_EQ(hist.min(), min_seen);
  EXPECT_DOUBLE_EQ(hist.max(), max_seen);
  EXPECT_NEAR(hist.sum(), sum, 1e-9 * sum);
  // quantile() answers from bucket upper bounds: within one power of two
  // of the exact value.
  std::vector<double> xs;
  xs.reserve(5000);
  Rng replay_rng(11);
  for (int i = 0; i < 5000; ++i) xs.push_back(replay_rng.uniform(1e-6, 1e-2));
  const double exact = percentile(xs, 0.5);
  const double est = hist.quantile(0.5);
  EXPECT_GE(est, exact);
  EXPECT_LE(est, exact * 2.0);
}

TEST(Metrics, RegistrySnapshotIsSortedAndResetKeepsPointers) {
  MetricsRegistry registry;
  Counter* b = &registry.counter("b.second");
  Counter* a = &registry.counter("a.first");
  LogHistogram* h = &registry.histogram("z.latency");
  a->add(3);
  b->add(5);
  h->observe(0.25);
  EXPECT_EQ(&registry.counter("a.first"), a);  // lookup is idempotent

  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first");
  EXPECT_EQ(snapshot.counters[0].value, 3);
  EXPECT_EQ(snapshot.counters[1].name, "b.second");
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);

  registry.reset();
  EXPECT_EQ(a->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  a->add(1);  // cached pointers stay valid across reset (the rebind path)
  EXPECT_EQ(registry.snapshot().counters[0].value, 1);
}

TEST(Metrics, SampleHistogramMatchesPercentileMath) {
  SampleHistogram hist;
  Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 1777; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    hist.add(x);
    xs.push_back(x);
  }
  const Quantiles q = hist.quantiles();
  EXPECT_DOUBLE_EQ(q.p50, percentile(xs, 0.50));
  EXPECT_DOUBLE_EQ(q.p95, percentile(xs, 0.95));
  EXPECT_DOUBLE_EQ(q.p99, percentile(xs, 0.99));
  EXPECT_DOUBLE_EQ(q.p999, percentile(xs, 0.999));
  EXPECT_DOUBLE_EQ(hist.quantile(0.25), percentile(xs, 0.25));
  const Summary summary = hist.summary();
  const Summary expected = summarize(xs);
  EXPECT_DOUBLE_EQ(summary.mean, expected.mean);
  EXPECT_DOUBLE_EQ(summary.max, expected.max);

  const SampleHistogram empty;
  const Quantiles zeros = empty.quantiles();
  EXPECT_EQ(zeros.p50, 0.0);
  EXPECT_EQ(zeros.p999, 0.0);
}

// ------------------------------------------------------------- exporters

TEST(Export, ChromeTraceRoundTripsStrictJsonLint) {
  SKIP_WITHOUT_RECORDING();
  TraceSandbox sandbox;
  {
    const ScopedSpan span(TraceName::kDispatch, 1, 2);
    async_begin(TraceName::kWire, 42, 0);
    instant(TraceName::kSigkill, 0, 9999);
    instant(TraceName::kRespawn, 0, 10000);
    instant(TraceName::kRebindEvent, 1);
    counter(TraceName::kQueueDepth, 5);
    async_end(TraceName::kWire, 42);
  }
  // A fake worker flush: one span pair plus an instant, in the worker's
  // own clock domain with a large offset the exporter must apply.
  std::vector<TraceEvent> worker_events = {
      {100, 7, 3, TraceName::kWorkerExecute, EventKind::kSpanBegin},
      {200, 7, 0, TraceName::kWorkerExecute, EventKind::kSpanEnd},
      {300, 0, 1, TraceName::kWorkerFlush, EventKind::kInstant},
  };
  TraceLog::instance().ingest_remote(31337, 0, 1'000'000'000, worker_events,
                                     2);

  std::ostringstream out;
  const ChromeTraceSummary summary = write_chrome_trace(out);
  EXPECT_EQ(summary.events, 11u);
  EXPECT_EQ(summary.host_threads, 1u);
  EXPECT_EQ(summary.worker_processes, 1u);
  EXPECT_EQ(summary.worker_span_processes, 1u);
  EXPECT_EQ(summary.sigkill_instants, 1u);
  EXPECT_EQ(summary.respawn_instants, 1u);
  EXPECT_EQ(summary.rebind_instants, 1u);
  EXPECT_EQ(summary.dropped, 2u);

  const std::string text = out.str();
  const JsonLintResult lint = json_lint(text);
  EXPECT_TRUE(lint.ok) << lint.error << " at offset " << lint.error_offset;
  // The catalogue names appear as strings, not enum ordinals.
  EXPECT_NE(text.find(trace_name_string(TraceName::kWorkerExecute)),
            std::string::npos);
  EXPECT_NE(text.find(trace_name_string(TraceName::kSigkill)),
            std::string::npos);
}

TEST(Export, EmptyTraceIsStillValidJson) {
  TraceSandbox sandbox(/*enable=*/false);
  std::ostringstream out;
  const ChromeTraceSummary summary = write_chrome_trace(out);
  EXPECT_EQ(summary.events, 0u);
  const JsonLintResult lint = json_lint(out.str());
  EXPECT_TRUE(lint.ok) << lint.error;
}

TEST(Export, MetricsJsonRoundTripsStrictJsonLint) {
  MetricsRegistry registry;
  registry.counter("transport.shed").add(12);
  registry.histogram("transport.completion_time").observe(0.125);
  registry.histogram("transport.completion_time").observe(3.5);
  std::vector<NamedSnapshot> registries;
  registries.push_back({"fleet0", registry.snapshot()});
  const std::vector<TimeSeriesSample> series = {
      {0.5, 0, 100.0, 97.5, 2.5},
      {1.0, 1, 50.0, 50.0, 0.0},
  };
  std::ostringstream out;
  write_metrics_json(out, registries, series);
  const std::string text = out.str();
  const JsonLintResult lint = json_lint(text);
  EXPECT_TRUE(lint.ok) << lint.error << " at offset " << lint.error_offset;
  EXPECT_NE(text.find("transport.shed"), std::string::npos);
  EXPECT_NE(text.find("completed_rps"), std::string::npos);
}

TEST(Export, JsonLintRejectsNearMisses) {
  EXPECT_TRUE(json_lint("{\"a\": [1, 2.5e-3, null, true]}").ok);
  EXPECT_FALSE(json_lint("{\"a\": 1,}").ok);     // trailing comma
  EXPECT_FALSE(json_lint("{\"a\": 01}").ok);     // leading zero
  EXPECT_FALSE(json_lint("[1] []").ok);          // trailing garbage
  EXPECT_FALSE(json_lint("{\"a\": .5}").ok);     // bare fraction
  EXPECT_FALSE(json_lint("\"\\ud800\"").ok);     // lone surrogate
  EXPECT_FALSE(json_lint("").ok);                // no value at all
  const JsonLintResult bad = json_lint("{\"a\": nul}");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
}

// ------------------------------------------------- serving integration

TEST(ObsIntegration, PoolOutputsBitIdenticalWithTracingOnAndOff) {
  const auto net = obs_net();
  const auto workload = obs_workload(40);
  serve::ServeConfig config;
  config.replicas = 2;
  config.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  config.seed = 77;

  std::vector<serve::RequestResult> quiet;
  {
    TraceSandbox sandbox(/*enable=*/false);
    serve::ReplicaPool pool(net, config);
    EXPECT_EQ(pool.submit_batch(workload), workload.size());
    quiet = pool.drain();
    EXPECT_EQ(TraceLog::instance().total_events(), 0u);
  }

  TraceSandbox sandbox;
  serve::ReplicaPool pool(net, config);
  EXPECT_EQ(pool.submit_batch(workload), workload.size());
  const auto traced = pool.drain();

  ASSERT_EQ(traced.size(), quiet.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i].id, quiet[i].id);
    EXPECT_DOUBLE_EQ(traced[i].output, quiet[i].output);
    EXPECT_DOUBLE_EQ(traced[i].completion_time, quiet[i].completion_time);
    EXPECT_EQ(traced[i].resets_sent, quiet[i].resets_sent);
  }

  // Bit-identity holds in every build; the event assertions below need a
  // build that can record.
  if (!WNF_OBS_ENABLED) return;

  // Every accepted request opened and closed its kRequest async pair, and
  // the replica-thread execute spans balance.
  std::size_t request_begins = 0;
  std::size_t request_ends = 0;
  const auto collected = TraceLog::instance().collect();
  for (const ThreadEvents& ring : collected) {
    EXPECT_TRUE(spans_balance(ring.events)) << "ring " << ring.tid;
    for (const TraceEvent& event : ring.events) {
      if (event.name != TraceName::kRequest) continue;
      if (event.kind == EventKind::kAsyncBegin) ++request_begins;
      if (event.kind == EventKind::kAsyncEnd) ++request_ends;
    }
  }
  EXPECT_EQ(request_begins, workload.size());
  EXPECT_EQ(request_ends, workload.size());

  const MetricsSnapshot snapshot = pool.metrics().snapshot();
  bool saw_completion = false;
  for (const auto& row : snapshot.histograms) {
    if (row.name == "serve.completion_time") {
      saw_completion = true;
      EXPECT_EQ(row.count, workload.size());
    }
  }
  EXPECT_TRUE(saw_completion);
}

TEST(ObsIntegration, WorkerRingFlushSurvivesSigkill) {
  if (!transport::transport_available()) {
    GTEST_SKIP() << "no POSIX fork/socketpair on this platform";
  }
  const auto net = obs_net(13);
  const auto workload = obs_workload(48, 21);
  transport::TransportConfig config;
  config.workers = 2;
  config.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  config.seed = 4242;

  std::vector<serve::RequestResult> quiet;
  {
    TraceSandbox sandbox(/*enable=*/false);
    transport::WorkerHost reference(net, config);
    reference.set_crash_script({{0, 12, 30}});
    EXPECT_EQ(reference.submit_batch(workload), workload.size());
    quiet = reference.drain();
  }

  TraceSandbox sandbox;
  serve::ServeReport report;
  {
    transport::WorkerHost host(net, config);
    host.set_crash_script({{0, 12, 30}});
    EXPECT_EQ(host.submit_batch(workload), workload.size());
    const auto traced = host.drain();
    report = host.report();
    EXPECT_EQ(report.worker_restarts, 1u);

    ASSERT_EQ(traced.size(), quiet.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
      EXPECT_EQ(traced[i].id, quiet[i].id);
      EXPECT_DOUBLE_EQ(traced[i].output, quiet[i].output);
    }
    // Host destructor: workers get Shutdown, flush their rings as
    // Telemetry frames, and the host ingests them before closing.
  }

  if (!WNF_OBS_ENABLED) return;  // below: recorded-event assertions

  std::size_t sigkills = 0;
  std::size_t respawns = 0;
  std::size_t resubmits = 0;
  for (const ThreadEvents& ring : TraceLog::instance().collect()) {
    for (const TraceEvent& event : ring.events) {
      if (event.kind != EventKind::kInstant) continue;
      if (event.name == TraceName::kSigkill) ++sigkills;
      if (event.name == TraceName::kRespawn) ++respawns;
      if (event.name == TraceName::kResubmit) ++resubmits;
    }
  }
  // The kill and the recovery are host-side instants: they survive no
  // matter what the victim's ring held.
  EXPECT_EQ(sigkills, 1u);
  EXPECT_EQ(respawns, 1u);
  EXPECT_EQ(resubmits, report.resubmitted);

  // The survivor and the respawned worker flushed at shutdown; the
  // victim's unflushed events died with it (by design). Each flushing pid
  // shipped real execute spans.
  const auto remote = TraceLog::instance().remote();
  std::set<std::uint32_t> pids;
  for (const RemoteEvents& batch : remote) {
    bool executed = false;
    for (const TraceEvent& event : batch.events) {
      if (event.name == TraceName::kWorkerExecute) executed = true;
    }
    if (executed) pids.insert(batch.pid);
  }
  EXPECT_GE(pids.size(), 2u);
}

// --------------------------------------------------- histogram error bound

// Satellite pin for the documented LogHistogram error bound: quantile()
// answers from bucket upper bounds, so against the EXACT answer from a
// util::SampleHistogram fed the identical values, the estimate q for a
// true quantile v must satisfy v <= q < 2v (one-sided, under one octave)
// — at p50 and at the p99 the latency reports lean on, across several
// distributions and magnitudes.
TEST(Metrics, LogHistogramQuantilesPinnedAgainstExactHistogram) {
  const auto pin_one = [](std::uint64_t seed, double lo, double hi,
                          bool exponentiate) {
    LogHistogram log_hist;
    SampleHistogram exact_hist;
    Rng rng(seed);
    for (int i = 0; i < 4000; ++i) {
      double x = rng.uniform(lo, hi);
      if (exponentiate) x = std::exp(x);  // a heavy right tail
      log_hist.observe(x);
      exact_hist.add(x);
    }
    for (const double p : {0.50, 0.99}) {
      const double exact = exact_hist.quantile(p);
      const double estimate = log_hist.quantile(p);
      EXPECT_GE(estimate, exact)
          << "under-report at p=" << p << " seed=" << seed;
      EXPECT_LT(estimate, exact * 2.0)
          << "over an octave at p=" << p << " seed=" << seed;
    }
  };
  pin_one(11, 1e-6, 1e-2, false);   // microseconds-to-10ms latencies
  pin_one(12, 0.5, 400.0, false);   // O(1)..O(100) values
  pin_one(13, -6.0, 4.0, true);     // log-uniform across ten octaves
}

// ------------------------------------------------------------ snapshotter

/// Lints a snapshot stream file line by line; returns the lines (header
/// included) and requires the header to come first.
std::vector<std::string> read_and_lint_stream(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonLintResult lint = json_lint(line);
    EXPECT_TRUE(lint.ok) << path << " line " << lines.size() << ": "
                         << lint.error;
    lines.push_back(line);
  }
  EXPECT_FALSE(lines.empty()) << path;
  if (!lines.empty()) {
    EXPECT_NE(lines[0].find("\"kind\":\"header\""), std::string::npos);
  }
  return lines;
}

TEST(Snapshot, StreamLintsWindowsAreContiguousAndDeltasWindowLocal) {
  MetricsRegistry registry;
  Counter& requests = registry.counter("t.requests");
  LogHistogram& latency = registry.histogram("t.latency");
  const std::string path = "test_obs_snapshot_stream.jsonl";

  SnapshotterConfig config;
  config.path = path;
  config.interval_seconds = 0.01;
  config.label = "test_stream";
  Snapshotter snapshotter(config);
  snapshotter.add_source("app", &registry);
  ASSERT_TRUE(snapshotter.start());
  EXPECT_TRUE(snapshotter.running());

  requests.add(5);
  latency.observe(0.002);
  while (snapshotter.windows() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  requests.add(7);
  latency.observe(0.004);
  snapshotter.stop();
  EXPECT_FALSE(snapshotter.running());
  const std::uint64_t windows = snapshotter.windows();
  EXPECT_GE(windows, 2u);  // at least one periodic + the final partial

  const auto lines = read_and_lint_stream(path);
  ASSERT_EQ(lines.size(), windows + 1);
  // Window seqs are contiguous from 0, and the per-window deltas of
  // t.requests sum to everything that was ever added — windows partition
  // the counter's history, they never double-count or drop.
  std::int64_t total_delta = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    long seq = -1;
    const std::size_t at = lines[i].find("\"seq\":");
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(std::sscanf(lines[i].c_str() + at, "\"seq\":%ld", &seq), 1);
    EXPECT_EQ(seq, static_cast<long>(i - 1));
    const std::size_t row = lines[i].find("\"name\":\"t.requests\",\"delta\":");
    if (row != std::string::npos) {
      long long delta = 0;
      ASSERT_EQ(std::sscanf(lines[i].c_str() + row,
                            "\"name\":\"t.requests\",\"delta\":%lld", &delta),
                1);
      total_delta += delta;
    }
  }
  EXPECT_EQ(total_delta, 12);
  std::remove(path.c_str());
}

TEST(Snapshot, RegistryResetIsDetectedAndReportedPerWindow) {
  MetricsRegistry registry;
  Counter& requests = registry.counter("t.requests");
  requests.add(100);  // nonzero BEFORE start: the baseline is 100
  const std::string path = "test_obs_snapshot_reset.jsonl";

  SnapshotterConfig config;
  config.path = path;
  config.interval_seconds = 0.01;
  Snapshotter snapshotter(config);
  snapshotter.add_source("app", &registry);
  ASSERT_TRUE(snapshotter.start());

  // The rebind pattern: the deployment resets its registry (counters go
  // BACKWARDS vs the sampler's baseline) and keeps counting from zero.
  registry.reset();
  requests.add(1);
  snapshotter.stop();

  bool saw_reset = false;
  for (const auto& line : read_and_lint_stream(path)) {
    if (line.find("\"reset\":true") != std::string::npos) saw_reset = true;
  }
  EXPECT_TRUE(saw_reset);
  // The meta registry saw it too (obs.snapshot.source_resets).
  bool counted = false;
  for (const auto& row : snapshotter.metrics().snapshot().counters) {
    if (row.name == "obs.snapshot.source_resets") counted = row.value >= 1;
  }
  EXPECT_TRUE(counted);
  std::remove(path.c_str());
}

TEST(Snapshot, TenantSamplesLandInTheCurrentWindow) {
  const std::string path = "test_obs_snapshot_tenants.jsonl";
  SnapshotterConfig config;
  config.path = path;
  config.interval_seconds = 60.0;  // only the final flush-on-stop window
  Snapshotter snapshotter(config);
  ASSERT_TRUE(snapshotter.start());
  TenantSample sample;
  sample.t_s = 0.5;
  sample.tenant = "acme";
  sample.offered_rps = 100.0;
  sample.completed_rps = 90.0;
  sample.shed_rps = 10.0;
  sample.slo_attainment = 0.9;
  snapshotter.add_tenant_sample(sample);
  snapshotter.stop();
  EXPECT_EQ(snapshotter.windows(), 1u);

  const auto lines = read_and_lint_stream(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"slo\":0.9"), std::string::npos);
}

// --------------------------------------------------------------- watchdog

/// Reads one obs.watchdog.* counter from a watchdog's registry.
std::int64_t watchdog_counter(const Watchdog& watchdog, const char* name) {
  for (const auto& row : watchdog.metrics().snapshot().counters) {
    if (row.name == name) return row.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return -1;
}

TEST(Watchdog, EscalationLadderFiresExactlyOncePerEpisode) {
  // Deterministic ladder walk through the synchronous tick() seam: a
  // synthetic channel whose odometer the test freezes and advances.
  WatchdogConfig config;
  config.stall_seconds = 0.03;
  config.degrade_seconds = 0.06;
  config.respawn_seconds = 0.09;
  Watchdog watchdog(config);
  std::atomic<std::uint64_t> odometer{0};
  std::atomic<bool> active{true};
  const std::size_t channel = watchdog.add_channel(
      "synthetic", [&] { return odometer.load(); },
      [&] { return active.load(); });

  std::vector<StallEvent> stalls;
  watchdog.set_stall_callback(
      [&stalls](const StallEvent& event) { stalls.push_back(event); });
  std::vector<std::size_t> respawned;
  watchdog.set_respawn(
      [&respawned](std::size_t which) { respawned.push_back(which); });

  watchdog.tick();  // fresh channel: within deadline
  EXPECT_EQ(watchdog.health(channel), ChannelHealth::kHealthy);
  EXPECT_TRUE(stalls.empty());

  // Freeze past every deadline, ticking repeatedly: each ladder stage and
  // its side effects must fire exactly once for this single episode.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 5; ++i) watchdog.tick();
  EXPECT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].channel, channel);
  EXPECT_EQ(stalls[0].name, "synthetic");
  EXPECT_GE(stalls[0].stalled_seconds, config.stall_seconds);
  ASSERT_EQ(respawned.size(), 1u);
  EXPECT_EQ(respawned[0], channel);
  EXPECT_EQ(watchdog.health(channel), ChannelHealth::kDegraded);
  EXPECT_EQ(watchdog_counter(watchdog, "obs.watchdog.stalls"), 1);
  EXPECT_EQ(watchdog_counter(watchdog, "obs.watchdog.degraded"), 1);
  EXPECT_EQ(watchdog_counter(watchdog, "obs.watchdog.forced_respawns"), 1);
  EXPECT_EQ(watchdog_counter(watchdog, "obs.watchdog.recoveries"), 0);

  // ANY odometer change closes the episode.
  odometer.fetch_add(1);
  watchdog.tick();
  EXPECT_EQ(watchdog.health(channel), ChannelHealth::kHealthy);
  EXPECT_EQ(watchdog_counter(watchdog, "obs.watchdog.recoveries"), 1);

  // A second wedge is a NEW episode: the callback fires again.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 3; ++i) watchdog.tick();
  EXPECT_EQ(stalls.size(), 2u);
  EXPECT_EQ(respawned.size(), 2u);
}

TEST(Watchdog, InactiveChannelNeverStallsAndRecoveryIsSilent) {
  WatchdogConfig config;
  config.stall_seconds = 0.02;
  Watchdog watchdog(config);
  std::atomic<bool> active{false};
  const std::size_t channel = watchdog.add_channel(
      "idle", [] { return std::uint64_t{7}; },
      [&] { return active.load(); });
  int stall_calls = 0;
  watchdog.set_stall_callback([&stall_calls](const StallEvent&) {
    ++stall_calls;
  });

  // No outstanding work: frozen progress is not a stall, however long.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  watchdog.tick();
  EXPECT_EQ(watchdog.health(channel), ChannelHealth::kHealthy);
  EXPECT_EQ(stall_calls, 0);
  EXPECT_EQ(watchdog_counter(watchdog, "obs.watchdog.stalls"), 0);
  // Going inactive also disarms an armed deadline: activate, wedge, then
  // deactivate before the deadline — still no stall.
  active.store(true);
  watchdog.tick();
  active.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  watchdog.tick();
  EXPECT_EQ(stall_calls, 0);
  // A healthy channel closing an episode that never opened counts no
  // recovery.
  EXPECT_EQ(watchdog_counter(watchdog, "obs.watchdog.recoveries"), 0);
}

TEST(Watchdog, MonitorThreadDetectsAStallWithinTheDeadline) {
  // The threaded path end to end: a wedged channel must be detected
  // within a few poll periods of the stall deadline.
  WatchdogConfig config;
  config.poll_seconds = 0.005;
  config.stall_seconds = 0.05;
  config.degrade_seconds = 60.0;  // never within this test's lifetime
  Watchdog watchdog(config);
  std::atomic<std::uint64_t> odometer{0};
  const std::size_t channel = watchdog.add_channel(
      "wedged", [&] { return odometer.load(); }, [] { return true; });
  std::atomic<int> stall_calls{0};
  watchdog.set_stall_callback([&stall_calls](const StallEvent&) {
    stall_calls.fetch_add(1);
  });
  watchdog.start();
  EXPECT_TRUE(watchdog.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stall_calls.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  watchdog.stop();
  EXPECT_EQ(stall_calls.load(), 1);
  EXPECT_EQ(watchdog.health(channel), ChannelHealth::kStalled);
}

// ------------------------------------------------------------- postmortem

TEST(Postmortem, CounterDeltasAreNameMatchedAndNonzeroOnly) {
  MetricsRegistry registry;
  Counter& frames = registry.counter("t.frames");
  Counter& idle = registry.counter("t.idle");
  frames.add(10);
  idle.add(3);
  const MetricsSnapshot base = registry.snapshot();
  frames.add(5);
  registry.counter("t.born_later").add(2);
  const auto deltas = postmortem_counter_deltas(registry.snapshot(), base);
  ASSERT_EQ(deltas.size(), 2u);  // idle didn't move: not reported
  EXPECT_EQ(deltas[0].name, "t.born_later");
  EXPECT_EQ(deltas[0].delta, 2);
  EXPECT_EQ(deltas[1].name, "t.frames");
  EXPECT_EQ(deltas[1].delta, 5);
}

TEST(Postmortem, ArtifactRoundTripsStrictLintWithEveryField) {
  PostmortemWriter writer(PostmortemConfig{"test_obs_postmortems"});
  PostmortemRecord record;
  record.worker = 3;
  record.pid = 4242;
  record.expected = true;
  record.torn_slots = 1;
  record.deployment = 2;
  record.inflight_ids = {17, 18, 21};
  record.recent = {
      {100, 9, 4, TraceName::kDispatch, EventKind::kInstant},
      {200, 10, 0, TraceName::kSigkill, EventKind::kInstant},
  };
  record.counter_deltas = {{"transport.ring_slots_written", 12}};

  const std::string path = writer.write(record);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(writer.written(), 1u);
  EXPECT_EQ(writer.write_errors(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const JsonLintResult lint = json_lint(text);
  EXPECT_TRUE(lint.ok) << lint.error;
  EXPECT_NE(text.find("\"kind\":\"postmortem\""), std::string::npos);
  EXPECT_NE(text.find("\"worker\":3"), std::string::npos);
  EXPECT_NE(text.find("\"pid\":4242"), std::string::npos);
  EXPECT_NE(text.find("\"expected\":true"), std::string::npos);
  EXPECT_NE(text.find("\"torn_slots\":1"), std::string::npos);
  EXPECT_NE(text.find("\"deployment\":2"), std::string::npos);
  EXPECT_NE(text.find("\"inflight_ids\":[17,18,21]"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"sigkill\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"transport.ring_slots_written\",\"delta\":12"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wnf::obs
