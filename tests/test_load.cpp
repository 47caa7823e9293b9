// Load-subsystem tests: arrival-trace generation (determinism, statistics,
// serialization), wall-clock fault windows resolving onto request ids, and
// the open-loop replayer — shedding policy against scripted pipelines,
// tenant routing, and bit-identity of a replay against a synchronous drain
// of the same admitted traffic (in-process pools and a time-shared
// transport fleet).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "fault/injector.hpp"
#include "load/replay.hpp"
#include "load/trace.hpp"
#include "nn/builder.hpp"
#include "serve/pool.hpp"
#include "serve/timeline.hpp"
#include "tests/text_mutation.hpp"
#include "transport/host.hpp"
#include "transport/worker.hpp"

namespace wnf::load {
namespace {

nn::FeedForwardNetwork load_net(std::uint64_t seed = 3) {
  Rng rng(seed);
  return nn::NetworkBuilder(3)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(7)
      .hidden(5)
      .init(nn::InitKind::kUniform, 0.5)
      .build(rng);
}

std::vector<std::vector<double>> load_workload(std::size_t count,
                                               std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<std::vector<double>> workload(count);
  for (auto& x : workload) {
    x = {rng.uniform(), rng.uniform(), rng.uniform()};
  }
  return workload;
}

dist::LatencyModel heavy_tail() {
  return {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
}

void expect_ascending(const ArrivalTrace& trace) {
  for (std::size_t i = 1; i < trace.arrivals.size(); ++i) {
    EXPECT_LE(trace.arrivals[i - 1].time, trace.arrivals[i].time) << i;
  }
  for (const Arrival& arrival : trace.arrivals) {
    EXPECT_GE(arrival.time, 0.0);
    EXPECT_LT(arrival.time, trace.duration);
  }
}

/// A serving deployment scripted for shedding tests: accepts up to
/// `capacity` outstanding requests and completes one per poll. Results are
/// synthetic — the shedding policy only looks at counts and outstanding().
class StubPipeline final : public Pipeline {
 public:
  explicit StubPipeline(std::size_t capacity = ~std::size_t{0})
      : capacity_(capacity) {}
  bool try_submit(std::vector<double>) override {
    if (held_ >= capacity_) return false;
    ++held_;
    return true;
  }
  bool poll(serve::RequestResult& out) override {
    if (held_ == 0) return false;
    --held_;
    out = {next_id_++, 0.0, 0.0, 0};
    return true;
  }
  std::size_t outstanding() const override { return held_; }
  serve::ServeReport report() const override { return {}; }

 private:
  std::size_t capacity_;
  std::size_t held_ = 0;
  std::uint64_t next_id_ = 0;
};

#define SKIP_WITHOUT_TRANSPORT()                                   \
  if (!transport::transport_available()) {                         \
    GTEST_SKIP() << "no POSIX fork/socketpair on this platform";   \
  }

// ----------------------------------------------------------------- traces

TEST(Trace, PoissonIsDeterministicAscendingAndNearItsRate) {
  Rng rng_a(42);
  Rng rng_b(42);
  const auto a = poisson_trace(200.0, 2.0, rng_a);
  const auto b = poisson_trace(200.0, 2.0, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].time, b.arrivals[i].time);
    EXPECT_EQ(a.arrivals[i].tenant, 0u);
  }
  expect_ascending(a);
  // 400 expected arrivals, sd = 20: a +/-50 % band is a ~10-sigma test.
  EXPECT_GT(a.size(), 200u);
  EXPECT_LT(a.size(), 600u);
  EXPECT_NEAR(a.offered_rate(), 200.0, 100.0);
  // arrival_times() is the resolve_wall feed: same values, same order.
  const auto times = a.arrival_times();
  ASSERT_EQ(times.size(), a.size());
  EXPECT_EQ(times.front(), a.arrivals.front().time);
  EXPECT_EQ(times.back(), a.arrivals.back().time);
}

TEST(Trace, DiurnalIsDeterministicAndBoundedByItsEnvelope) {
  Rng rng_a(7);
  Rng rng_b(7);
  const auto a = diurnal_trace(50.0, 400.0, 1.0, 2.0, rng_a, 3);
  const auto b = diurnal_trace(50.0, 400.0, 1.0, 2.0, rng_b, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].time, b.arrivals[i].time);
    EXPECT_EQ(a.arrivals[i].tenant, 3u);
  }
  expect_ascending(a);
  // Mean rate of the cosine curve is (base + peak) / 2 = 225/s over 2 s;
  // the count must land inside the [base, peak] envelope with margin.
  EXPECT_GT(a.size(), 50u * 2u);
  EXPECT_LT(a.size(), 400u * 2u);
  // The curve troughs at t = 0 and peaks mid-period: the first half of
  // period one must out-arrive its opening tenth by a wide margin.
  std::size_t opening = 0;
  std::size_t mid = 0;
  for (const Arrival& arrival : a.arrivals) {
    if (arrival.time < 0.1) ++opening;
    if (arrival.time >= 0.4 && arrival.time < 0.6) ++mid;
  }
  EXPECT_GT(mid, opening);
}

TEST(Trace, MergeOrdersByTimeAndScaleCompressesTheSchedule) {
  ArrivalTrace first;
  first.arrivals = {{0.1, 0}, {0.4, 0}, {0.9, 0}};
  first.duration = 1.0;
  ArrivalTrace second;
  second.arrivals = {{0.2, 1}, {0.4, 1}, {0.5, 1}};
  second.duration = 0.8;

  const ArrivalTrace traces[] = {first, second};
  const auto merged = merge_traces(traces);
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(merged.duration, 1.0);
  expect_ascending(merged);
  // Stable on the 0.4 tie: the earlier input trace wins.
  EXPECT_EQ(merged.arrivals[2].time, 0.4);
  EXPECT_EQ(merged.arrivals[2].tenant, 0u);
  EXPECT_EQ(merged.arrivals[3].tenant, 1u);

  const auto doubled = scale_rate(merged, 2.0);
  EXPECT_EQ(doubled.duration, 0.5);
  ASSERT_EQ(doubled.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_DOUBLE_EQ(doubled.arrivals[i].time, merged.arrivals[i].time / 2.0);
    EXPECT_EQ(doubled.arrivals[i].tenant, merged.arrivals[i].tenant);
  }
  EXPECT_DOUBLE_EQ(doubled.offered_rate(), merged.offered_rate() * 2.0);
}

TEST(Trace, SaveLoadRoundTripsExactlyAndRejectsMalformedInput) {
  Rng rng(11);
  auto trace = poisson_trace(50.0, 1.0, rng, 2);
  ASSERT_FALSE(trace.empty());

  std::stringstream stream;
  save_trace(trace, stream);
  const auto loaded = load_trace(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->duration, trace.duration);
  ASSERT_EQ(loaded->size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    // 17 significant digits round-trip every double bit-exactly.
    EXPECT_EQ(loaded->arrivals[i].time, trace.arrivals[i].time) << i;
    EXPECT_EQ(loaded->arrivals[i].tenant, trace.arrivals[i].tenant);
  }

  std::istringstream bad_header("# not-a-trace\nduration 1\n");
  EXPECT_FALSE(load_trace(bad_header).has_value());
  std::istringstream descending(
      "# wnf-arrival-trace v1\nduration 1\n0.5 0\n0.2 0\n");
  EXPECT_FALSE(load_trace(descending).has_value());
  std::istringstream past_end(
      "# wnf-arrival-trace v1\nduration 1\n1.5 0\n");
  EXPECT_FALSE(load_trace(past_end).has_value());
  std::istringstream no_duration("# wnf-arrival-trace v1\n0.5 0\n");
  EXPECT_FALSE(load_trace(no_duration).has_value());
  // Each line takes exactly its tokens, and a tenant is unsigned decimal
  // digits that fit in 32 bits: nothing is read as something else.
  for (const char* line :
       {"0.5 -1", "0.5 +3", "0.5 1e3", "0.5 3.7", "0.5 3 junk", "0.5",
        "0.5 4294967296", "0.5x 3", "nan 0", "inf 0"}) {
    std::istringstream doc(std::string("# wnf-arrival-trace v1\nduration 1\n") +
                           line + "\n");
    EXPECT_FALSE(load_trace(doc).has_value()) << line;
  }
  for (const char* duration :
       {"duration 1 junk", "duration inf", "duration nan", "duration 1x",
        "duration"}) {
    std::istringstream doc(std::string("# wnf-arrival-trace v1\n") +
                           duration + "\n0.5 0\n");
    EXPECT_FALSE(load_trace(doc).has_value()) << duration;
  }
  std::istringstream widest(
      "# wnf-arrival-trace v1\nduration 1\n0.5 4294967295\n");
  const auto widest_trace = load_trace(widest);
  ASSERT_TRUE(widest_trace.has_value());
  EXPECT_EQ(widest_trace->arrivals[0].tenant, 4294967295u);
}

TEST(Trace, SeededMutationsNeverAbortAndReloadToAFixedPoint) {
  // Seeded mutants of a saved three-tenant Poisson trace and of a short
  // hand-written one. Whatever the loader makes of one, it returns (no
  // abort, no exception), and whatever it accepts saves to text that loads
  // and saves to the same bytes.
  Rng trace_rng(17);
  const ArrivalTrace tenants[3] = {poisson_trace(20.0, 1.0, trace_rng, 0),
                                   poisson_trace(10.0, 1.0, trace_rng, 1),
                                   poisson_trace(5.0, 1.0, trace_rng, 12)};
  const auto save = [](const ArrivalTrace& trace) {
    std::ostringstream out;
    save_trace(trace, out);
    return out.str();
  };
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return load_trace(in);
  };
  const std::string seeds[2] = {
      save(merge_traces(tenants)),
      "# wnf-arrival-trace v1\nduration 2.5\n0 0\n0.25 3\n\n1.5 70000\n"};
  ASSERT_TRUE(load(seeds[0]).has_value() && load(seeds[1]).has_value());
  Rng rng(0x7ACE);
  int accepted = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const std::size_t pick = rng.uniform_index(2);
    std::string doc = seeds[pick];
    for (std::size_t n = 1 + rng.uniform_index(3); n > 0; --n) {
      doc = mutate(doc, seeds[1 - pick], rng);
    }
    std::optional<ArrivalTrace> loaded;
    EXPECT_NO_THROW(loaded = load(doc)) << doc;
    if (!loaded) continue;
    ++accepted;
    const std::string first = save(*loaded);
    const auto reloaded = load(first);
    ASSERT_TRUE(reloaded.has_value()) << doc;
    EXPECT_EQ(save(*reloaded), first) << doc;
  }
  // The mutants reach the accepting path, not only the rejecting one.
  EXPECT_GT(accepted, 200);
}

// ------------------------------------------------ wall-clock fault windows

TEST(WallClock, WindowsResolveOntoRequestIdsByArrivalTime) {
  const auto net = load_net();
  const std::vector<double> arrivals{0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0};

  fault::FaultPlan plan;
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0}};

  // A failure episode over wall [0.25 s, 0.9 s) covers exactly the
  // arrivals scheduled inside it: ids 2, 3, 4.
  serve::FaultTimeline wall;
  wall.add_wall(0.25, 0.9, plan);
  EXPECT_TRUE(wall.has_wall_windows());
  EXPECT_FALSE(wall.empty());
  wall.resolve_wall(arrivals);
  EXPECT_FALSE(wall.has_wall_windows());
  wall.finalize(net);

  serve::FaultTimeline reference;
  reference.add(2, 5, plan);
  reference.finalize(net);
  for (std::uint64_t id = 0; id < arrivals.size(); ++id) {
    EXPECT_EQ(wall.active_at(id).neurons.size(),
              reference.active_at(id).neurons.size())
        << "id " << id;
  }
  EXPECT_TRUE(wall.active_at(1).empty());
  EXPECT_FALSE(wall.active_at(2).empty());
  EXPECT_FALSE(wall.active_at(4).empty());
  EXPECT_TRUE(wall.active_at(5).empty());

  // A window that straddles no arrival dissolves instead of creating an
  // empty id range.
  serve::FaultTimeline hollow;
  hollow.add_wall(0.35, 0.45, plan);
  hollow.resolve_wall(arrivals);
  EXPECT_TRUE(hollow.empty());
  hollow.finalize(net);
  for (std::uint64_t id = 0; id < arrivals.size(); ++id) {
    EXPECT_TRUE(hollow.active_at(id).empty());
  }
}

TEST(WallClockDeathTest, FinalizingUnresolvedWallWindowsAborts) {
  // A wall-clock window that never met an arrival trace is a scenario
  // authoring bug: finalize must refuse, not silently drop the fault.
  const auto net = load_net();
  fault::FaultPlan plan;
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0}};
  serve::FaultTimeline timeline;
  timeline.add_wall(0.1, 0.2, plan);
  EXPECT_DEATH(timeline.finalize(net), "precondition");
}

// ----------------------------------------------------------------- replay

TEST(Replay, OpenLoopBitIdenticalToSynchronousDrain) {
  // The acceptance bar at pool scale: an open-loop replay with no shedding
  // delivers the exact bytes a synchronous submit-everything-then-drain of
  // the same inputs produces — wall-clock scheduling changes when work is
  // dispatched, never what any request computes.
  const auto net = load_net(13);
  Rng trace_rng(5);
  const auto trace = poisson_trace(4000.0, 0.02, trace_rng);  // ~80 arrivals
  ASSERT_FALSE(trace.empty());
  const auto inputs = load_workload(trace.size(), 21);

  serve::ServeConfig config;
  config.replicas = 2;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 99;

  serve::ReplicaPool pool(net, config);
  PoolPipeline pipe(pool);
  Pipeline* const pipes[] = {&pipe};
  OpenLoopConfig open_loop;
  open_loop.time_scale = 0.1;  // ~2 ms of schedule
  std::vector<std::vector<serve::RequestResult>> collected;
  const auto report = replay(trace, inputs, pipes, open_loop, &collected);

  EXPECT_EQ(report.offered, trace.size());
  EXPECT_EQ(report.admitted, trace.size());
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.shed_slo + report.shed_admission + report.shed_queue, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.offered_rps, 0.0);
  EXPECT_GT(report.completed_rps, 0.0);
  EXPECT_LE(report.p50, report.p95);
  EXPECT_LE(report.p95, report.p99);
  EXPECT_LE(report.p99, report.p999);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].offered, trace.size());
  EXPECT_EQ(report.tenants[0].completed, trace.size());

  serve::ReplicaPool reference(net, config);
  ASSERT_EQ(reference.submit_batch(inputs), inputs.size());
  const auto expected = reference.drain();
  ASSERT_EQ(collected.size(), 1u);
  ASSERT_EQ(collected[0].size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(collected[0][i].id, expected[i].id);
    EXPECT_DOUBLE_EQ(collected[0][i].output, expected[i].output) << i;
    EXPECT_DOUBLE_EQ(collected[0][i].completion_time,
                     expected[i].completion_time);
    EXPECT_EQ(collected[0][i].resets_sent, expected[i].resets_sent);
  }
}

TEST(Replay, AdmissionLimitShedsWhenThePipelineBacksUp) {
  // Ten arrivals all scheduled at wall zero against a pipeline nothing has
  // polled yet: the first `admission_limit` are admitted, the rest shed —
  // deterministically, because the replayer only harvests while *waiting*
  // for a future arrival, and none of these are in the future.
  ArrivalTrace trace;
  for (int i = 0; i < 10; ++i) trace.arrivals.push_back({0.0, 0});
  trace.duration = 1e-6;
  const auto inputs = load_workload(1);

  StubPipeline stub;
  Pipeline* const pipes[] = {&stub};
  OpenLoopConfig config;
  config.admission_limit = 4;
  const auto report = replay(trace, inputs, pipes, config);

  EXPECT_EQ(report.offered, 10u);
  EXPECT_EQ(report.admitted, 4u);
  EXPECT_EQ(report.shed_admission, 6u);
  EXPECT_EQ(report.shed_queue, 0u);
  EXPECT_EQ(report.shed_slo, 0u);
  EXPECT_EQ(report.completed, 4u);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].admitted, 4u);
  EXPECT_EQ(report.tenants[0].shed, 6u);
}

TEST(Replay, QueueRefusalAndSloLatenessShedSeparately) {
  ArrivalTrace trace;
  for (int i = 0; i < 6; ++i) trace.arrivals.push_back({0.0, 0});
  trace.duration = 1e-6;
  const auto inputs = load_workload(1);

  // A deployment whose bounded queue holds two: the overflow is charged to
  // shed_queue, not to the replayer's own admission control.
  StubPipeline tight(2);
  Pipeline* const tight_pipes[] = {&tight};
  const auto queue_report = replay(trace, inputs, tight_pipes, {});
  EXPECT_EQ(queue_report.admitted, 2u);
  EXPECT_EQ(queue_report.shed_queue, 4u);
  EXPECT_EQ(queue_report.shed_admission, 0u);
  EXPECT_EQ(queue_report.completed, 2u);

  // An SLO tighter than the clock can even measure: every arrival is
  // already past its deadline when the driver reaches it, so everything
  // sheds before touching the pipeline.
  StubPipeline idle;
  Pipeline* const idle_pipes[] = {&idle};
  OpenLoopConfig slo;
  slo.slo_seconds = 1e-12;
  const auto slo_report = replay(trace, inputs, idle_pipes, slo);
  EXPECT_EQ(slo_report.shed_slo, 6u);
  EXPECT_EQ(slo_report.admitted, 0u);
  EXPECT_EQ(slo_report.completed, 0u);
  EXPECT_EQ(idle.outstanding(), 0u);
}

TEST(Replay, OneDriverSaturatesTwoPoolsWithTenantRouting) {
  // Two deployments, one driver thread: tenants route to pipelines by
  // tenant index, per-tenant stats split the traffic, and each pipeline's
  // delivered stream is bit-identical to a dedicated synchronous drain of
  // the inputs that tenant was offered.
  const auto net_a = load_net(13);
  const auto net_b = load_net(17);
  ArrivalTrace trace;
  for (int i = 0; i < 24; ++i) {
    trace.arrivals.push_back(
        {static_cast<double>(i) * 1e-4, static_cast<std::uint32_t>(i % 2)});
  }
  trace.duration = 24e-4;
  const auto inputs = load_workload(trace.size(), 33);

  serve::ServeConfig config;
  config.replicas = 2;
  config.latency = heavy_tail();
  config.seed = 7;
  serve::ReplicaPool pool_a(net_a, config);
  serve::ReplicaPool pool_b(net_b, config);
  PoolPipeline pipe_a(pool_a);
  PoolPipeline pipe_b(pool_b);
  Pipeline* const pipes[] = {&pipe_a, &pipe_b};
  std::vector<std::vector<serve::RequestResult>> collected;
  const auto report = replay(trace, inputs, pipes, {}, &collected);

  EXPECT_EQ(report.admitted, 24u);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, 0u);
  EXPECT_EQ(report.tenants[1].tenant, 1u);
  EXPECT_EQ(report.tenants[0].offered, 12u);
  EXPECT_EQ(report.tenants[1].offered, 12u);
  EXPECT_EQ(report.tenants[0].completed, 12u);
  EXPECT_EQ(report.tenants[1].completed, 12u);

  // Tenant t was offered the inputs at global indices t, t+2, t+4, ...
  for (std::size_t t = 0; t < 2; ++t) {
    std::vector<std::vector<double>> offered;
    for (std::size_t i = t; i < trace.size(); i += 2) {
      offered.push_back(inputs[i]);
    }
    serve::ReplicaPool reference(t == 0 ? net_a : net_b, config);
    ASSERT_EQ(reference.submit_batch(offered), offered.size());
    const auto expected = reference.drain();
    ASSERT_EQ(collected[t].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(collected[t][i].id, expected[i].id);
      EXPECT_DOUBLE_EQ(collected[t][i].output, expected[i].output)
          << "tenant " << t << " request " << i;
      EXPECT_DOUBLE_EQ(collected[t][i].completion_time,
                       expected[i].completion_time);
    }
  }
}

// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;  // shadow memory swamps the RSS check
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(Replay, PerTenantStateGrowsWithDistinctTenantsNotTheLargestId) {
  // The report has one entry per distinct tenant id, ascending, each with
  // its id, and the sampled series carries the real ids. One arrival of
  // the largest id load_trace accepts must cost no more than any other
  // (per-tenant arrays sized by the largest id would ask for ~430 GB).
  const auto inputs = load_workload(1);
  StubPipeline stub;
  Pipeline* const pipes[] = {&stub};
  OpenLoopConfig config;
  config.sample_seconds = 1.0;  // only the closing partial window

  const long rss_before = peak_rss_kib();
  ArrivalTrace largest;
  largest.arrivals.push_back({0.0, 4294967295u});
  largest.duration = 1e-6;
  const auto one = replay(largest, inputs, pipes, config);
  const long rss_growth_kib = peak_rss_kib() - rss_before;
  ASSERT_EQ(one.tenants.size(), 1u);
  EXPECT_EQ(one.tenants[0].tenant, 4294967295u);
  EXPECT_EQ(one.tenants[0].offered, 1u);
  EXPECT_EQ(one.tenants[0].completed, 1u);
  ASSERT_FALSE(one.series.empty());
  for (const auto& sample : one.series) EXPECT_EQ(sample.tenant, 4294967295u);
  if (!kSanitized) {
    EXPECT_LT(rss_growth_kib, 64 * 1024);
  }

  ArrivalTrace two;
  two.arrivals = {{0.0, 7}, {1e-6, 3}, {2e-6, 7}};
  two.duration = 3e-6;
  const auto report = replay(two, inputs, pipes, config);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, 3u);
  EXPECT_EQ(report.tenants[0].offered, 1u);
  EXPECT_EQ(report.tenants[0].completed, 1u);
  EXPECT_EQ(report.tenants[1].tenant, 7u);
  EXPECT_EQ(report.tenants[1].offered, 2u);
  EXPECT_EQ(report.tenants[1].completed, 2u);
  ASSERT_FALSE(report.series.empty());
  for (const auto& sample : report.series) {
    EXPECT_TRUE(sample.tenant == 3u || sample.tenant == 7u) << sample.tenant;
  }
}

TEST(Replay, TimeSharedFleetMatchesDedicatedHostsBitForBit) {
  SKIP_WITHOUT_TRANSPORT();
  // Many networks, ONE persistent fleet: tenants replay back to back with
  // a rebind between slices, and every tenant's results are bit-identical
  // to a dedicated freshly forked host serving the same inputs — the
  // fork-once fleet is invisible in the bytes.
  const auto net_a = load_net(13);
  const auto net_b = load_net(17);
  const nn::FeedForwardNetwork* const nets[] = {&net_a, &net_b};

  Rng rng_a(5);
  Rng rng_b(6);
  auto trace_a = poisson_trace(2000.0, 0.01, rng_a, 0);
  auto trace_b = poisson_trace(2000.0, 0.01, rng_b, 1);
  ASSERT_FALSE(trace_a.empty());
  ASSERT_FALSE(trace_b.empty());
  const ArrivalTrace parts[] = {trace_a, trace_b};
  const auto trace = merge_traces(parts);
  const std::size_t most = std::max(trace_a.size(), trace_b.size());
  const auto inputs = load_workload(most, 21);

  transport::TransportConfig config;
  config.workers = 2;
  config.latency = heavy_tail();
  config.seed = 99;

  transport::WorkerHost fleet(config);  // unbound: binds on first rebind
  OpenLoopConfig open_loop;
  open_loop.time_scale = 0.1;
  std::vector<std::vector<serve::RequestResult>> collected;
  const auto reports = replay_time_shared(fleet, nets, trace, inputs,
                                          open_loop, &collected);

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].completed, trace_a.size());
  EXPECT_EQ(reports[1].completed, trace_b.size());
  for (std::uint32_t t = 0; t < 2; ++t) {
    ASSERT_EQ(reports[t].tenants.size(), 1u);
    EXPECT_EQ(reports[t].tenants[0].tenant, t);  // each slice keeps its id
  }
  EXPECT_EQ(fleet.rebinds(), 2u);
  // Fork-once: the fleet never respawned across both tenants.
  EXPECT_EQ(fleet.total_spawns(), config.workers);

  for (std::size_t t = 0; t < 2; ++t) {
    const std::size_t count = t == 0 ? trace_a.size() : trace_b.size();
    std::vector<std::vector<double>> offered;
    for (std::size_t i = 0; i < count; ++i) {
      offered.push_back(inputs[i % inputs.size()]);
    }
    transport::WorkerHost dedicated(*nets[t], config);
    ASSERT_EQ(dedicated.submit_batch(offered), offered.size());
    const auto expected = dedicated.drain();
    ASSERT_EQ(collected[t].size(), expected.size()) << "tenant " << t;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(collected[t][i].id, expected[i].id);
      EXPECT_DOUBLE_EQ(collected[t][i].output, expected[i].output)
          << "tenant " << t << " request " << i;
      EXPECT_DOUBLE_EQ(collected[t][i].completion_time,
                       expected[i].completion_time);
      EXPECT_EQ(collected[t][i].resets_sent, expected[i].resets_sent);
    }
  }
}

}  // namespace
}  // namespace wnf::load
