// Serving-runtime tests: replica-count invariance (the determinism
// contract), fault-timeline semantics over the request stream, equivalence
// with the sequential boosting engine, the bounded-queue behavior, and
// rebinding a live pool to another network.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/boosting.hpp"
#include "dist/sim.hpp"
#include "fault/injector.hpp"
#include "nn/builder.hpp"
#include "obs/trace.hpp"
#include "serve/pool.hpp"
#include "serve/timeline.hpp"

namespace wnf::serve {
namespace {

nn::FeedForwardNetwork serve_net(std::uint64_t seed = 3) {
  Rng rng(seed);
  return nn::NetworkBuilder(3)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(7)
      .hidden(5)
      .init(nn::InitKind::kUniform, 0.5)
      .build(rng);
}

std::vector<std::vector<double>> serve_workload(std::size_t count,
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

TEST(Timeline, SegmentsResolveWindowsByRequestId) {
  const auto net = serve_net();
  FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.neurons = {{2, 1, fault::NeuronFaultKind::kByzantine, 0.7}};
  timeline.add(5, 10, crash);
  timeline.add(8, 12, byzantine);  // overlaps [8, 10): plans merge
  timeline.finalize(net);

  EXPECT_TRUE(timeline.active_at(0).empty());
  EXPECT_TRUE(timeline.active_at(4).empty());
  EXPECT_EQ(timeline.active_at(5).neurons.size(), 1u);
  EXPECT_EQ(timeline.active_at(8).neurons.size(), 2u);
  EXPECT_EQ(timeline.active_at(9).neurons.size(), 2u);
  EXPECT_EQ(timeline.active_at(10).neurons.size(), 1u);
  EXPECT_EQ(timeline.active_at(11).neurons.size(), 1u);
  EXPECT_TRUE(timeline.active_at(12).empty());
  EXPECT_TRUE(timeline.active_at(1000000).empty());
  // Requests inside one window share a segment; a boundary starts a new one.
  EXPECT_EQ(timeline.segment_at(5), timeline.segment_at(7));
  EXPECT_NE(timeline.segment_at(7), timeline.segment_at(8));
}

TEST(Timeline, ForeverWindowNeverClears) {
  const auto net = serve_net();
  FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 0, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(3, FaultTimeline::kForever, crash);
  timeline.finalize(net);
  EXPECT_TRUE(timeline.active_at(2).empty());
  EXPECT_FALSE(timeline.active_at(3).empty());
  EXPECT_FALSE(timeline.active_at(~std::uint64_t{0} - 1).empty());
}

TEST(Timeline, ForeverWindowCombinesWithFiniteOnes) {
  // A kForever window plus a finite one on a distinct component: the merged
  // plan holds exactly while both are active, and the forever fault is
  // still present long after the finite one cleared.
  const auto net = serve_net();
  FaultTimeline timeline;
  fault::FaultPlan forever_crash;
  forever_crash.neurons = {{1, 0, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan burst;
  burst.neurons = {{2, 1, fault::NeuronFaultKind::kByzantine, 0.5}};
  timeline.add(4, FaultTimeline::kForever, forever_crash);
  timeline.add(6, 9, burst);
  timeline.finalize(net);

  EXPECT_TRUE(timeline.active_at(3).empty());
  EXPECT_EQ(timeline.active_at(4).neurons.size(), 1u);
  EXPECT_EQ(timeline.active_at(6).neurons.size(), 2u);
  EXPECT_EQ(timeline.active_at(8).neurons.size(), 2u);
  EXPECT_EQ(timeline.active_at(9).neurons.size(), 1u);
  EXPECT_EQ(timeline.active_at(FaultTimeline::kForever - 1).neurons.size(),
            1u);
  EXPECT_EQ(timeline.active_at(FaultTimeline::kForever - 1).neurons[0].layer,
            1u);
}

TEST(Timeline, AbuttingWindowsProduceDistinctSegments) {
  // end == next start means the first fault clears exactly when the second
  // arrives: no request sees both, and the boundary starts a new segment.
  const auto net = serve_net();
  FaultTimeline timeline;
  fault::FaultPlan first;
  first.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan second;
  second.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(2, 4, first);
  timeline.add(4, 6, second);
  timeline.finalize(net);

  EXPECT_NE(timeline.segment_at(3), timeline.segment_at(4));
  ASSERT_EQ(timeline.active_at(3).neurons.size(), 1u);
  EXPECT_EQ(timeline.active_at(3).neurons[0].neuron, 2u);
  ASSERT_EQ(timeline.active_at(4).neurons.size(), 1u);
  EXPECT_EQ(timeline.active_at(4).neurons[0].neuron, 3u);
  EXPECT_TRUE(timeline.active_at(6).empty());
}

TEST(TimelineDeathTest, OverlappingWindowsOnSameComponentAbort) {
  // Overlapping windows must target distinct components; a scenario that
  // faults the same neuron twice in one segment is a bug and must fail
  // loudly at finalize, not mid-traffic.
  const auto net = serve_net();
  FaultTimeline timeline;
  fault::FaultPlan plan;
  plan.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0}};
  timeline.add(2, 6, plan);
  timeline.add(4, 8, plan);  // same neuron active twice on [4, 6)
  EXPECT_DEATH(timeline.finalize(net), "precondition");
}

TEST(Serve, OutputsMatchSequentialSimulator) {
  // One replica, no faults, no cut: the pool is exactly the sequential
  // simulator with per-request split latencies.
  const auto net = serve_net();
  const auto workload = serve_workload(20);

  ServeConfig config;
  config.replicas = 1;
  config.latency = heavy_tail();
  config.seed = 77;
  ReplicaPool pool(net, config);
  ASSERT_EQ(pool.submit_batch(workload), workload.size());
  const auto results = pool.drain();

  dist::NetworkSimulator reference(net, dist::SimConfig{});
  Rng root(77);
  const auto widths = net.layer_widths();
  for (std::size_t i = 0; i < workload.size(); ++i) {
    Rng request_rng = root.split();
    reference.set_latencies(
        config.latency.sample_layers(widths, request_rng));
    const auto expected = reference.evaluate(workload[i]);
    EXPECT_EQ(results[i].id, i);
    EXPECT_DOUBLE_EQ(results[i].output, expected.output);
    EXPECT_DOUBLE_EQ(results[i].completion_time, expected.completion_time);
  }
}

TEST(Serve, BitIdenticalAcrossWorkerCounts) {
  // The acceptance bar: 1, 2, and 8 replicas produce bit-identical
  // results for a fixed seed — under an active fault timeline and a
  // Corollary-2 cut, while requests land on arbitrary workers.
  const auto net = serve_net(13);
  const auto workload = serve_workload(40, 21);

  FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0},
                   {1, 5, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.neurons = {{2, 0, fault::NeuronFaultKind::kByzantine, 0.6}};
  timeline.add(10, 25, crash);
  timeline.add(30, 34, byzantine);

  std::vector<std::vector<RequestResult>> runs;
  for (const std::size_t replicas : {1u, 2u, 8u}) {
    ServeConfig config;
    config.replicas = replicas;
    config.latency = heavy_tail();
    config.straggler_cut = {2, 1};
    config.seed = 99;
    ReplicaPool pool(net, config);
    pool.set_timeline(timeline);
    ASSERT_EQ(pool.submit_batch(workload), workload.size());
    runs.push_back(pool.drain());
    EXPECT_EQ(pool.replica_count(), replicas);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].id, runs[0][i].id);
      EXPECT_DOUBLE_EQ(runs[r][i].output, runs[0][i].output);
      EXPECT_DOUBLE_EQ(runs[r][i].completion_time,
                       runs[0][i].completion_time);
      EXPECT_EQ(runs[r][i].resets_sent, runs[0][i].resets_sent);
    }
  }
}

TEST(Serve, TimelineAppliesAndClearsFaultsMidTraffic) {
  // Crash window [5, 10), Byzantine burst [8, 12): each request's output
  // must match the Injector under exactly the faults active at its id.
  // Transmitted-value convention so simulator and Injector agree
  // bit-for-bit even where the windows overlap.
  const auto net = serve_net();
  const std::vector<double> x{0.4, 0.7, 0.2};

  fault::FaultPlan crash;
  crash.convention = theory::CapacityConvention::kTransmittedValueBound;
  crash.neurons = {{1, 2, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.convention = theory::CapacityConvention::kTransmittedValueBound;
  byzantine.neurons = {{2, 1, fault::NeuronFaultKind::kByzantine, 0.7}};
  FaultTimeline timeline;
  timeline.add(5, 10, crash);
  timeline.add(8, 12, byzantine);

  ServeConfig config;
  config.replicas = 2;
  ReplicaPool pool(net, config);
  pool.set_timeline(timeline);
  for (int n = 0; n < 15; ++n) ASSERT_TRUE(pool.submit(x));
  const auto results = pool.drain();

  fault::Injector injector(net);
  fault::FaultPlan both;
  both.convention = theory::CapacityConvention::kTransmittedValueBound;
  both.neurons = {crash.neurons[0], byzantine.neurons[0]};
  const double nominal = net.evaluate(x);
  for (const auto& result : results) {
    const std::uint64_t id = result.id;
    double expected = nominal;
    if (id >= 5 && id < 8) expected = injector.damaged(crash, x);
    if (id >= 8 && id < 10) expected = injector.damaged(both, x);
    if (id >= 10 && id < 12) expected = injector.damaged(byzantine, x);
    EXPECT_NEAR(result.output, expected, 1e-12) << "request " << id;
  }
}

TEST(Serve, EquivalenceWithSequentialRunBoosting) {
  // The serving pool under a cut is run_boosting's boosted lane: same
  // split tree, same latency draws, same wait counts — so outputs match
  // the sequential engine and the pool's mean completion time reproduces
  // the BoostingReport.
  const auto net = serve_net(13);
  const auto workload = serve_workload(24, 33);
  const std::vector<std::size_t> cut{2, 1};
  const std::uint64_t seed = 4242;

  ServeConfig config;
  config.replicas = 4;
  config.latency = heavy_tail();
  config.straggler_cut = cut;
  config.seed = seed;
  ReplicaPool pool(net, config);
  ASSERT_EQ(pool.submit_batch(workload), workload.size());
  const auto results = pool.drain();

  dist::NetworkSimulator boosted(net, dist::SimConfig{});
  const auto wait = dist::wait_counts_from_cut(net, cut);
  const auto widths = net.layer_widths();
  Rng root(seed);
  double total_completion = 0.0;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    Rng request_rng = root.split();
    boosted.set_latencies(
        config.latency.sample_layers(widths, request_rng));
    const auto expected =
        boosted.evaluate_boosted(workload[i], {wait.data(), wait.size()});
    EXPECT_DOUBLE_EQ(results[i].output, expected.output);
    EXPECT_DOUBLE_EQ(results[i].completion_time, expected.completion_time);
    total_completion += results[i].completion_time;
  }

  dist::BoostingConfig boost;
  boost.straggler_cut = cut;
  boost.latency = config.latency;
  boost.seed = seed;
  const auto report =
      dist::run_boosting(net, workload, boost, {0.9, 1e-6});
  EXPECT_NEAR(pool.report().completion.mean,
              total_completion / static_cast<double>(workload.size()), 1e-12);
  EXPECT_NEAR(pool.report().completion.mean, report.mean_boosted_time, 1e-12);
}

TEST(Serve, BoundedQueueShedsLoadWithoutPerturbingAcceptedRequests) {
  const auto net = serve_net();
  const auto workload = serve_workload(12);

  ServeConfig config;
  config.replicas = 2;
  config.queue_capacity = 8;
  config.latency = heavy_tail();
  config.seed = 5;
  ReplicaPool pool(net, config);
  EXPECT_EQ(pool.submit_batch(workload), 8u);
  EXPECT_EQ(pool.pending(), 8u);
  EXPECT_EQ(pool.report().rejected, 4u);
  EXPECT_EQ(pool.report().shed, 0u);  // in-queue rejection, not transport shed
  const auto first = pool.drain();
  ASSERT_EQ(first.size(), 8u);
  EXPECT_EQ(pool.pending(), 0u);

  // The queue frees up; ids keep counting from where acceptance stopped.
  EXPECT_TRUE(pool.submit(workload[8]));
  const auto second = pool.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 8u);

  // Shed load never consumed a split: an unbounded pool serving the same
  // first 9 requests produces bit-identical outputs.
  ServeConfig roomy = config;
  roomy.queue_capacity = 4096;
  ReplicaPool reference(net, roomy);
  std::vector<std::vector<double>> first_nine(workload.begin(),
                                              workload.begin() + 9);
  ASSERT_EQ(reference.submit_batch(first_nine), 9u);
  const auto expected = reference.drain();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(first[i].output, expected[i].output);
  }
  EXPECT_DOUBLE_EQ(second[0].output, expected[8].output);
}

TEST(Serve, ResultsIndependentOfBatching) {
  const auto net = serve_net();
  const auto workload = serve_workload(9, 55);

  ServeConfig config;
  config.replicas = 3;
  config.latency = heavy_tail();
  config.seed = 11;

  ReplicaPool whole(net, config);
  ASSERT_EQ(whole.submit_batch(workload), 9u);
  const auto all = whole.drain();

  ReplicaPool pieces(net, config);
  std::vector<RequestResult> stitched;
  std::size_t at = 0;
  for (const std::size_t batch : {4u, 2u, 3u}) {
    std::vector<std::vector<double>> slice(
        workload.begin() + static_cast<std::ptrdiff_t>(at),
        workload.begin() + static_cast<std::ptrdiff_t>(at + batch));
    ASSERT_EQ(pieces.submit_batch(slice), batch);
    const auto drained = pieces.drain();
    stitched.insert(stitched.end(), drained.begin(), drained.end());
    at += batch;
  }
  ASSERT_EQ(stitched.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(stitched[i].id, all[i].id);
    EXPECT_DOUBLE_EQ(stitched[i].output, all[i].output);
    EXPECT_DOUBLE_EQ(stitched[i].completion_time, all[i].completion_time);
  }
}

TEST(Serve, AsyncPollWaitBitIdenticalToDrain) {
  // The async pipeline primitives against the legacy drain, across 1/2/8
  // replicas under an active fault timeline: interleaving submit with
  // non-blocking poll() and finishing with wait() must deliver the same
  // results, bit for bit and in id order, as submitting everything and
  // draining synchronously.
  const auto net = serve_net(13);
  const auto workload = serve_workload(40, 21);

  FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.neurons = {{2, 0, fault::NeuronFaultKind::kByzantine, 0.6}};
  timeline.add(10, 25, crash);
  timeline.add(30, 34, byzantine);

  ServeConfig config;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 99;

  config.replicas = 2;
  ReplicaPool reference(net, config);
  reference.set_timeline(timeline);
  ASSERT_EQ(reference.submit_batch(workload), workload.size());
  const auto expected = reference.drain();

  for (const std::size_t replicas : {1u, 2u, 8u}) {
    config.replicas = replicas;
    ReplicaPool pool(net, config);
    pool.set_timeline(timeline);
    std::vector<RequestResult> served;
    RequestResult ready;
    for (const auto& x : workload) {
      ASSERT_TRUE(pool.submit(x));
      while (pool.poll(ready)) served.push_back(ready);
    }
    while (pool.pending() > 0) served.push_back(pool.wait());
    EXPECT_FALSE(pool.poll(ready));  // nothing outstanding, nothing buffered

    ASSERT_EQ(served.size(), expected.size()) << replicas << " replicas";
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].id, expected[i].id);
      EXPECT_DOUBLE_EQ(served[i].output, expected[i].output)
          << "request " << i << " on " << replicas << " replicas";
      EXPECT_DOUBLE_EQ(served[i].completion_time,
                       expected[i].completion_time);
      EXPECT_EQ(served[i].resets_sent, expected[i].resets_sent);
    }
    EXPECT_EQ(pool.report().completed, workload.size());
  }
}

TEST(Serve, ReportAggregatesThroughputPercentilesAndResets) {
  const auto net = serve_net();
  const auto workload = serve_workload(50, 61);

  ServeConfig config;
  config.replicas = 4;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 31;
  ReplicaPool pool(net, config);
  ASSERT_EQ(pool.submit_batch(workload), workload.size());
  const auto results = pool.drain();
  const auto report = pool.report();

  EXPECT_EQ(report.completed, workload.size());
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.replicas, 4u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_EQ(report.completion.count, workload.size());
  EXPECT_LE(report.completion.min, report.p50);
  EXPECT_LE(report.p50, report.p95);
  EXPECT_LE(report.p95, report.p99);
  EXPECT_LE(report.p99, report.completion.max);
  // Every request cut (7-5) senders at 5 receivers plus 1 at the output.
  std::size_t resets = 0;
  for (const auto& result : results) resets += result.resets_sent;
  EXPECT_EQ(report.resets_sent, resets);
  EXPECT_EQ(resets, workload.size() * (2u * 5u + 1u));
  // Process-level fault counters exist for the transport runtime only; an
  // in-process pool never sheds at the transport layer, never loses an
  // in-flight request, and never restarts a worker.
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.resubmitted, 0u);
  EXPECT_EQ(report.worker_restarts, 0u);
  // And this pool was never rebound.
  EXPECT_EQ(report.rebinds, 0u);
}

/// Bit-for-bit equality of two result streams.
void expect_identical(const std::vector<RequestResult>& actual,
                      const std::vector<RequestResult>& expected,
                      const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i].output),
              std::bit_cast<std::uint64_t>(expected[i].output))
        << what << ", request " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i].completion_time),
              std::bit_cast<std::uint64_t>(expected[i].completion_time))
        << what << ", request " << i;
    EXPECT_EQ(actual[i].resets_sent, expected[i].resets_sent) << what;
  }
}

TEST(Serve, RebindMatchesAFreshPoolBitForBit) {
  // One pool rebound A -> B -> A at 1, 2 and 8 replicas, under heavy-tail
  // latencies and a straggler cut: each stream equals a fresh pool's on
  // that network, bit for bit. The A -> B stream runs under a fault
  // timeline; the B -> A stream sets none, so it also shows that rebind()
  // cleared the timeline.
  const auto net_a = serve_net(13);
  const auto net_b = serve_net(14);
  const auto workload = serve_workload(40, 21);
  FaultTimeline timeline;
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.neurons = {{2, 0, fault::NeuronFaultKind::kByzantine, 0.6}};
  timeline.add(10, 25, crash);
  timeline.add(30, 34, byzantine);

  ServeConfig config;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  config.seed = 99;
  const auto serve = [&](ReplicaPool& pool, const FaultTimeline* scenario) {
    if (scenario != nullptr) pool.set_timeline(*scenario);
    EXPECT_EQ(pool.submit_batch(workload), workload.size());
    return pool.drain();
  };
  const auto fresh = [&](const nn::FeedForwardNetwork& net,
                         const FaultTimeline* scenario) {
    ReplicaPool pool(net, config);
    return serve(pool, scenario);
  };

  for (const std::size_t replicas : {1u, 2u, 8u}) {
    config.replicas = replicas;
    const std::string what = std::to_string(replicas) + " replicas";
    ReplicaPool pool(net_a, config);
    expect_identical(serve(pool, &timeline), fresh(net_a, &timeline),
                     what + ", A");
    pool.rebind(net_b);
    EXPECT_EQ(&pool.network(), &net_b);
    EXPECT_EQ(pool.next_request_id(), 0u);
    expect_identical(serve(pool, &timeline), fresh(net_b, &timeline),
                     what + ", A -> B");
    pool.rebind(net_a);
    expect_identical(serve(pool, nullptr), fresh(net_a, nullptr),
                     what + ", B -> A");
    const auto report = pool.report();
    EXPECT_EQ(report.completed, workload.size()) << what;
    EXPECT_EQ(report.rebinds, 2u) << what;
    EXPECT_EQ(pool.replica_count(), replicas);
  }
}

TEST(ServeDeathTest, RebindWithARequestOutstandingAborts) {
  // A request accepted and not yet delivered may not straddle a rebind.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto net = serve_net();
  ReplicaPool pool(net, ServeConfig{});
  ASSERT_TRUE(pool.submit(serve_workload(1)[0]));
  EXPECT_DEATH(pool.rebind(net), "precondition violated: outstanding_");
}

/// Tracing on for one scope: the tracing-gated histograms record only
/// while it is on.
struct TracingOn {
  TracingOn() { obs::set_enabled(true); }
  ~TracingOn() { obs::set_enabled(false); }
};

TEST(Serve, RunsSplitAtSegmentBoundariesBitForBit) {
  // A replica serves each run of consecutive same-segment requests in its
  // chunk as one simulator block. Windows of 1, 2 and 3 requests inside
  // the first 8-request chunk (and again further on) split chunks into
  // runs of every length. Batched and one-at-a-time traffic, at 1, 2 and
  // 8 replicas, must equal a sequential simulator bit for bit; the trace
  // shows one execute span per run, within one segment and one chunk.
  const auto net = serve_net(13);
  const auto workload = serve_workload(48, 83);
  const std::vector<std::size_t> cut{2, 1};
  fault::FaultPlan crash;
  crash.neurons = {{1, 3, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan byzantine;
  byzantine.neurons = {{2, 0, fault::NeuronFaultKind::kByzantine, 0.6}};
  fault::FaultPlan stuck;
  stuck.neurons = {{1, 5, fault::NeuronFaultKind::kStuckAt, 0.8}};
  stuck.synapses = {{3, 0, 2, fault::SynapseFaultKind::kCrash, 0.0}};
  FaultTimeline timeline;
  timeline.add(1, 2, crash);
  timeline.add(3, 5, byzantine);
  timeline.add(5, 8, stuck);
  timeline.add(17, 18, byzantine);
  timeline.add(20, 22, crash);
  timeline.add(29, 32, stuck);

  ServeConfig config;
  config.latency = heavy_tail();
  config.straggler_cut = cut;
  config.seed = 515;

  FaultTimeline segments = timeline;
  segments.finalize(net);
  dist::NetworkSimulator reference(net, config.sim);
  const auto wait_counts = dist::wait_counts_from_cut(net, cut);
  Rng root(config.seed);
  std::vector<RequestResult> expected;
  for (std::size_t id = 0; id < workload.size(); ++id) {
    const auto plan = segments.active_at(id);
    if (plan.empty()) {
      reference.clear_faults();
    } else {
      reference.apply_faults(plan);
    }
    Rng stream = root.split();
    reference.sample_latencies(config.latency, stream);
    const auto result = reference.evaluate_boosted(workload[id], wait_counts);
    expected.push_back(
        {id, result.output, result.completion_time, result.resets_sent});
  }

  const TracingOn tracing;
  for (const std::size_t replicas : {1u, 2u, 8u}) {
    config.replicas = replicas;
    for (const bool batched : {true, false}) {
      obs::TraceLog::instance().reset();
      std::vector<RequestResult> served;
      {
        ReplicaPool pool(net, config);
        pool.set_timeline(timeline);
        if (batched) {
          ASSERT_EQ(pool.submit_batch(workload), workload.size());
          served = pool.drain();
        } else {
          for (const auto& x : workload) {
            ASSERT_TRUE(pool.submit(x));
            served.push_back(pool.wait());
          }
        }
      }  // joins the replica threads: their rings are quiescent
      expect_identical(served, expected,
                       std::to_string(replicas) + " replicas, " +
                           (batched ? "batched" : "one at a time"));
      if (!WNF_OBS_ENABLED) continue;
      std::size_t spans = 0;
      std::size_t requests = 0;
      for (const auto& ring : obs::TraceLog::instance().collect()) {
        for (const obs::TraceEvent& event : ring.events) {
          if (event.name != obs::TraceName::kExecute ||
              event.kind != obs::EventKind::kSpanBegin) {
            continue;
          }
          ++spans;
          requests += event.value;
          EXPECT_GE(event.value, 1u);
          EXPECT_LE(event.value, 8u);
          EXPECT_EQ(segments.segment_at(event.id),
                    segments.segment_at(event.id + event.value - 1))
              << "run " << event.id << " + " << event.value;
        }
      }
      EXPECT_EQ(requests, workload.size());
      if (!batched) {
        EXPECT_EQ(spans, workload.size());
      }
    }
  }
  obs::TraceLog::instance().reset();
}

TEST(Serve, RebindResetsTheRegistryForPerDeploymentDeltas) {
  // Every serve.* metric driven to a known nonzero value, then zeroed by
  // rebind() in the same registry object, so a Snapshotter source pointer
  // registered before the rebind stays valid and reports the reset.
  const auto net = serve_net();
  const auto workload = serve_workload(10, 61);
  ServeConfig config;
  config.replicas = 2;
  config.queue_capacity = 4;
  config.latency = heavy_tail();
  config.straggler_cut = {2, 1};
  ReplicaPool pool(net, config);
  const obs::MetricsRegistry* registry = &pool.metrics();
  const auto value = [&](const std::string& name) -> std::int64_t {
    for (const auto& row : registry->snapshot().counters) {
      if (row.name == name) return row.value;
    }
    ADD_FAILURE() << "no counter " << name;
    return -1;
  };
  const auto count = [&](const std::string& name) -> std::uint64_t {
    for (const auto& row : registry->snapshot().histograms) {
      if (row.name == name) return row.count;
    }
    ADD_FAILURE() << "no histogram " << name;
    return 0;
  };
  {
    const TracingOn tracing;
    // Four fit the queue, six are shed; the pipeline drains only after.
    std::size_t accepted = 0;
    for (const auto& x : workload) accepted += pool.submit(x) ? 1 : 0;
    EXPECT_EQ(accepted, 4u);
    EXPECT_EQ(pool.drain().size(), 4u);
  }
  EXPECT_EQ(value("serve.rejected"), 6);
  // The cut resets (7-5) senders at each of 5 receivers, plus 1 at the
  // output, per request.
  EXPECT_EQ(value("serve.resets_sent"), 4 * (2 * 5 + 1));
  const std::uint64_t traced = WNF_OBS_ENABLED ? 4 : 0;
  EXPECT_EQ(count("serve.completion_time"), traced);
  EXPECT_EQ(count("serve.queue_depth"), traced);

  pool.rebind(net);
  EXPECT_EQ(registry, &pool.metrics());  // same registry object
  for (const auto& row : registry->snapshot().counters) {
    EXPECT_EQ(row.value, 0) << row.name << " survived the rebind";
  }
  for (const auto& row : registry->snapshot().histograms) {
    EXPECT_EQ(row.count, 0u) << row.name << " survived the rebind";
  }
  const auto report = pool.report();
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.resets_sent, 0u);
  EXPECT_EQ(report.rebinds, 1u);
}

}  // namespace
}  // namespace wnf::serve
