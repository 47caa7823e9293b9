// What the two workloads share: run options and run-wide state, the
// seeded networks, inputs and fault scenarios, the watchdog-healed
// transport fleet, the cross-checked campaign call, and the decorators
// that time calls into a layer from outside it.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "fault/campaign.hpp"
#include "harness.hpp"
#include "load/replay.hpp"
#include "nn/network.hpp"
#include "obs/watchdog.hpp"
#include "serve/pool.hpp"
#include "serve/timeline.hpp"
#include "transport/host.hpp"

namespace perfbench {

namespace dist = wnf::dist;
namespace exec = wnf::exec;
namespace fault = wnf::fault;
namespace load = wnf::load;
namespace nn = wnf::nn;
namespace obs = wnf::obs;
namespace serve = wnf::serve;
namespace theory = wnf::theory;
namespace transport = wnf::transport;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: shorter phases and fewer repetitions, same code paths.
  bool tiny = false;
  /// Self-test: perturb one reference value, so the run must report a
  /// wrong output.
  bool corrupt_reference = false;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_dir;
};

/// Counts the hard deadline reports if a library call never returns:
/// operations handed to the library, and operations settled (delivered
/// and checked, or already counted as failed).
struct Progress {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> settled{0};
};

/// Run-wide state: every workload reports into `outcome` and records its
/// spans into `spans` (disabled on untraced runs).
struct Run {
  explicit Run(RunOptions opts)
      : options(std::move(opts)), spans(options.trace) {}
  RunOptions options;
  Outcome outcome;
  SpanLog spans;
};

Progress& progress();
/// The process-wide guard every blocking call is armed against. On expiry
/// it prints a failed result (undelivered operations count as failed),
/// SIGKILLs and reaps the live fleets' workers, and exits non-zero.
HardDeadline& hard_deadline();

/// Upper bounds on single blocking calls. Normal calls take milliseconds;
/// a transport stall the watchdog heals costs ~0.2 s.
constexpr double kBatchDeadlineSeconds = 10.0;
constexpr double kCallDeadlineSeconds = 30.0;

constexpr std::size_t kInputDim = 8;
constexpr std::size_t kBatch = 512;  ///< requests per closed-loop batch
constexpr std::size_t kReplicas = 2;

/// Runs `setup` (which returns the seconds it timed) at least 5 times (2
/// in a self-test) and until 0.5 s of set-up has been timed; returns the
/// median, which is what setup_s reports. A set-up of tens of microseconds
/// is thus sampled thousands of times, one of milliseconds over a hundred
/// times. The workloads call it after their timed phase: a round taken
/// right after the process started ran ~1.6x slower in 4 of 6 campaign
/// runs, and a median over a mix of two such rounds jumped between their
/// two levels from run to run.
template <typename Fn>
double repeat_setup(const RunOptions& opt, Fn&& setup) {
  const std::size_t at_least = opt.tiny ? 2 : 5;
  std::vector<double> seconds;
  double spent = 0.0;
  while (seconds.size() < at_least || (!opt.tiny && spent < 0.5)) {
    seconds.push_back(setup());
    spent += seconds.back();
  }
  const double typical = median(seconds);
  std::fprintf(stderr, "perfbench: %zu set-ups, median %.4g s\n",
               seconds.size(), typical);
  return typical;
}

/// Order-sensitive digest of a stream of outputs: two digests agree when
/// the same outputs, bit for bit, came in the same positions (up to a
/// 64-bit hash collision). Unlike a sum, it changes when two outputs swap.
class Digest {
 public:
  void add(double output) {
    // splitmix64's finaliser over the running state and the output bits.
    std::uint64_t z =
        (state_ ^ std::bit_cast<std::uint64_t>(output)) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    state_ = z ^ (z >> 31);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0;
};

/// Digest of `results` in order, and whether they are exactly the ids
/// first_id, first_id + 1, ... (one result per request, none misrouted).
struct Delivered {
  std::uint64_t checksum = 0;
  bool in_order = true;
};
Delivered digest_results(std::span<const serve::RequestResult> results,
                         std::uint64_t first_id);

/// 8 -> widths... -> 1 sigmoid net (K = 1), scaled-uniform init, built
/// from `seed` alone.
nn::FeedForwardNetwork make_net(std::uint64_t seed,
                                const std::vector<std::size_t>& widths);
/// `count` probes, uniform in [0, 1)^8.
std::vector<std::vector<double>> make_inputs(std::size_t count,
                                             std::uint64_t seed);
/// The serving runtimes' heavy-tailed per-neuron latency model.
dist::LatencyModel heavy_tail();

/// Two distinct crashed hidden neurons drawn from `seed`.
fault::FaultPlan crash_plan(const nn::FeedForwardNetwork& net,
                            std::uint64_t seed);

/// Pool shape shared by the in-process rungs and references.
serve::ServeConfig pool_config(std::uint64_t serve_seed,
                               std::size_t replicas = kReplicas);
/// 2-worker ring transport with the same serving semantics.
transport::TransportConfig fleet_config(std::uint64_t serve_seed);

/// A ring-transport fleet deployed the way soak_monitor deploys one: a
/// fleet watchdog with forced respawn, so a stalled worker is SIGKILLed
/// and healed instead of hanging the run. The deadlines are as short as
/// the network's Bind allows (see fixtures.cpp), which keeps each heal,
/// and so the run-to-run spread of the heal count, cheap.
/// Construction forks, binds, serves one priming probe (so the bind has
/// really happened), then rebinds so request ids start at 0 again; the
/// caller installs its timeline afterwards.
class Fleet {
 public:
  Fleet(const nn::FeedForwardNetwork& net, transport::TransportConfig config);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  transport::WorkerHost& host() { return *host_; }
  /// Workers the watchdog has SIGKILLed for a forced respawn (lifetime).
  std::uint64_t heals() const {
    return heals_.load(std::memory_order_relaxed);
  }
  /// Fork + Bind + first probe, seconds.
  double bind_seconds() const { return bind_seconds_; }

 private:
  std::unique_ptr<transport::WorkerHost> host_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::atomic<std::uint64_t> heals_{0};
  double bind_seconds_ = 0.0;
};

/// One closed-loop batch as the driver thread saw it.
struct BatchServed {
  std::uint64_t checksum = 0;  ///< Digest of the delivered outputs
  /// One result per accepted request, with the ids the batch was due.
  bool in_order = true;
  std::size_t accepted = 0;    ///< requests the runtime took (rest shed)
  double submit_seconds = 0.0;
  double drain_seconds = 0.0;
};

/// Submits `batch` and drains it under the hard deadline -- the way the
/// exec backends, the examples and bench_to_json drive both runtimes.
/// The batch is due the ids from `next_id` on, which advances past the
/// accepted requests. Spans (when traced) go around the submit and the
/// drain, under `parent`, tagged with the batch `id`.
template <typename Runtime>
BatchServed serve_batch(Runtime& runtime,
                        std::span<const std::vector<double>> batch,
                        std::uint64_t& next_id, SpanLog& spans,
                        const char* submit_name, const char* drain_name,
                        std::int32_t parent, std::uint64_t id) {
  const Armed armed(hard_deadline(), kBatchDeadlineSeconds);
  BatchServed served;
  std::vector<serve::RequestResult> results;
  const auto start = Clock::now();
  {
    const ScopedSpan span(spans, submit_name, parent, id);
    served.accepted = runtime.submit_batch(batch);
  }
  const auto submitted = Clock::now();
  {
    const ScopedSpan span(spans, drain_name, parent, id);
    results = runtime.drain();
  }
  served.submit_seconds = seconds_between(start, submitted);
  served.drain_seconds = seconds_since(submitted);
  const Delivered delivered = digest_results(results, next_id);
  served.checksum = delivered.checksum;
  served.in_order = delivered.in_order && results.size() == served.accepted;
  next_id += served.accepted;
  return served;
}

/// One attack family of the campaign workload.
struct Family {
  const char* name;
  fault::AttackKind attack;
  std::vector<std::size_t> counts;  ///< size L, or L+1 for synapse attacks
  theory::FepOptions fep;
};
/// Crash, Byzantine-neuron and synapse families, all on the
/// transmitted-value convention (the one the injector and message paths
/// agree on bit for bit).
std::vector<Family> campaign_families(const nn::FeedForwardNetwork& net);
fault::CampaignConfig campaign_config(const Family& family,
                                      std::size_t trials, std::size_t probes,
                                      std::uint64_t seed);

/// Campaign backends over `net`: the analytic Injector against the serving
/// pool (2 replicas, heavy-tail latency).
struct Backends {
  Backends(const nn::FeedForwardNetwork& net, std::uint64_t serve_seed);
  std::unique_ptr<exec::EvalBackend> injector;
  std::unique_ptr<exec::EvalBackend> serve;
};

/// Per-layer times of one traced campaign call, seconds.
struct CallTimes {
  double make_trials = 0.0;
  double injector_trials = 0.0;
  double serve_trials = 0.0;
  double bound = 0.0;
};

/// One fault::cross_check_campaign call. Checks max_divergence == 0 and
/// observed_max <= fep_bound on both backends; a miss counts every probe
/// evaluation of the call as failed. Returns the call's wall seconds.
/// When `times` is non-null the call is traced: the backends are wrapped
/// in span-recording decorators, and make_campaign_trials plus the bound
/// (profile_of + the Theorem 2/4 formula) are timed by calling them again
/// with the same arguments, outside the returned wall time.
double cross_check(Run& run, const nn::FeedForwardNetwork& net,
                   const Family& family, const fault::CampaignConfig& config,
                   Backends& backends, std::uint64_t call_id,
                   CallTimes* times);

/// load::Pipeline decorator: records how late each submit ran against the
/// trace schedule, counts poll() calls, and (when traced) spans every
/// submit and every poll sweep (consecutive polls up to the first miss).
class TimedPipeline final : public load::Pipeline {
 public:
  TimedPipeline(load::Pipeline& inner, const load::ArrivalTrace& trace,
                SpanLog& spans, std::int32_t parent);

  bool try_submit(std::vector<double> x) override;
  bool poll(serve::RequestResult& out) override;
  std::size_t outstanding() const override { return inner_.outstanding(); }
  serve::ServeReport report() const override { return inner_.report(); }

  /// Submit lateness against the schedule, seconds (one per submit).
  const std::vector<double>& lags() const { return lags_; }
  std::uint64_t polls() const { return polls_; }

 private:
  void anchor(Clock::time_point now, double scheduled);

  load::Pipeline& inner_;
  const load::ArrivalTrace& trace_;
  SpanLog& spans_;
  std::int32_t parent_;
  bool anchored_ = false;
  Clock::time_point start_{};
  std::size_t submitted_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t sweeps_ = 0;
  std::int32_t sweep_ = SpanLog::kNone;
  std::vector<double> lags_;
};

/// Digest of the outputs of each consecutive chunk of `sizes` requests,
/// served by a fresh in-process pool (4 replicas) with `config`'s
/// semantics and `timeline`: the reference every serving path must
/// reproduce bit for bit. `inputs(k, i)` is the input of request i of
/// chunk k.
template <typename InputFn>
std::vector<std::uint64_t> reference_checksums(
    const nn::FeedForwardNetwork& net, serve::ServeConfig config,
    const serve::FaultTimeline& timeline, std::span<const std::size_t> sizes,
    InputFn&& inputs) {
  // Chunks are submitted in groups of up to kGroup requests per drain, so
  // the replicas stay busy; digests are still taken chunk by chunk.
  constexpr std::size_t kGroup = 8192;
  config.replicas = 4;
  std::size_t largest = kGroup;
  for (std::size_t n : sizes) largest = std::max(largest, n);
  config.queue_capacity = std::max(config.queue_capacity, largest);
  serve::ReplicaPool pool(net, config);
  pool.set_timeline(timeline);
  std::vector<std::uint64_t> digests;
  digests.reserve(sizes.size());
  std::vector<std::vector<double>> group;
  for (std::size_t k = 0; k < sizes.size();) {
    const std::size_t first = k;
    group.clear();
    while (k < sizes.size() &&
           (group.empty() || group.size() + sizes[k] <= kGroup)) {
      for (std::size_t i = 0; i < sizes[k]; ++i) {
        group.push_back(inputs(k, i));
      }
      ++k;
    }
    pool.submit_batch(group);
    const auto results = pool.drain();
    std::size_t at = 0;
    for (std::size_t c = first; c < k; ++c) {
      Digest digest;
      for (std::size_t i = 0; i < sizes[c]; ++i) {
        digest.add(results[at++].output);
      }
      digests.push_back(digest.value());
    }
  }
  return digests;
}

}  // namespace perfbench
