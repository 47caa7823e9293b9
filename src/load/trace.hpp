// Arrival traces for open-loop traffic replay: *when* requests arrive,
// decided before any of them runs.
//
// A closed-loop driver submits a request when the previous one finishes,
// so offered load silently adapts to capacity and overload is unobservable
// — the classic coordinated-omission trap. An open-loop trace fixes the
// arrival schedule up front (Poisson for memoryless traffic, a diurnal
// rate curve for the daily tide of a million-user deployment) and the
// replayer (load/replay.hpp) honours it regardless of completion rate.
// Traces are generated from a seeded Rng, serialize to a plain text
// format, and carry a tenant label per arrival so many networks can
// time-share one fleet.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace wnf::load {

/// One scheduled request arrival.
struct Arrival {
  double time = 0.0;         ///< trace seconds from replay start
  std::uint32_t tenant = 0;  ///< which deployment this request targets
};

/// A fixed schedule of request arrivals, ascending in time.
struct ArrivalTrace {
  std::vector<Arrival> arrivals;
  double duration = 0.0;  ///< trace length in seconds (>= last arrival)

  std::size_t size() const { return arrivals.size(); }
  bool empty() const { return arrivals.empty(); }
  /// Mean offered rate over the trace (arrivals per trace second).
  double offered_rate() const {
    return duration > 0.0 ? static_cast<double>(arrivals.size()) / duration
                          : 0.0;
  }
  /// The arrival times alone (ascending) — the shape
  /// serve::FaultTimeline::resolve_wall consumes to turn wall-clock fault
  /// windows into request-id windows against this trace.
  std::vector<double> arrival_times() const;
};

/// Homogeneous Poisson arrivals at `rate` per second over `duration`
/// seconds: exponential inter-arrival gaps, the memoryless baseline for
/// open-loop load. Deterministic in (rate, duration, rng state).
ArrivalTrace poisson_trace(double rate, double duration, Rng& rng,
                           std::uint32_t tenant = 0);

/// Inhomogeneous Poisson arrivals whose rate follows a diurnal curve:
///   rate(t) = base_rate + (peak_rate - base_rate) *
///             (1 - cos(2*pi*t / period)) / 2
/// — troughs at t = 0 and every full period, one peak mid-period.
/// Sampled by thinning a homogeneous peak_rate stream, so the trace is
/// deterministic in (rates, period, duration, rng state). Requires
/// 0 <= base_rate <= peak_rate, peak_rate > 0, period > 0.
ArrivalTrace diurnal_trace(double base_rate, double peak_rate, double period,
                           double duration, Rng& rng,
                           std::uint32_t tenant = 0);

/// Merges traces into one schedule ordered by time (stable on ties: the
/// earlier input trace wins, then earlier index). The result's duration is
/// the max of the inputs' — how multi-tenant workloads are composed from
/// per-tenant traces.
ArrivalTrace merge_traces(std::span<const ArrivalTrace> traces);

/// Compresses (factor > 1) or stretches (factor < 1) the schedule in time:
/// every arrival time and the duration divide by `factor`, multiplying the
/// offered rate — the overload knob ("replay yesterday's trace at 2x").
/// Requires factor > 0.
ArrivalTrace scale_rate(const ArrivalTrace& trace, double factor);

/// Writes the trace in the text format below; load_trace round-trips it
/// exactly (times print with 17 significant digits).
///
///   # wnf-arrival-trace v1
///   duration <seconds>
///   <time> <tenant>
///   ...
void save_trace(const ArrivalTrace& trace, std::ostream& out);

/// Parses the text format; nullopt on any structural violation (bad
/// header, a line without exactly its two tokens, a time or duration that
/// is not a finite number, a tenant that is not unsigned decimal digits
/// within 32 bits, descending times, arrival past duration).
std::optional<ArrivalTrace> load_trace(std::istream& in);

}  // namespace wnf::load
