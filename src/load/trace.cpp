#include "load/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "util/contract.hpp"

namespace wnf::load {

namespace {

constexpr char kTraceHeader[] = "# wnf-arrival-trace v1";

/// Exponential inter-arrival gap at `rate`; uniform() is in [0, 1) so the
/// log argument stays strictly positive.
double exponential_gap(double rate, Rng& rng) {
  return -std::log(1.0 - rng.uniform()) / rate;
}

/// Splits `line` into exactly two whitespace-separated tokens.
bool split_pair(const std::string& line, std::string& first,
                std::string& second) {
  std::istringstream fields(line);
  std::string extra;
  return (fields >> first >> second) && !(fields >> extra);
}

/// The whole of `token` as a finite double.
bool parse_finite(const std::string& token, double& value) {
  const char* const end = token.data() + token.size();
  const auto [at, error] = std::from_chars(token.data(), end, value);
  return error == std::errc{} && at == end && std::isfinite(value);
}

/// The whole of `token` as a tenant id: unsigned decimal digits that fit.
bool parse_tenant(const std::string& token, std::uint32_t& tenant) {
  if (token.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const char* const end = token.data() + token.size();
  const auto [at, error] = std::from_chars(token.data(), end, tenant);
  return error == std::errc{} && at == end;
}

}  // namespace

std::vector<double> ArrivalTrace::arrival_times() const {
  std::vector<double> times;
  times.reserve(arrivals.size());
  for (const Arrival& arrival : arrivals) times.push_back(arrival.time);
  return times;
}

ArrivalTrace poisson_trace(double rate, double duration, Rng& rng,
                           std::uint32_t tenant) {
  WNF_EXPECTS(rate > 0.0);
  WNF_EXPECTS(duration > 0.0);
  ArrivalTrace trace;
  trace.duration = duration;
  double t = exponential_gap(rate, rng);
  while (t < duration) {
    trace.arrivals.push_back({t, tenant});
    t += exponential_gap(rate, rng);
  }
  return trace;
}

ArrivalTrace diurnal_trace(double base_rate, double peak_rate, double period,
                           double duration, Rng& rng, std::uint32_t tenant) {
  WNF_EXPECTS(base_rate >= 0.0);
  WNF_EXPECTS(peak_rate >= base_rate);
  WNF_EXPECTS(peak_rate > 0.0);
  WNF_EXPECTS(period > 0.0);
  WNF_EXPECTS(duration > 0.0);
  ArrivalTrace trace;
  trace.duration = duration;
  // Thinning (Lewis & Shedler): draw candidates at the constant peak
  // rate, keep each with probability rate(t)/peak_rate. One rng stream,
  // consumed in time order, keeps the trace deterministic.
  constexpr double kTwoPi = 6.283185307179586;
  double t = exponential_gap(peak_rate, rng);
  while (t < duration) {
    const double rate =
        base_rate +
        (peak_rate - base_rate) * 0.5 * (1.0 - std::cos(kTwoPi * t / period));
    if (rng.uniform() * peak_rate < rate) {
      trace.arrivals.push_back({t, tenant});
    }
    t += exponential_gap(peak_rate, rng);
  }
  return trace;
}

ArrivalTrace merge_traces(std::span<const ArrivalTrace> traces) {
  ArrivalTrace merged;
  std::size_t total = 0;
  for (const ArrivalTrace& trace : traces) {
    total += trace.arrivals.size();
    merged.duration = std::max(merged.duration, trace.duration);
  }
  merged.arrivals.reserve(total);
  for (const ArrivalTrace& trace : traces) {
    merged.arrivals.insert(merged.arrivals.end(), trace.arrivals.begin(),
                           trace.arrivals.end());
  }
  std::stable_sort(merged.arrivals.begin(), merged.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });
  return merged;
}

ArrivalTrace scale_rate(const ArrivalTrace& trace, double factor) {
  WNF_EXPECTS(factor > 0.0);
  ArrivalTrace scaled;
  scaled.duration = trace.duration / factor;
  scaled.arrivals.reserve(trace.arrivals.size());
  for (const Arrival& arrival : trace.arrivals) {
    scaled.arrivals.push_back({arrival.time / factor, arrival.tenant});
  }
  return scaled;
}

void save_trace(const ArrivalTrace& trace, std::ostream& out) {
  out << kTraceHeader << '\n';
  out << std::setprecision(17);
  out << "duration " << trace.duration << '\n';
  for (const Arrival& arrival : trace.arrivals) {
    out << arrival.time << ' ' << arrival.tenant << '\n';
  }
}

std::optional<ArrivalTrace> load_trace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kTraceHeader) return std::nullopt;
  if (!std::getline(in, line)) return std::nullopt;
  ArrivalTrace trace;
  std::string first;
  std::string second;
  if (!split_pair(line, first, second) || first != "duration" ||
      !parse_finite(second, trace.duration) || !(trace.duration > 0.0)) {
    return std::nullopt;
  }
  double last = -std::numeric_limits<double>::infinity();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Arrival arrival;
    if (!split_pair(line, first, second) ||
        !parse_finite(first, arrival.time) ||
        !parse_tenant(second, arrival.tenant)) {
      return std::nullopt;
    }
    if (arrival.time < last || arrival.time < 0.0 ||
        arrival.time > trace.duration) {
      return std::nullopt;
    }
    last = arrival.time;
    trace.arrivals.push_back(arrival);
  }
  return trace;
}

}  // namespace wnf::load
