#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "catalogue.hpp"
#include "obs/json.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = position - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

PhaseSummary summarise(const std::vector<Completion>& completions,
                       double phase_s) {
  constexpr std::size_t kWindows = 10;
  const double width = phase_s / static_cast<double>(kWindows);
  double operations = 0.0;
  std::vector<double> latencies;
  latencies.reserve(completions.size());
  std::vector<std::vector<double>> windows(kWindows);
  for (const Completion& c : completions) {
    operations += c.operations;
    latencies.push_back(c.latency_s);
    const auto w = std::min(kWindows - 1,
                            static_cast<std::size_t>(c.end_s / width));
    windows[w].push_back(c.latency_s);
  }
  std::vector<double> window_p95;
  for (const auto& window : windows) {
    if (!window.empty()) window_p95.push_back(quantile(window, 0.95));
  }
  return {operations / phase_s, quantile(latencies, 0.50),
          median(window_p95)};
}

namespace {

double maxrss_mb(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

double peak_rss_self_mb() { return maxrss_mb(RUSAGE_SELF); }
double peak_rss_children_mb() { return maxrss_mb(RUSAGE_CHILDREN); }

void Outcome::set(std::string_view name, double value) {
  for (auto& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  for (const auto& list : {std::span<const MetricSpec>(kEndToEnd),
                           std::span<const MetricSpec>(kPerLayer)}) {
    for (const MetricSpec& spec : list) {
      if (spec.name == name) {
        metrics.push_back(
            {std::string(name), value, std::string(spec.unit)});
        return;
      }
    }
  }
  std::fprintf(stderr, "perfbench: metric %.*s is not catalogued\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

const Metric* Outcome::find(std::string_view name) const {
  for (const auto& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void Outcome::fail(std::uint64_t operations, bool wrong_output,
                   const std::string& why) {
  failed += operations;
  if (wrong_output) correct = false;
  std::fprintf(stderr, "perfbench: FAILED %llu operation(s): %s\n",
               static_cast<unsigned long long>(operations), why.c_str());
}

std::string result_line(const Outcome& outcome,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    wnf::obs::json_append_string(out, metrics[i].name);
    out += ": {\"value\": ";
    wnf::obs::json_append_double(out, metrics[i].value);
    out += ", \"unit\": ";
    wnf::obs::json_append_string(out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

namespace {
// A traced serve_open run records two spans per request; the cap bounds
// the log's memory (~40 bytes a span) on the fastest machines.
constexpr std::size_t kMaxSpans = std::size_t{1} << 22;
}  // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(std::size_t{1} << 16);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t SpanLog::begin(const char* name, std::int32_t parent,
                            std::uint64_t id) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return kNone;
  const std::int64_t start = now_ns();
  spans_.push_back({name, start, -1, parent, id});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::end(std::int32_t span) {
  if (span == kNone) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

double SpanLog::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return total;
}

bool SpanLog::write(const std::string& path, std::size_t limit) const {
  std::ofstream file(path);
  if (!file) return false;
  std::string out = "{\"traceEvents\": [";
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ",";
    out += "\n{\"name\": ";
    wnf::obs::json_append_string(out, span.name);
    out += ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": ";
    wnf::obs::json_append_double(out, static_cast<double>(span.start_ns) / 1e3);
    out += ", \"dur\": ";
    const std::int64_t end = span.end_ns >= 0 ? span.end_ns : span.start_ns;
    wnf::obs::json_append_double(out,
                                 static_cast<double>(end - span.start_ns) / 1e3);
    out += ", \"args\": {\"span\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"id\": " + std::to_string(span.id) + "}}";
  }
  out += "\n], \"spans_recorded\": " + std::to_string(spans_.size()) + "}\n";
  file << out;
  return static_cast<bool>(file);
}

HardDeadline::HardDeadline(std::function<void()> on_expire)
    : on_expire_(std::move(on_expire)),
      epoch_(Clock::now()),
      thread_([this] { run(); }) {}

HardDeadline::~HardDeadline() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

std::int64_t HardDeadline::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void HardDeadline::arm(double seconds) {
  deadline_ns_.store(now_ns() + static_cast<std::int64_t>(seconds * 1e9),
                     std::memory_order_relaxed);
}

void HardDeadline::run() {
  std::unique_lock lock(mutex_);
  while (!wake_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stopping_; })) {
    const std::int64_t deadline =
        deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0 && now_ns() > deadline) {
      lock.unlock();
      on_expire_();  // does not return in practice: it ends the process
      lock.lock();
      deadline_ns_.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace perfbench
