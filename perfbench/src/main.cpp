// The benchmark binary: one seeded workload per run.
//
//   perfbench --workload <serve_open|campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--tiny 1] [--corrupt-reference 1]
//   perfbench --list-metrics       # the catalogue, one "name unit kind" a line
//   perfbench --lint               # strict-JSON check of stdin (obs::json)
//
// The last stdout line is the result object; diagnostics go to stderr.
// Exit status is 0 only when every output checked out and no operation
// failed.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>

#include "catalogue.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>] [--tiny 1] "
               "[--corrupt-reference 1]\n",
               why.c_str());
  std::exit(2);
}

bool parse_flag(const std::string& value, const std::string& key) {
  if (value == "0") return false;
  if (value == "1") return true;
  usage(key + " takes 0 or 1");
}

int list_metrics() {
  for (const auto& spec : kEndToEnd) {
    std::printf("%.*s %.*s end_to_end\n", static_cast<int>(spec.name.size()),
                spec.name.data(), static_cast<int>(spec.unit.size()),
                spec.unit.data());
  }
  for (const auto& spec : kPerLayer) {
    std::printf("%.*s %.*s per_layer\n", static_cast<int>(spec.name.size()),
                spec.name.data(), static_cast<int>(spec.unit.size()),
                spec.unit.data());
  }
  return 0;
}

int lint_stdin() {
  const std::string text{std::istreambuf_iterator<char>(std::cin),
                         std::istreambuf_iterator<char>()};
  const auto result = wnf::obs::json_lint(text);
  if (result.ok) return 0;
  std::fprintf(stderr, "invalid JSON at byte %zu: %s\n", result.error_offset,
               result.error.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") return list_metrics();
    if (key == "--lint") return lint_stdin();
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = parse_flag(value, key);
      } else if (key == "--trace-dir") {
        options.trace_dir = value;
      } else if (key == "--tiny") {
        options.tiny = parse_flag(value, key);
      } else if (key == "--corrupt-reference") {
        options.corrupt_reference = parse_flag(value, key);
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  // Timed sleeps (the replayer's idle naps, the transport's parked waits)
  // last what they ask for: with the kernel's default 50 us slack the
  // median open-loop sojourn flipped between two modes from run to run.
  // Threads inherit the setting, so it covers every runtime thread.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  // The library's own tracing stays off: the benchmark times layers from
  // outside, with its own spans.
  wnf::obs::set_enabled(false);
  hard_deadline();  // start the guard before any blocking call

  Run run(options);
  if (options.workload == "serve_open") {
    run_serve_open(run);
  } else if (options.workload == "campaign") {
    run_campaign(run);
  } else {
    usage("unknown workload '" + options.workload + "'");
  }

  if (options.trace && !options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    if (!run.spans.write(path, 50000)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  // Exactly the catalogued metrics of this kind, in catalogue order.
  std::vector<Metric> emitted;
  for (const auto& spec : options.trace ? std::span<const MetricSpec>(kPerLayer)
                                        : std::span<const MetricSpec>(kEndToEnd)) {
    const Metric* metric = run.outcome.find(spec.name);
    if (metric == nullptr) {
      std::fprintf(stderr, "perfbench: internal error: %.*s not measured\n",
                   static_cast<int>(spec.name.size()), spec.name.data());
      return 4;
    }
    emitted.push_back(*metric);
  }
  Outcome& outcome = run.outcome;
  outcome.attempted = std::max<std::uint64_t>(outcome.attempted, 1);
  std::printf("%s\n", result_line(outcome, emitted).c_str());
  std::fflush(stdout);
  return outcome.correct && outcome.failed == 0 ? 0 : 1;
}
