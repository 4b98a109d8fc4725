// perfbench: the repo benchmark program.
//
//   perfbench --workload <offline_batch|sensor_stream|fleet_sessions>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Every run first runs the harness self-tests, then the workload, and ends
// its stdout with one JSON line: end-to-end metrics when --trace 0,
// per-layer metrics when --trace 1. An invalid run (generator fell
// behind, too few samples) exits 3 without a result line; any other error
// exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {

void emit_metrics(const Options& options,
                  const std::map<std::string, double>& values,
                  Report& report) {
  for (const std::string& name : options.trace ? kPerLayer : kEndToEnd) {
    const auto it = values.find(name);
    if (it == values.end() && !options.trace) {
      throw std::logic_error("workload did not measure " + name);
    }
    report.add(name, it == values.end() ? 0.0 : it->second);
  }
}

void report_wall_clock(const Options& options, double img_per_s,
                       const std::vector<double>& latency_in_order,
                       const char* what, std::map<std::string, double>& values,
                       Report& report) {
  const Digest lat = windowed_digest(latency_in_order, what);
  if (options.trace) {
    values["img_per_s"] = img_per_s;
    values["latency_p50_ms"] = lat.p50;
    values["latency_p99_ms"] = lat.p99;
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "wall clock (unbounded): %.1f img/s, latency p50 %.3f ms, "
                "p99 %.3f ms over %ld samples",
                img_per_s, lat.p50, lat.p99, lat.n);
  report.notes.push_back(line);
  report.notes.push_back("p99 per window of >= " +
                         std::to_string(kWindowSamples) + " samples (ms): " +
                         format_list(lat.window_p99));
}

void Setups::add(const CpuReading& cpu0, Clock::time_point wall0,
                 const std::vector<pid_t>& live_children) {
  wall_ms.push_back(ms_between(wall0, Clock::now()));
  cpu_ms.push_back(read_cpu(live_children).total_ms() - cpu0.total_ms());
}

void Setups::report(std::map<std::string, double>& values,
                    Report& report) const {
  values["setup_s"] = median(cpu_ms) / 1e3;
  report.notes.push_back("cold set-ups, CPU (ms): " + format_list(cpu_ms));
  report.notes.push_back("cold set-ups, wall (ms): " + format_list(wall_ms) +
                         "; median " + std::to_string(median(wall_ms)));
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double check_generator(const std::vector<double>& late_ms) {
  const double p99 = digest_lenient(late_ms).p99;
  if (p99 > kMaxGeneratorLateMs) {
    throw InvalidRun("generator fell behind: p99 lateness " +
                     std::to_string(p99) + " ms");
  }
  return p99;
}

}  // namespace perfbench

namespace {

using perfbench::Options;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <offline_batch|sensor_stream|"
               "fleet_sessions> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n");
  return 2;
}

bool parse_long(const char* text, long lo, long hi, long& out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    long v = 0;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--workdir") {
      options.workdir = value;
    } else if (key == "--seed" && parse_long(value, 0, 1L << 40, v)) {
      options.seed = static_cast<std::uint64_t>(v);
    } else if (key == "--seconds" && parse_long(value, 1, 3600, v)) {
      options.seconds = static_cast<int>(v);
    } else if (key == "--trace" && parse_long(value, 0, 1, v)) {
      options.trace = v == 1;
    } else {
      return usage();
    }
  }

  const int failed_checks = perfbench::run_self_tests();
  if (failed_checks != 0) {
    std::fprintf(stderr, "perfbench: %d self-test check(s) failed\n",
                 failed_checks);
    return 1;
  }

  try {
    perfbench::Report report;
    if (options.workload == "offline_batch") {
      report = perfbench::run_offline_batch(options);
    } else if (options.workload == "sensor_stream") {
      report = perfbench::run_sensor_stream(options);
    } else if (options.workload == "fleet_sessions") {
      report = perfbench::run_fleet_sessions(options);
    } else {
      return usage();
    }
    perfbench::print_report(options, report);
  } catch (const perfbench::InvalidRun& e) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
