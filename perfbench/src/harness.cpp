#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "runtime/percentile.h"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ percentiles

long samples_beyond(long n, double p) {
  // runtime::percentile interpolates at rank p/100 * (n - 1); the samples
  // ranked strictly above it are the ones the estimate's tail rests on.
  if (n <= 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<long>(std::floor(rank));
}

double highest_supported_percentile(long n) {
  for (const double p : {99.0, 95.0, 90.0}) {
    if (samples_beyond(n, p) >= kMinTailSamples) return p;
  }
  return 50.0;
}

namespace {

Digest digest_at(std::vector<double> samples, double tail_p) {
  Digest d;
  d.n = static_cast<long>(samples.size());
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = scbnn::runtime::percentile(samples, 50.0);
  d.p99 = scbnn::runtime::percentile(samples, tail_p);
  double sum = 0.0;
  for (const double v : samples) sum += v;
  d.mean = sum / static_cast<double>(samples.size());
  return d;
}

}  // namespace

Digest digest(std::vector<double> samples, const char* what) {
  const long n = static_cast<long>(samples.size());
  if (samples_beyond(n, 99.0) < kMinTailSamples) {
    throw InvalidRun(std::string(what) + ": " + std::to_string(n) +
                     " samples leave fewer than " +
                     std::to_string(kMinTailSamples) +
                     " beyond p99; the run is too short to report p99");
  }
  return digest_at(std::move(samples), 99.0);
}

Digest digest_lenient(std::vector<double> samples) {
  const double p =
      highest_supported_percentile(static_cast<long>(samples.size()));
  return digest_at(std::move(samples), p);
}

Digest windowed_digest(const std::vector<double>& in_order,
                       const char* what) {
  const long n = static_cast<long>(in_order.size());
  const long windows = std::max(1L, n / kWindowSamples);
  std::vector<double> p50s, p99s;
  for (long w = 0; w < windows; ++w) {
    const auto from = in_order.begin() + w * n / windows;
    const auto to = in_order.begin() + (w + 1) * n / windows;
    const Digest d = digest(std::vector<double>(from, to), what);
    p50s.push_back(d.p50);
    p99s.push_back(d.p99);
  }
  Digest out = digest_at(in_order, 99.0);
  out.window_p99 = p99s;
  std::sort(p50s.begin(), p50s.end());
  std::sort(p99s.begin(), p99s.end());
  out.p50 = scbnn::runtime::percentile(p50s, 50.0);
  out.p99 = scbnn::runtime::percentile(p99s, 50.0);
  return out;
}

// ---------------------------------------------------------- CPU accounting

namespace {

double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

double clock_ms(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double process_cpu_ms(pid_t pid) {
  clockid_t clock{};
  if (clock_getcpuclockid(pid, &clock) != 0) return 0.0;
  return clock_ms(clock);
}

CpuReading read_cpu(const std::vector<pid_t>& live_children) {
  CpuReading r;
  r.self_ms = clock_ms(CLOCK_PROCESS_CPUTIME_ID);
  rusage children{};
  if (getrusage(RUSAGE_CHILDREN, &children) == 0) {
    r.children_ms = timeval_ms(children.ru_utime) +
                    timeval_ms(children.ru_stime);
    r.children_ctx_switches = static_cast<std::uint64_t>(children.ru_nvcsw) +
                              static_cast<std::uint64_t>(children.ru_nivcsw);
  }
  for (const pid_t pid : live_children) r.children_ms += process_cpu_ms(pid);
  return r;
}

// ---------------------------------------------------------------- self time

double self_time_ms(double call_ms, std::initializer_list<double> stage_ms) {
  for (const double ms : stage_ms) call_ms -= ms;
  return call_ms;
}

// ------------------------------------------------------------ output check

bool same_arithmetic(const scbnn::runtime::Prediction& a,
                     const scbnn::runtime::Prediction& b) {
  return a.label == b.label && a.margin == b.margin && a.rung == b.rung &&
         a.bits_used == b.bits_used;
}

// ------------------------------------------------------------------ report

std::string format_list(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.3g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

std::string unit_of(const std::string& metric) {
  static const std::map<std::string, std::string> exact = {
      {"setup_s", "s"},
      {"img_per_s", "1/s"},
      {"slo_attainment", "frac"},
      {"served_frac", "frac"},
      {"energy_nj_per_frame", "nJ"},
      {"peak_rss_mb", "MB"},
      {"hw.sc_cycles_per_frame", "count"},
      {"nn.tail_gflops", "GFLOP/s"},
  };
  if (const auto it = exact.find(metric); it != exact.end()) return it->second;
  const auto ends_with = [&](const std::string& suffix) {
    return metric.size() >= suffix.size() &&
           metric.compare(metric.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
  };
  if (metric.find("_us") != std::string::npos) return "us";
  if (ends_with("_pct")) return "%";
  if (ends_with("_frac")) return "frac";
  if (metric.find("_ms") != std::string::npos) return "ms";
  return "count";
}

void print_report(const Options& options, const Report& report) {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::printf("perfbench %s  seed=%llu  seconds=%d  trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("  %-10s %9s %9s %9s %9s %9s %11s\n", "phase", "attempted",
              "served", "rejected", "dropped", "failed", "mismatches");
  for (const PhaseCount& p : report.phases) {
    std::printf("  %-10s %9ld %9ld %9ld %9ld %9ld %11ld\n", p.phase.c_str(),
                p.attempted, p.served, p.rejected, p.dropped, p.failed,
                p.mismatches);
    attempted += p.attempted;
    failed += p.rejected + p.dropped + p.failed;
    correct &= p.mismatches == 0 && p.failed == 0;
  }
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const auto& [name, value] : report.metrics) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value,
                unit_of(name).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0, unit_of(name).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
