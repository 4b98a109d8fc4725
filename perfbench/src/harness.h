// Measurement helpers shared by the perfbench workloads: the percentile
// rule, process-tree CPU accounting, call self time, and the report that
// ends every run with one JSON line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/servable.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] std::int64_t now_ns();

/// A run whose measurement cannot be trusted (generator fell behind, too
/// few samples for a reported percentile). Reported as invalid, never as a
/// slow result: the run exits non-zero without a result line.
class InvalidRun : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------ percentiles

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr long kMinTailSamples = 10;

/// Samples of an `n`-sample set that lie strictly above its p-th
/// percentile (the count a tail estimate rests on).
[[nodiscard]] long samples_beyond(long n, double p);

/// Highest of p99 / p95 / p90 / p50 that `n` samples support.
[[nodiscard]] double highest_supported_percentile(long n);

/// Median, p99 and mean of a latency sample, p99 interpolated by the
/// runtime's one percentile rule (runtime::percentile).
struct Digest {
  long n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  std::vector<double> window_p99;  ///< windowed_digest only, in time order
};

/// Digest of `samples`. Throws InvalidRun naming `what` when p99 has fewer
/// than kMinTailSamples samples beyond it.
[[nodiscard]] Digest digest(std::vector<double> samples, const char* what);

/// Same, for per-layer figures: an unsupported p99 is reported as the
/// highest supported percentile instead of failing the run.
[[nodiscard]] Digest digest_lenient(std::vector<double> samples);

/// Samples per window of windowed_digest (enough for p99 to have
/// kMinTailSamples beyond it).
inline constexpr long kWindowSamples = 1000;

/// Digest of a time-ordered sample, robust to a transient host stall: the
/// sample is cut into consecutive windows of at least kWindowSamples, and
/// p50 / p99 are the medians of the windows' p50s / p99s (mean and n stay
/// pooled). Throws InvalidRun, like digest(), when p99 of a window has too
/// few samples beyond it.
[[nodiscard]] Digest windowed_digest(const std::vector<double>& in_order,
                                     const char* what);

// ---------------------------------------------------------- CPU accounting

/// CPU consumed by this process and its children, in milliseconds.
/// `self_ms` is this process (all threads); `children_ms` is every child
/// already reaped (RUSAGE_CHILDREN) plus the live children passed in, read
/// through their process CPU clocks. Two readings subtract cleanly even
/// when children are reaped between them: a reaped child's whole lifetime
/// moves into RUSAGE_CHILDREN, and the live part counted at the first
/// reading is subtracted back out.
struct CpuReading {
  double self_ms = 0.0;
  double children_ms = 0.0;
  std::uint64_t children_ctx_switches = 0;  ///< reaped children only
  [[nodiscard]] double total_ms() const { return self_ms + children_ms; }
};

[[nodiscard]] CpuReading read_cpu(const std::vector<pid_t>& live_children = {});

/// CPU time of one live process, ms (0 when it is gone).
[[nodiscard]] double process_cpu_ms(pid_t pid);

// ---------------------------------------------------------------- self time

/// Self time of a call: its duration minus the stage times the library
/// reports for the stages that ran one after another inside it. What is
/// left is the call's own glue.
[[nodiscard]] double self_time_ms(double call_ms,
                                  std::initializer_list<double> stage_ms);

// ------------------------------------------------------------ output check

/// The arithmetic fields of two predictions are bit-identical.
[[nodiscard]] bool same_arithmetic(const scbnn::runtime::Prediction& a,
                                   const scbnn::runtime::Prediction& b);

/// Output-check references classify this many frames per call: no more
/// than the largest batch a served path forms, so the reference's working
/// set never sets the process's peak RSS.
inline constexpr int kReferenceChunk = 8;

// ------------------------------------------------------------------ report

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< where bundle files are written
};

/// Frame accounting for one phase of a workload.
struct PhaseCount {
  std::string phase;
  long attempted = 0;
  long served = 0;
  long rejected = 0;
  long dropped = 0;
  long failed = 0;
  long mismatches = 0;
};

struct Report {
  std::vector<PhaseCount> phases;
  std::vector<std::pair<std::string, double>> metrics;  ///< name -> value
  std::vector<std::string> notes;
  void add(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
};

/// "a b c" with 3 significant digits each, for report notes.
[[nodiscard]] std::string format_list(const std::vector<double>& values);

/// Unit of a metric by name (the units BENCHMARK.json declares).
[[nodiscard]] std::string unit_of(const std::string& metric);

/// Print the human-readable summary, then the result JSON as the last
/// stdout line. `correct` is true when no phase has a mismatch or failure.
void print_report(const Options& options, const Report& report);

}  // namespace perfbench
