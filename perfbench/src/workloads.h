// The three perfbench workloads. Each returns its measured phases and
// metrics; main prints them. Why each workload exists is in
// perfbench/README.md.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// End-to-end metrics, reported by every untraced run (BENCHMARK.json
/// end_to_end): the ones whose run-to-run spread on the shared reference
/// host stays well inside a regression bound.
inline const std::vector<std::string> kEndToEnd = {
    "setup_s",     "cpu_ms_per_frame",    "slo_attainment",
    "served_frac", "energy_nj_per_frame", "peak_rss_mb"};

/// Per-layer metrics, reported by every traced run (BENCHMARK.json
/// per_layer). The first three are the wall-clock end-to-end figures: the
/// host's vCPU stalls and wake-up delays move them by more than any bound
/// allows, so they are reported unbounded, from the traced run's untraced
/// phase. A layer a workload never runs in this process reads 0.
inline const std::vector<std::string> kPerLayer = {
    "img_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "hybrid.b4_us_per_frame",
    "hybrid.b8_us_per_frame",
    "nn.tail_us_per_frame",
    "nn.tail_gflops",
    "hw.sc_cycles_per_frame",
    "runtime.engine.glue_frac",
    "runtime.executor.tasks_per_batch",
    "runtime.executor.steals_per_batch",
    "runtime.executor.parks_per_batch",
    "runtime.server.submit_us_p99",
    "runtime.server.queue_wait_ms_p50",
    "runtime.server.queue_wait_ms_p99",
    "runtime.server.compute_ms_p99",
    "runtime.server.batch_size_mean",
    "runtime.server.rejected_frac",
    "runtime.pipeline.escalated_frac",
    "fleet.submit_us_p99",
    "fleet.transit_ms_p50",
    "fleet.transit_ms_p99",
    "fleet.batch_size_mean",
    "fleet.shard_cpu_ms_per_frame",
    "fleet.coord_cpu_ms_per_frame",
    "fleet.ctx_switches_per_frame",
    "fleet.rejected_frac",
    "fleet.deadline_dropped_frac",
    "sensor.driver.late_p99_ms",
    "trace.glue_pct",
    "trace.overhead_pct"};

/// Seconds of load served before any timing starts: the first second of a
/// compute-bound run on the reference host is 30-60% faster than the
/// settled rate.
inline constexpr double kWarmupSeconds = 2.0;

/// Cold set-ups per run. Half run before the measured load and half after
/// it, so the median spans the run's host state rather than one instant
/// of it.
inline constexpr int kColdSetups = 16;

/// The cold set-ups of one run. setup_s is the median of their
/// process-tree CPU time (shard children included), not of their wall
/// time: on the reference host the wall time of a set-up whose work runs
/// in parallel depends on whether the host gives each thread a vCPU at
/// that moment. The fleet's two shard cold starts read ~4 ms when they
/// overlap and ~9 ms when they run one after the other, at the same CPU.
/// The wall-clock median is printed in the notes.
struct Setups {
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;

  /// Record a set-up that began at `cpu0` / `wall0` and has just ended;
  /// `live_children` are the processes it started and left running.
  void add(const CpuReading& cpu0, Clock::time_point wall0,
           const std::vector<pid_t>& live_children = {});
  /// setup_s into `values`; both samples into the notes.
  void report(std::map<std::string, double>& values, Report& report) const;
};

/// Worker threads of every output-check reference. The reference is built
/// from the same bundle file as the served model; the runtime guarantees
/// bit-identical predictions at any thread count, so only its speed
/// depends on this.
inline constexpr unsigned kReferenceThreads = 4;

/// The open-loop generator is invalid (not slow) when its p99 lateness
/// exceeds this.
inline constexpr double kMaxGeneratorLateMs = 20.0;

/// Copy the workload's measured values into `report` in the order of the
/// list the run reports (kEndToEnd untraced, kPerLayer traced). A missing
/// end-to-end value is a benchmark bug and throws; a missing per-layer
/// value is a layer the workload does not run here and reads 0.
void emit_metrics(const Options& options,
                  const std::map<std::string, double>& values, Report& report);

/// Wall-clock throughput and latency of the measured (untraced) phase: a
/// note in every run, and the img_per_s / latency_p50_ms / latency_p99_ms
/// per-layer values in traced runs. `latency_in_order` is in time order.
void report_wall_clock(const Options& options, double img_per_s,
                       const std::vector<double>& latency_in_order,
                       const char* what, std::map<std::string, double>& values,
                       Report& report);

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Mean of a sample (0 when empty).
[[nodiscard]] double mean(const std::vector<double>& values);

/// p99 of the generator's lateness over a window; throws InvalidRun when it
/// exceeds kMaxGeneratorLateMs.
double check_generator(const std::vector<double>& late_ms);

Report run_offline_batch(const Options& options);
Report run_sensor_stream(const Options& options);
Report run_fleet_sessions(const Options& options);

/// The helpers' self-tests; returns the number of failed checks.
int run_self_tests();

}  // namespace perfbench
