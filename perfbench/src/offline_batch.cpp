// offline_batch: closed loop, the paper's hybrid datapath alone.
//
// One client classifies batches of drifting-camera frames back to back
// through a fixed 4-bit sc-proposed-fast InferenceEngine on one executor
// thread. No server, router, sensor session or fleet sits in the path, so
// this workload is the "no change" control for those layers.
#include <algorithm>
#include <memory>
#include <utility>

#include "frozen_model.h"
#include "nn/inference_plan.h"
#include "runtime/percentile.h"
#include "runtime/process_stats.h"
#include "sensor/frame_source.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rt = scbnn::runtime;

constexpr int kBatch = 8;    ///< frames per classify call (one chunk)
constexpr int kPool = 512;   ///< distinct frames, cycled
constexpr int kPixels = 28 * 28;
/// cpu_ms_per_frame is taken at this percentile of the batches' process
/// CPU time. On the reference host one batch costs anywhere from ~8 ms
/// (the vCPU's core to itself) to ~15 ms (its core shared), and the share
/// of each drifts from minute to minute: the mean over a 30 s run moved by
/// 25% across ten runs, while p95 of the same batches held within ~5%.
constexpr double kCpuPercentile = 95.0;
/// SLO on one batch's wall time: about twice the p99 this workload shows
/// on the reference host (15.9-16.1 ms over four 30 s runs), so that
/// slo_attainment moves when batches slow down.
constexpr double kBatchLimitMs = 30.0;

struct PhaseTotals {
  PhaseCount count;
  long frames = 0;
  long batches = 0;
  double call_ms = 0.0;  ///< summed classify() wall time
  double first_layer_ms = 0.0;
  double tail_ms = 0.0;
  double glue_ms = 0.0;  ///< classify time outside the first layer and tail
  double energy_j = 0.0;
  double sc_cycles = 0.0;
  long slo_met = 0;
  /// Per-batch process CPU time. With one executor thread the batch runs
  /// on one CPU at a time, so this is its latency without the vCPU stalls
  /// the shared host injects (wall time is in call_ms).
  std::vector<double> batch_cpu_ms;
  std::vector<double> batch_wall_ms;
  CpuReading cpu_start, cpu_end;
  rt::ExecutorStats exec_start, exec_end;
};

}  // namespace

Report run_offline_batch(const Options& options) {
  // Inputs: a pool of drifting-camera frames from the seed.
  std::vector<float> pool(static_cast<std::size_t>(kPool) * kPixels);
  {
    scbnn::sensor::ArrivalConfig arrivals;
    arrivals.kind = scbnn::sensor::ArrivalKind::kUniform;
    scbnn::sensor::DriftingCameraSource source(kPool, arrivals, options.seed);
    scbnn::sensor::Frame frame;
    for (int i = 0; source.next(frame); ++i) {
      std::copy(frame.pixels.begin(), frame.pixels.end(),
                pool.begin() + static_cast<std::ptrdiff_t>(i) * kPixels);
    }
  }

  const std::string path = options.workdir + "/offline_batch.bundle";
  {
    scbnn::hybrid::ModelBundle bundle = frozen_bundle({4}, 0.5);
    scbnn::hybrid::save_bundle(bundle, path);
  }
  rt::RuntimeConfig rc;
  rc.threads = 1;

  // Reference: a servable built from the same bundle file classifies every
  // pool frame directly, once, one chunk per call.
  std::vector<rt::Prediction> reference(kPool);
  double flops_per_image = 0.0;
  {
    scbnn::hybrid::ModelBundle bundle = scbnn::hybrid::load_bundle(path);
    scbnn::nn::InferencePlan plan(bundle.rungs[0].tail,
                                  bundle.lenet.conv1_kernels, 28, 28);
    flops_per_image = plan.flops_per_image();
    rt::RuntimeConfig ref_rc;
    ref_rc.threads = kReferenceThreads;
    auto direct = scbnn::hybrid::instantiate_servable(bundle, ref_rc);
    for (int at = 0; at < kPool; at += kReferenceChunk) {
      direct->classify(pool.data() + static_cast<std::ptrdiff_t>(at) * kPixels,
                       kReferenceChunk, reference.data() + at);
    }
  }

  Report report;
  std::map<std::string, double> values;

  // Set-up: bundle load, engine/LUT build, executor spawn, first frame.
  // The last servable built serves the load.
  PhaseCount setup{"setup"};
  Setups setups;
  std::unique_ptr<rt::Servable> servable;
  const auto cold_setups = [&](int count) {
    for (int k = 0; k < count; ++k) {
      servable.reset();
      rt::Prediction first;
      const CpuReading c0 = read_cpu();
      const auto t0 = Clock::now();
      scbnn::hybrid::ModelBundle bundle = scbnn::hybrid::load_bundle(path);
      servable = scbnn::hybrid::instantiate_servable(bundle, rc);
      servable->classify(pool.data(), 1, &first);
      setups.add(c0, t0);
      ++setup.attempted;
      ++setup.served;
      setup.mismatches += same_arithmetic(first, reference[0]) ? 0 : 1;
    }
  };
  cold_setups(kColdSetups / 2);

  std::vector<rt::Prediction> preds(kBatch);
  long cursor = 0;
  const auto run_phase = [&](const char* name, double seconds) {
    PhaseTotals t;
    PhaseCount& count = t.count;
    count.phase = name;
    t.exec_start = servable->executor_stats();
    t.cpu_start = read_cpu();
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < deadline) {
      const long offset = (cursor * kBatch) % kPool;
      ++cursor;
      const float* frames = pool.data() + offset * kPixels;
      const double cpu_start = read_cpu().self_ms;
      const std::int64_t start = now_ns();
      const rt::ServeStats stats =
          servable->classify(frames, kBatch, preds.data());
      const std::int64_t end = now_ns();
      const double ms = static_cast<double>(end - start) / 1e6;
      const double cpu_ms = read_cpu().self_ms - cpu_start;
      long bad = 0;
      for (int i = 0; i < kBatch; ++i) {
        bad += same_arithmetic(preds[i], reference[offset + i]) ? 0 : 1;
      }
      count.attempted += kBatch;
      count.served += kBatch;
      count.mismatches += bad;
      t.frames += kBatch;
      ++t.batches;
      t.call_ms += ms;
      t.batch_cpu_ms.push_back(cpu_ms);
      t.batch_wall_ms.push_back(ms);
      t.first_layer_ms += stats.first_layer_ms;
      t.tail_ms += stats.tail_ms;
      t.glue_ms += self_time_ms(ms, {stats.first_layer_ms, stats.tail_ms});
      t.energy_j += stats.energy_j;
      t.sc_cycles += stats.sc_cycles;
      if (bad == 0 && ms <= kBatchLimitMs) t.slo_met += kBatch;
    }
    t.cpu_end = read_cpu();
    t.exec_end = servable->executor_stats();
    report.phases.push_back(count);
    return t;
  };

  run_phase("warmup", kWarmupSeconds);
  // A traced run measures exactly what an untraced run measures, then
  // serves half as long again for the per-layer figures. Every call's
  // stage times are summed in both phases (a few adds per batch), so
  // trace.overhead_pct here shows how far the two phases drift apart.
  const PhaseTotals plain = run_phase(options.trace ? "untraced" : "measure",
                                      options.seconds);
  report_wall_clock(options,
                    static_cast<double>(plain.frames) * 1e3 / plain.call_ms,
                    plain.batch_cpu_ms, "offline_batch batch latency", values,
                    report);
  report.notes.push_back(
      "batch wall time p99 " +
      std::to_string(digest_lenient(plain.batch_wall_ms).p99) +
      " ms (SLO limit " + std::to_string(kBatchLimitMs) + " ms)");
  if (!options.trace) {
    const double frames = static_cast<double>(plain.frames);
    std::vector<double> batch_cpu = plain.batch_cpu_ms;
    std::sort(batch_cpu.begin(), batch_cpu.end());
    values["cpu_ms_per_frame"] =
        rt::percentile(batch_cpu, kCpuPercentile) / kBatch;
    report.notes.push_back(
        "process CPU per frame, mean over the window: " +
        std::to_string((plain.cpu_end.total_ms() - plain.cpu_start.total_ms()) /
                       frames) +
        " ms");
    values["slo_attainment"] = static_cast<double>(plain.slo_met) / frames;
    // A closed loop serves every frame it attempts unless classify throws,
    // which ends the run; the figure is here because every workload
    // reports every end-to-end metric.
    values["served_frac"] =
        static_cast<double>(plain.count.served) / plain.count.attempted;
    values["energy_nj_per_frame"] = plain.energy_j * 1e9 / frames;
    values["peak_rss_mb"] =
        static_cast<double>(rt::peak_rss_bytes()) / (1024.0 * 1024.0);
  } else {
    const PhaseTotals t = run_phase("traced", 0.5 * options.seconds);
    const double frames = static_cast<double>(t.frames);
    const double batches = static_cast<double>(t.batches);
    values["hybrid.b4_us_per_frame"] = t.first_layer_ms * 1e3 / frames;
    values["nn.tail_us_per_frame"] = t.tail_ms * 1e3 / frames;
    values["nn.tail_gflops"] =
        flops_per_image * frames / (t.tail_ms * 1e-3) / 1e9;
    values["hw.sc_cycles_per_frame"] = t.sc_cycles / frames;
    values["runtime.engine.glue_frac"] = t.glue_ms / t.call_ms;
    values["runtime.executor.tasks_per_batch"] =
        static_cast<double>(t.exec_end.tasks_run - t.exec_start.tasks_run) /
        batches;
    values["runtime.executor.steals_per_batch"] =
        static_cast<double>(t.exec_end.steals - t.exec_start.steals) /
        batches;
    values["runtime.executor.parks_per_batch"] =
        static_cast<double>(t.exec_end.parks - t.exec_start.parks) / batches;
    // Reconciliation, per frame of wall time: the layers (first layer and
    // tail) plus the unexplained rest of the traced phase make up the
    // traced figure, which is the untraced one plus the tracing overhead.
    const double untraced = plain.call_ms / static_cast<double>(plain.frames);
    const double traced = t.call_ms / frames;
    const double layers = (t.first_layer_ms + t.tail_ms) / frames;
    values["trace.glue_pct"] = 100.0 * (traced - layers) / untraced;
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced;
  }
  cold_setups(kColdSetups / 2);
  report.phases.push_back(setup);
  setups.report(values, report);
  emit_metrics(options, values, report);
  return report;
}

}  // namespace perfbench
