// fleet_sessions: open loop from 1024 sensor sessions into a 2-shard fleet.
//
// Two tenants (tenant 0 hard-deadline, tenant 1 degrade-tolerant) share a
// fleet::FleetCoordinator whose shards each serve the fixed 4-bit bundle on
// one thread. The offered rate is a small share of the shards' capacity, so
// per-frame transport (submit, ring push, doorbell, the shard's batch
// former, the collector) is a large part of what a frame costs.
#include <algorithm>
#include <future>
#include <thread>

#include "fleet/coordinator.h"
#include "frozen_model.h"
#include "runtime/process_stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rt = scbnn::runtime;
namespace fl = scbnn::fleet;

constexpr double kOfferedHz = 150.0;  ///< whole population, frames/s
constexpr long kSessions = 1024;
constexpr int kShards = 2;
constexpr double kDeadlineMs = 1000.0;  ///< tenant 0's hard deadline
/// SLO on due -> resolved latency: about twice the p99 this workload shows
/// on the reference host (7.5-9.5 ms over four 30 s runs).
constexpr double kLatencyLimitMs = 16.0;

std::uint32_t tenant_of(long session) {
  return static_cast<std::uint32_t>(session % 2);
}

/// Construct a fleet and wait until every shard has loaded its bundle
/// (a shard's epoch turns 1 once it serves).
std::unique_ptr<fl::FleetCoordinator> start_fleet(const fl::FleetConfig& cfg) {
  auto fleet = std::make_unique<fl::FleetCoordinator>(cfg);
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  while (true) {
    const fl::FleetStats stats = fleet->stats();
    const bool ready = std::all_of(
        stats.shards.begin(), stats.shards.end(),
        [](const fl::ShardReport& r) { return r.alive && r.epoch >= 1; });
    if (ready) return fleet;
    if (Clock::now() > give_up) {
      throw std::runtime_error("fleet shards did not become ready");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

std::vector<pid_t> shard_pids(const fl::FleetStats& stats) {
  std::vector<pid_t> pids;
  for (const fl::ShardReport& r : stats.shards) pids.push_back(r.pid);
  return pids;
}

struct Served {
  bool ok = false;
  bool rejected = false;
  fl::FleetResult result;
  double latency_ms = 0.0;  ///< due time -> resolved
  double late_ms = 0.0;
  double submit_us = 0.0;
};

}  // namespace

Report run_fleet_sessions(const Options& options) {
  // A traced run measures exactly what an untraced run measures, then
  // serves half as long again.
  const double split_s = kWarmupSeconds + options.seconds;
  const double horizon_s =
      options.trace ? split_s + 0.5 * options.seconds : split_s;
  scbnn::sensor::SessionStreamConfig scfg;
  scfg.sessions = kSessions;
  scfg.rate_hz = kOfferedHz / kSessions;
  scfg.frames_per_session =
      static_cast<long>(scfg.rate_hz * horizon_s * 8.0) + 8;
  scfg.seed = options.seed;
  const std::vector<Event> events = session_schedule(scfg, horizon_s);
  const auto n_events = static_cast<long>(events.size());

  const std::string path = options.workdir + "/fleet_sessions.bundle";
  {
    scbnn::hybrid::ModelBundle bundle = frozen_bundle({4}, 0.5);
    scbnn::hybrid::save_bundle(bundle, path);
  }
  fl::FleetConfig cfg;
  cfg.shards = kShards;
  cfg.bundle_path = path;
  cfg.shard_threads = 1;

  Report report;
  std::map<std::string, double> values;

  // Set-up: fork every shard and wait until each has loaded the bundle and
  // built its engine. Shards fork from this process, which has no other
  // threads at this point (the reference is built after the run).
  Setups setups;
  std::unique_ptr<fl::FleetCoordinator> fleet;
  const auto cold_setups = [&](int count) {
    for (int k = 0; k < count; ++k) {
      if (fleet) fleet->shutdown();
      fleet.reset();
      // The previous fleet's shards are reaped: their CPU is in
      // RUSAGE_CHILDREN before this reading.
      const CpuReading c0 = read_cpu();
      const auto t0 = Clock::now();
      fleet = start_fleet(cfg);
      setups.add(c0, t0, shard_pids(fleet->stats()));
    }
  };
  cold_setups(kColdSetups / 2);

  std::vector<Served> served(events.size());
  std::vector<std::future<fl::FleetResult>> futures(events.size());
  CpuReading cpu0;
  bool measuring = false;
  bool traced_half = false;
  const auto base = Clock::now() + std::chrono::milliseconds(20);
  for (long i = 0; i < n_events; ++i) {
    const Event& e = events[static_cast<std::size_t>(i)];
    const bool enter_measure = !measuring && e.due_s >= kWarmupSeconds;
    const bool enter_traced =
        options.trace && !traced_half && e.due_s >= split_s;
    if (enter_measure || enter_traced) {
      measuring = true;
      traced_half = traced_half || enter_traced;
      cpu0 = read_cpu(shard_pids(fleet->stats()));
    }
    const auto due = base + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(e.due_s));
    std::this_thread::sleep_until(due);
    Served& s = served[static_cast<std::size_t>(i)];
    const auto submit_start = Clock::now();
    s.late_ms = ms_between(due, submit_start);
    const std::uint32_t tenant = tenant_of(e.session);
    try {
      futures[static_cast<std::size_t>(i)] = fleet->submit(
          e.sensor_id, tenant, e.pixels.data(),
          tenant == 0 ? fl::SloClass::kHardDeadline
                      : fl::SloClass::kDegradeTolerant,
          kDeadlineMs);
    } catch (const fl::FleetRejectError&) {
      s.rejected = true;
    }
    s.submit_us = ms_between(submit_start, Clock::now()) * 1e3;
  }
  for (long i = 0; i < n_events; ++i) {
    Served& s = served[static_cast<std::size_t>(i)];
    if (s.rejected) continue;
    try {
      s.result = futures[static_cast<std::size_t>(i)].get();
      s.ok = true;
      // Due time -> submit is the generator's lateness; e2e_ms runs from
      // submit to the collector resolving the future.
      s.latency_ms = s.late_ms + s.result.e2e_ms;
    } catch (const std::exception&) {
      s.ok = false;
    }
  }
  const fl::FleetStats stats = fleet->stats();
  double peak_rss_bytes = static_cast<double>(rt::peak_rss_bytes());
  for (const fl::ShardReport& r : stats.shards) {
    peak_rss_bytes += static_cast<double>(r.peak_rss_bytes);
  }
  fleet->shutdown();
  // Shards are reaped now: their whole CPU is in RUSAGE_CHILDREN.
  const CpuReading cpu1 = read_cpu();
  cold_setups(kColdSetups / 2);
  fleet->shutdown();
  fleet.reset();
  setups.report(values, report);

  // Output check: the same frames through a servable built from the same
  // bundle file.
  std::vector<long> all(events.size());
  for (long i = 0; i < n_events; ++i) all[static_cast<std::size_t>(i)] = i;
  const std::vector<rt::Prediction> reference =
      reference_for(path, events, all);

  struct Window {
    PhaseCount count;
    long slo_met = 0;
    double energy_j = 0.0, busy_ms = 0.0;
    std::vector<double> latency, late, submit_us, transit, compute;
  };
  const auto window = [&](const char* name, double from_s, double to_s) {
    Window w;
    w.count.phase = name;
    for (long i = 0; i < n_events; ++i) {
      const Event& e = events[static_cast<std::size_t>(i)];
      if (e.due_s < from_s || e.due_s >= to_s) continue;
      const Served& s = served[static_cast<std::size_t>(i)];
      ++w.count.attempted;
      w.late.push_back(s.late_ms);
      w.submit_us.push_back(s.submit_us);
      if (s.rejected) {
        ++w.count.rejected;
        continue;
      }
      if (!s.ok) {
        ++w.count.failed;
        continue;
      }
      if (s.result.deadline_dropped) {
        ++w.count.dropped;
        continue;
      }
      ++w.count.served;
      const rt::Prediction& p = s.result.prediction;
      const bool match =
          same_arithmetic(p, reference[static_cast<std::size_t>(i)]);
      w.count.mismatches += match ? 0 : 1;
      w.latency.push_back(s.latency_ms);
      w.transit.push_back(s.result.e2e_ms - p.compute_ms);
      w.compute.push_back(p.compute_ms);
      if (match && s.latency_ms <= kLatencyLimitMs) ++w.slo_met;
      w.energy_j += p.energy_j;
      w.busy_ms += p.batch_size > 0 ? p.compute_ms / p.batch_size : 0.0;
    }
    report.phases.push_back(w.count);
    return w;
  };
  window("warmup", 0.0, kWarmupSeconds);
  const double cpu_ms = cpu1.total_ms() - cpu0.total_ms();

  const Window plain =
      window(options.trace ? "untraced" : "measure", kWarmupSeconds, split_s);
  const double plain_late_p99 = check_generator(plain.late);
  report_wall_clock(options,
                    static_cast<double>(plain.count.served) * 1e3 /
                        plain.busy_ms,
                    plain.latency, "fleet_sessions latency", values, report);
  report.notes.push_back("generator p99 lateness " +
                         std::to_string(plain_late_p99) + " ms");
  if (!options.trace) {
    const double served_n = static_cast<double>(plain.count.served);
    const double attempted = static_cast<double>(plain.count.attempted);
    values["cpu_ms_per_frame"] = cpu_ms / served_n;
    values["slo_attainment"] = static_cast<double>(plain.slo_met) / attempted;
    values["served_frac"] = served_n / attempted;
    values["energy_nj_per_frame"] = plain.energy_j * 1e9 / served_n;
    values["peak_rss_mb"] = peak_rss_bytes / (1024.0 * 1024.0);
  } else {
    const Window w = window("traced", split_s, horizon_s);
    const double late_p99 = check_generator(w.late);
    const double served_n = static_cast<double>(w.count.served);
    const double attempted = static_cast<double>(w.count.attempted);
    double shard_served = 0.0, shard_batches = 0.0;
    for (const fl::ShardReport& r : stats.shards) {
      shard_served += static_cast<double>(r.served);
      shard_batches += static_cast<double>(r.batches);
    }
    const double child_ms = cpu1.children_ms - cpu0.children_ms;
    const double self_ms = cpu1.self_ms - cpu0.self_ms;
    values["fleet.submit_us_p99"] = digest_lenient(w.submit_us).p99;
    const Digest transit = digest_lenient(w.transit);
    values["fleet.transit_ms_p50"] = transit.p50;
    values["fleet.transit_ms_p99"] = transit.p99;
    values["fleet.batch_size_mean"] = shard_served / shard_batches;
    values["fleet.shard_cpu_ms_per_frame"] = child_ms / served_n;
    values["fleet.coord_cpu_ms_per_frame"] = self_ms / served_n;
    values["fleet.ctx_switches_per_frame"] =
        static_cast<double>(cpu1.children_ctx_switches -
                            cpu0.children_ctx_switches) /
        shard_served;
    values["fleet.rejected_frac"] =
        static_cast<double>(w.count.rejected) / attempted;
    values["fleet.deadline_dropped_frac"] =
        static_cast<double>(w.count.dropped) / attempted;
    values["hw.sc_cycles_per_frame"] = frame_sc_cycles({4}, 0);
    values["sensor.driver.late_p99_ms"] = late_p99;
    // Reconciliation, on mean due->resolved latency: the layers the
    // benchmark observes in series are generator lateness and the shard's
    // classify. The rest of the traced figure is the fleet's transport:
    // submit, ring, doorbell, the shard's batch former and the collector.
    // (Submit's own time is not a layer here: a shard can serve the frame
    // before submit has returned, so the two overlap.)
    const double untraced = mean(plain.latency);
    const double traced = mean(w.latency);
    const double layers = mean(w.late) + mean(w.compute);
    values["trace.glue_pct"] = 100.0 * (traced - layers) / untraced;
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced;
  }
  emit_metrics(options, values, report);
  return report;
}

}  // namespace perfbench
