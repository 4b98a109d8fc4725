// The frozen-weight model every workload serves, and the workloads'
// shared inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hybrid/bundle.h"
#include "sensor/session_driver.h"

namespace perfbench {

/// Backend of every rung: the paper's hybrid datapath on the SIMD kernels
/// users serve.
inline constexpr const char* kBackend = "sc-proposed-fast";

/// First-layer kernels of the frozen LeNet.
inline constexpr int kKernels = 32;

/// A deterministic frozen-weight bundle (no training): LeNet tail with a
/// quantized first layer per rung of `ladder_bits`, escalating at
/// `confidence_margin`. Equal arguments give bit-identical bundles.
[[nodiscard]] scbnn::hybrid::ModelBundle frozen_bundle(
    const std::vector<unsigned>& ladder_bits, double confidence_margin);

/// One frame of an open-loop schedule, rendered ahead of the run so the
/// generator only sleeps and submits.
struct Event {
  double due_s = 0.0;
  long session = 0;
  std::uint64_t sensor_id = 0;
  std::vector<float> pixels;
};

/// The events of `config`'s session population due before `horizon_s`, in
/// due order. `config.frames_per_session` must cover the horizon.
[[nodiscard]] std::vector<Event> session_schedule(
    scbnn::sensor::SessionStreamConfig config, double horizon_s);

/// Output-check reference: `events[i]` for every i in `indices`, classified
/// directly by a servable built from the bundle file at `path` (the file the
/// served model loads), kReferenceChunk frames per call.
[[nodiscard]] std::vector<scbnn::runtime::Prediction> reference_for(
    const std::string& path, const std::vector<Event>& events,
    const std::vector<long>& indices);

/// SC cycles a frame accepted at `rung` of `ladder_bits` cost: every rung
/// up to and including the accepting one ran its first layer.
[[nodiscard]] double frame_sc_cycles(const std::vector<unsigned>& ladder_bits,
                                     int rung);

}  // namespace perfbench
