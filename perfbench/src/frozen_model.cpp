#include "frozen_model.h"

#include <algorithm>
#include <utility>

#include "hw/report.h"
#include "hybrid/hybrid_network.h"
#include "nn/quantize.h"
#include "workloads.h"

namespace perfbench {

namespace sh = scbnn::hybrid;

sh::ModelBundle frozen_bundle(const std::vector<unsigned>& ladder_bits,
                              double confidence_margin) {
  constexpr std::uint64_t kWeightSeed = 7;
  const sh::LeNetConfig lenet{kKernels, 8, 32, 0.0f};
  scbnn::nn::Rng base_rng(kWeightSeed);
  scbnn::nn::Network base = sh::build_lenet(lenet, base_rng);

  sh::ModelBundle bundle;
  bundle.backend = kBackend;
  bundle.lenet = lenet;
  bundle.confidence_margin = confidence_margin;
  bundle.trained_seed = kWeightSeed;
  for (const unsigned bits : ladder_bits) {
    sh::BundleRung rung;
    rung.bits = bits;
    rung.qw = scbnn::nn::quantize_conv_weights(sh::base_conv1_weights(base),
                                               bits);
    rung.flc.bits = bits;
    rung.flc.soft_threshold = 0.30;
    rung.flc.seed = static_cast<std::uint32_t>(kWeightSeed | 1u);
    scbnn::nn::Rng tail_rng(kWeightSeed + 1);
    rung.tail = sh::build_tail(lenet, tail_rng);
    sh::copy_tail_params(base, rung.tail);
    bundle.rungs.push_back(std::move(rung));
  }
  return bundle;
}

std::vector<Event> session_schedule(scbnn::sensor::SessionStreamConfig config,
                                    double horizon_s) {
  scbnn::sensor::SessionStreamDriver driver(config);
  std::vector<Event> events;
  scbnn::sensor::SessionEvent e;
  while (driver.next(e) && e.due_s < horizon_s) {
    events.push_back(
        Event{e.due_s, e.session, e.sensor_id, std::move(e.frame.pixels)});
  }
  return events;
}

std::vector<scbnn::runtime::Prediction> reference_for(
    const std::string& path, const std::vector<Event>& events,
    const std::vector<long>& indices) {
  scbnn::runtime::RuntimeConfig rc;
  rc.threads = kReferenceThreads;
  sh::ModelBundle bundle = sh::load_bundle(path);
  auto direct = sh::instantiate_servable(bundle, rc);
  std::vector<scbnn::runtime::Prediction> out(indices.size());
  std::vector<float> pixels;
  for (std::size_t at = 0; at < indices.size(); at += kReferenceChunk) {
    const std::size_t n =
        std::min<std::size_t>(kReferenceChunk, indices.size() - at);
    pixels.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const std::vector<float>& px =
          events[static_cast<std::size_t>(indices[at + k])].pixels;
      pixels.insert(pixels.end(), px.begin(), px.end());
    }
    direct->classify(pixels.data(), static_cast<int>(n), out.data() + at);
  }
  return out;
}

double frame_sc_cycles(const std::vector<unsigned>& ladder_bits, int rung) {
  double cycles = 0.0;
  const int top = std::min<int>(rung, static_cast<int>(ladder_bits.size()) - 1);
  for (int r = 0; r <= top; ++r) {
    cycles += scbnn::hw::sc_cycles_per_frame(
        ladder_bits[static_cast<std::size_t>(r)], kKernels);
  }
  return cycles;
}

}  // namespace perfbench
