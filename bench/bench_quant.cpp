// Quantized fast-path acceptance bench: fp32 vs int8 on the standard
// benchmark world, written to BENCH_quant.json.
//
// Trains the standard Anole stack, measures the fp32 arm (per-frame
// decision+detector inference latency, end-to-end engine F1 over the test
// split, artifact bytes and model-section bytes, simulated cache-miss
// load time on TX2 NX), quantizes the system in place through the
// repository's accuracy guard, and repeats the measurements on the int8
// arm. The headline ratios the fast path must hold:
// per-frame inference speedup >= 2x at equal thread count, model sections
// >= 3.5x smaller, F1 within 0.01 of fp32 — plus bitwise-identical
// quantized detections at 1 vs 4 pool threads. The exit code reflects the
// determinism check only (the timing ratios are reported, not gated, so a
// noisy host cannot fail the suite spuriously).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/artifact.hpp"
#include "core/quantize.hpp"
#include "device/session.hpp"
#include "nn/quantize.hpp"
#include "util/parallel.hpp"
#include "world/featurizer.hpp"

namespace {

using namespace anole;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Sum of kSectionModel payload bytes in a serialized artifact (blob
/// header 20 bytes, section header 16 bytes: u32 tag, u64 size, u32 CRC).
std::uint64_t model_section_bytes(const std::string& blob) {
  constexpr std::size_t kBlobHeaderBytes = 20;
  constexpr std::size_t kSectionHeaderBytes = 16;
  constexpr std::uint32_t kModelSectionTag = 4;
  std::uint64_t total = 0;
  std::size_t offset = kBlobHeaderBytes;
  while (offset + kSectionHeaderBytes <= blob.size()) {
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    std::memcpy(&tag, blob.data() + offset, sizeof(tag));
    std::memcpy(&size, blob.data() + offset + 4, sizeof(size));
    if (tag == kModelSectionTag) total += size;
    offset += kSectionHeaderBytes + static_cast<std::size_t>(size);
  }
  return total;
}

/// One precision arm's numbers. The timed unit is the per-frame serving
/// path the quantization touches — M_decision suitability plus the served
/// detector's forward — with featurization hoisted out (it is fp32 in
/// both arms and identical).
struct PrecisionSample {
  double frame_us = 0.0;
  double f1 = 0.0;
  std::uint64_t artifact_bytes = 0;
  std::uint64_t model_bytes = 0;
  double mean_miss_load_ms = 0.0;
  std::size_t miss_frames = 0;
  std::size_t quantized_loads = 0;
  std::size_t quantized_frames = 0;
};

PrecisionSample measure_arm(core::AnoleSystem& system,
                            const std::vector<const world::Frame*>& frames,
                            const device::MemoryModel& memory,
                            const device::DeviceProfile& profile) {
  PrecisionSample sample;

  // Engine pass: F1 over the test split, the served model per frame, and
  // the DeviceSession replay that prices every cache miss.
  core::AnoleEngine engine(system, bench::standard_cache_config());
  device::DeviceSession session(profile);
  std::vector<std::size_t> served;
  served.reserve(frames.size());
  double load_ms_sum = 0.0;
  std::vector<std::vector<detect::Detection>> detections;
  detections.reserve(frames.size());
  for (const world::Frame* frame : frames) {
    const core::EngineResult result = engine.process(*frame);
    served.push_back(result.served_model);
    detections.push_back(result.detections);
    device::FrameCost cost;
    cost.decision_flops = system.decision->flops_per_sample();
    cost.detector_flops =
        system.repository.detector(result.served_model).flops_per_frame();
    if (result.model_loaded) {
      cost.loaded_weight_mb = memory.load_mb(
          system.repository.detector(result.served_model).weight_bytes());
      cost.quantized = engine.model_quantized(result.served_model);
      load_ms_sum += cost.loaded_weight_mb * profile.load_ms_per_mb;
      ++sample.miss_frames;
    }
    session.process(cost);
  }
  sample.quantized_frames = engine.quantized_frames();
  sample.quantized_loads = session.quantized_loads();
  if (sample.miss_frames > 0) {
    sample.mean_miss_load_ms =
        load_ms_sum / static_cast<double>(sample.miss_frames);
  }
  // overall_f1 walks `frames` in order, so replay the recorded detections.
  std::size_t next = 0;
  sample.f1 = eval::overall_f1(
      [&](const world::Frame&) { return detections[next++]; }, frames);

  // Timed inference loop: featurize outside the timer, then decision
  // suitability + the recorded served detector per frame (best of reps).
  const world::FrameFeaturizer featurizer;
  std::vector<Tensor> descriptors;
  descriptors.reserve(frames.size());
  for (const world::Frame* frame : frames) {
    descriptors.push_back(featurizer.featurize(*frame));
  }
  double best = 1e30;
  volatile double sink = 0.0;  // keeps the timed loop observable
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const Tensor probs = system.decision->suitability(descriptors[i]);
      const auto dets =
          system.repository.detector(served[i]).detect(*frames[i]);
      sink = sink + probs[0] + static_cast<double>(dets.size());
    }
    best = std::min(best, seconds_since(start));
  }
  sample.frame_us = best / static_cast<double>(frames.size()) * 1e6;

  std::ostringstream blob(std::ios::binary);
  core::save_system(system, blob);
  const std::string bytes = blob.str();
  sample.artifact_bytes = bytes.size();
  sample.model_bytes = model_section_bytes(bytes);
  return sample;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  bench::print_banner("Quantized fast path",
                      "fp32 vs int8: latency, F1, artifact bytes, load time");

  auto stack = bench::train_standard_stack();
  const auto test_frames =
      stack.world.frames_with_role(world::SplitRole::kTest);

  // Shared device pricing, anchored on the fp32 compressed model so the
  // MB-equivalence mapping is identical for both arms.
  const std::uint64_t reference_flops =
      stack.system.repository.detector(0).flops_per_frame();
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(reference_flops);

  std::fprintf(stderr, "[bench_quant] fp32 arm over %zu test frames...\n",
               test_frames.size());
  const PrecisionSample fp32 =
      measure_arm(stack.system, test_frames, memory, tx2);

  const auto quant_start = std::chrono::steady_clock::now();
  const core::QuantizeReport report = core::quantize_system(stack.system);
  const double quantize_seconds = seconds_since(quant_start);
  std::fprintf(stderr,
               "[bench_quant] quantized %zu detectors (%zu rejected by the "
               "guard) in %.2fs; int8 arm...\n",
               report.quantized_detectors, report.rejected_detectors,
               quantize_seconds);
  const PrecisionSample int8 =
      measure_arm(stack.system, test_frames, memory, tx2);

  // Bitwise determinism of the quantized engine at 1 vs 4 pool threads.
  const std::size_t check_frames =
      std::min<std::size_t>(200, test_frames.size());
  auto run_detections = [&](std::size_t threads) {
    par::set_thread_count(threads);
    core::AnoleEngine engine(stack.system, bench::standard_cache_config());
    std::vector<detect::Detection> all;
    for (std::size_t i = 0; i < check_frames; ++i) {
      const auto result = engine.process(*test_frames[i]);
      all.insert(all.end(), result.detections.begin(),
                 result.detections.end());
    }
    return all;
  };
  const auto serial = run_detections(1);
  const auto parallel = run_detections(4);
  par::set_thread_count(0);
  const bool identical =
      serial.size() == parallel.size() &&
      (serial.empty() ||
       std::memcmp(serial.data(), parallel.data(),
                   serial.size() * sizeof(detect::Detection)) == 0);

  const double speedup = fp32.frame_us / int8.frame_us;
  const double section_ratio = static_cast<double>(fp32.model_bytes) /
                               static_cast<double>(int8.model_bytes);
  const double f1_delta = fp32.f1 - int8.f1;

  std::FILE* out = std::fopen("BENCH_quant.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench_quant] cannot open BENCH_quant.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"test_frames\": %zu,\n", test_frames.size());
  std::fprintf(out, "  \"quantized_detectors\": %zu,\n",
               report.quantized_detectors);
  std::fprintf(out, "  \"rejected_detectors\": %zu,\n",
               report.rejected_detectors);
  std::fprintf(out, "  \"decision_quantized\": %s,\n",
               report.decision_quantized ? "true" : "false");
  std::fprintf(out, "  \"quantize_seconds\": %.4f,\n", quantize_seconds);
  std::fprintf(out, "  \"fp32\": {\n");
  std::fprintf(out, "    \"frame_inference_us\": %.3f,\n", fp32.frame_us);
  std::fprintf(out, "    \"overall_f1\": %.6f,\n", fp32.f1);
  std::fprintf(out, "    \"artifact_bytes\": %llu,\n",
               static_cast<unsigned long long>(fp32.artifact_bytes));
  std::fprintf(out, "    \"model_section_bytes\": %llu,\n",
               static_cast<unsigned long long>(fp32.model_bytes));
  std::fprintf(out, "    \"mean_cache_miss_load_ms\": %.4f,\n",
               fp32.mean_miss_load_ms);
  std::fprintf(out, "    \"cache_miss_frames\": %zu\n", fp32.miss_frames);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"int8\": {\n");
  std::fprintf(out, "    \"frame_inference_us\": %.3f,\n", int8.frame_us);
  std::fprintf(out, "    \"overall_f1\": %.6f,\n", int8.f1);
  std::fprintf(out, "    \"artifact_bytes\": %llu,\n",
               static_cast<unsigned long long>(int8.artifact_bytes));
  std::fprintf(out, "    \"model_section_bytes\": %llu,\n",
               static_cast<unsigned long long>(int8.model_bytes));
  std::fprintf(out, "    \"mean_cache_miss_load_ms\": %.4f,\n",
               int8.mean_miss_load_ms);
  std::fprintf(out, "    \"cache_miss_frames\": %zu,\n", int8.miss_frames);
  std::fprintf(out, "    \"quantized_frames\": %zu,\n",
               int8.quantized_frames);
  std::fprintf(out, "    \"quantized_loads\": %zu\n", int8.quantized_loads);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"frame_inference_speedup\": %.4f,\n", speedup);
  std::fprintf(out, "  \"model_section_ratio\": %.4f,\n", section_ratio);
  std::fprintf(out, "  \"f1_delta\": %.6f,\n", f1_delta);
  std::fprintf(out, "  \"deterministic_1_vs_4_threads\": %s\n",
               identical ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf(
      "fp32: %.1f us/frame, F1 %.3f, model sections %llu B, miss load "
      "%.2f ms\n"
      "int8: %.1f us/frame, F1 %.3f, model sections %llu B, miss load "
      "%.2f ms\n"
      "speedup %.2fx (bar: >= 2), section ratio %.2fx (bar: >= 3.5), "
      "F1 delta %+.4f (bar: |delta| <= 0.01), 1-vs-4-thread determinism "
      "%s\n",
      fp32.frame_us, fp32.f1,
      static_cast<unsigned long long>(fp32.model_bytes),
      fp32.mean_miss_load_ms, int8.frame_us, int8.f1,
      static_cast<unsigned long long>(int8.model_bytes),
      int8.mean_miss_load_ms, speedup, section_ratio, f1_delta,
      identical ? "OK" : "FAILED");
  return identical ? 0 : 1;
}
