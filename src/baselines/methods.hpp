// The paper's candidate methods (section VI-A3):
//   SDM — one fully-fledged deep model trained on everything;
//   SSM — one compressed model trained on everything;
//   CDG — compressed models per feature-space cluster, nearest-centroid
//         selection at test time;
//   DMM — one compressed model per source dataset, selected by the test
//         sample's dataset identity (an oracle signal);
// plus the Anole adapter so every method exposes the same interface.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/engine.hpp"
#include "detect/detector_trainer.hpp"
#include "detect/grid_detector.hpp"
#include "world/featurizer.hpp"
#include "world/world.hpp"

namespace anole::baselines {

/// Common interface: one frame in, detections out, plus the cost numbers
/// the device simulator needs.
class InferenceMethod {
 public:
  virtual ~InferenceMethod() = default;

  virtual std::vector<detect::Detection> infer(const world::Frame& frame) = 0;
  virtual std::string name() const = 0;

  /// Per-frame detector cost.
  virtual std::uint64_t detector_flops() const = 0;
  /// Per-frame selection cost (0 for single-model methods).
  virtual std::uint64_t decision_flops() const { return 0; }
  /// Total weights the method must keep on device.
  virtual std::uint64_t weight_bytes() = 0;
};

/// Shared training knobs for all baseline constructions.
struct BaselineConfig {
  detect::DetectorTrainConfig detector_train;
  detect::GridDetectorConfig deep_config =
      detect::GridDetectorConfig::large("SDM");
  detect::GridDetectorConfig compressed_config =
      detect::GridDetectorConfig::compressed("SSM");
  /// Number of clusters for CDG.
  std::size_t cdg_clusters = 8;
};

/// SDM / SSM: one detector trained on all seen training frames.
class SingleModelMethod : public InferenceMethod {
 public:
  SingleModelMethod(std::string name, std::unique_ptr<detect::GridDetector>
                                          detector);

  std::vector<detect::Detection> infer(const world::Frame& frame) override;
  std::string name() const override { return name_; }
  std::uint64_t detector_flops() const override;
  std::uint64_t weight_bytes() override;

  detect::GridDetector& detector() { return *detector_; }

 private:
  std::string name_;
  std::unique_ptr<detect::GridDetector> detector_;
};

std::unique_ptr<SingleModelMethod> train_sdm(const world::World& world,
                                             const BaselineConfig& config,
                                             Rng& rng);
std::unique_ptr<SingleModelMethod> train_ssm(const world::World& world,
                                             const BaselineConfig& config,
                                             Rng& rng);

/// CDG: clustering-based domain generalization.
class CdgMethod : public InferenceMethod {
 public:
  CdgMethod(Tensor centroids,
            std::vector<std::unique_ptr<detect::GridDetector>> detectors);

  std::vector<detect::Detection> infer(const world::Frame& frame) override;
  std::string name() const override { return "CDG"; }
  std::uint64_t detector_flops() const override;
  std::uint64_t decision_flops() const override;
  std::uint64_t weight_bytes() override;

  /// Cluster chosen for a frame (exposed for tests).
  std::size_t select_cluster(const world::Frame& frame) const;

 private:
  Tensor centroids_;
  std::vector<std::unique_ptr<detect::GridDetector>> detectors_;
  world::FrameFeaturizer featurizer_;
};

std::unique_ptr<CdgMethod> train_cdg(const world::World& world,
                                     const BaselineConfig& config, Rng& rng);

/// DMM: one compressed model per source dataset.
class DmmMethod : public InferenceMethod {
 public:
  explicit DmmMethod(
      std::vector<std::unique_ptr<detect::GridDetector>> per_dataset);

  std::vector<detect::Detection> infer(const world::Frame& frame) override;
  std::string name() const override { return "DMM"; }
  std::uint64_t detector_flops() const override;
  std::uint64_t weight_bytes() override;

 private:
  std::vector<std::unique_ptr<detect::GridDetector>> detectors_;
};

std::unique_ptr<DmmMethod> train_dmm(const world::World& world,
                                     const BaselineConfig& config, Rng& rng);

/// Adapter exposing an AnoleEngine through the common interface.
class AnoleMethod : public InferenceMethod {
 public:
  /// `system` must outlive this method.
  AnoleMethod(core::AnoleSystem& system, const core::CacheConfig& cache);

  /// Full-control overload (confidence fallback, governor, drift detector).
  AnoleMethod(core::AnoleSystem& system, const core::EngineConfig& config,
              std::string name = "Anole");

  std::vector<detect::Detection> infer(const world::Frame& frame) override;
  std::string name() const override { return name_; }
  std::uint64_t detector_flops() const override;
  std::uint64_t decision_flops() const override;
  std::uint64_t weight_bytes() override;

  core::AnoleEngine& engine() { return engine_; }

 private:
  core::AnoleSystem* system_;
  std::string name_ = "Anole";
  core::AnoleEngine engine_;
};

}  // namespace anole::baselines
