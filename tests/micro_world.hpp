// The micro world and profiler configuration shared by the determinism
// and golden-value tests: small enough to profile in about a second, large
// enough that Algorithm 1 accepts several models and ASS draws frames
// repeatedly.
#pragma once

#include "core/profiler.hpp"
#include "world/world.hpp"

namespace anole {

inline world::WorldConfig micro_world_config() {
  world::WorldConfig config;
  config.frames_per_clip = 40;
  config.clip_scale = 0.12;
  config.seed = 99;
  return config;
}

inline core::ProfilerConfig micro_profiler_config() {
  core::ProfilerConfig config;
  config.encoder.train.epochs = 10;
  config.repository.target_models = 5;
  config.repository.detector_train.epochs = 4;
  config.repository.min_training_frames = 20;
  config.repository.min_validation_frames = 4;
  config.sampling.budget = 120;
  config.decision.train.epochs = 10;
  return config;
}

}  // namespace anole
