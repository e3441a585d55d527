// SIMD dispatch scaffolding shared by the kernel tests: a scope guard that
// pins the dispatch level, and the list of levels this host can run.
#pragma once

#include <vector>

#include "tensor/simd.hpp"

namespace anole {

/// Pins the SIMD dispatch level for a scope.
struct SimdLevelGuard {
  explicit SimdLevelGuard(simd::Level level) { simd::set_level(level); }
  ~SimdLevelGuard() { simd::reset_level(); }
  SimdLevelGuard(const SimdLevelGuard&) = delete;
  SimdLevelGuard& operator=(const SimdLevelGuard&) = delete;
};

/// Every dispatch level this host can actually run.
inline std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::detected_level() >= simd::Level::kAVX2) {
    levels.push_back(simd::Level::kAVX2);
  }
  return levels;
}

}  // namespace anole
