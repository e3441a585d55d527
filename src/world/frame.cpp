#include "world/frame.hpp"

#include <bit>

#include "util/hash.hpp"

namespace anole::world {

double Frame::object_area_ratio() const {
  double total = 0.0;
  for (const auto& obj : objects) total += obj.area();
  return total;
}

const char* to_string(SplitRole role) {
  switch (role) {
    case SplitRole::kTrain:
      return "train";
    case SplitRole::kValidation:
      return "val";
    case SplitRole::kTest:
      return "test";
    case SplitRole::kUnseen:
      return "unseen";
  }
  return "?";
}

SplitRole Clip::split_role(std::size_t frame_index) const {
  if (!seen) return SplitRole::kUnseen;
  const std::size_t n = frames.size();
  if (n == 0) return SplitRole::kTrain;
  // Contiguous 6:2:2 blocks (temporal split avoids train/test leakage
  // between adjacent, nearly identical frames).
  const std::size_t train_end = n * 6 / 10;
  const std::size_t val_end = n * 8 / 10;
  if (frame_index < train_end) return SplitRole::kTrain;
  if (frame_index < val_end) return SplitRole::kValidation;
  return SplitRole::kTest;
}

std::uint64_t Clip::content_hash() const {
  Fnv1a hash;
  hash.mix(clip_id);
  hash.mix(dataset_id);
  hash.mix(seen ? 1 : 0);
  hash.mix(attributes.semantic_index());
  hash.mix(frames.size());
  for (const Frame& frame : frames) {
    hash.mix(frame.grid_size);
    hash.mix(frame.cells.rows());
    hash.mix(frame.cells.cols());
    for (float value : frame.cells.data()) {
      hash.mix(std::bit_cast<std::uint32_t>(value));
    }
    hash.mix(std::bit_cast<std::uint64_t>(frame.brightness));
    hash.mix(std::bit_cast<std::uint64_t>(frame.contrast));
    hash.mix(frame.objects.size());
    for (const ObjectInstance& object : frame.objects) {
      for (double value :
           {object.cx, object.cy, object.w, object.h, object.visibility}) {
        hash.mix(std::bit_cast<std::uint64_t>(value));
      }
    }
    hash.mix(frame.attributes.semantic_index());
    hash.mix(frame.clip_id);
    hash.mix(frame.frame_index);
    hash.mix(frame.dataset_id);
  }
  return hash.value();
}

}  // namespace anole::world
