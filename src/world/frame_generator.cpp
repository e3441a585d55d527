#include "world/frame_generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace anole::world {
namespace {

/// Base (daytime, clear) object signature; roughly unit norm.
constexpr std::array<double, kBlockChannels> kBaseSignature = {0.62, 0.37,
                                                               -0.25, 0.50};

/// Overlap of [a0, a1] with [b0, b1].
double overlap(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

/// Normal draws a cell's features take: one noise draw per channel.
constexpr std::size_t kCellNoiseDraws = kCellChannels;

/// The Rng draw order of painting a frame, the one copy paint() and
/// skip_paint() share. Cells go in row-major order; each takes
/// kCellNoiseDraws normals (`noise(cell)` must make exactly that many),
/// then, when the style has clutter, a bernoulli and on success a streak
/// magnitude and angle (`streak(cell, magnitude, angle)` draws nothing).
template <typename Noise, typename Streak>
void walk_cell_draws(std::size_t cells, double clutter, Rng& rng,
                     Noise&& noise, Streak&& streak) {
  for (std::size_t i = 0; i < cells; ++i) {
    noise(i);
    if (clutter > 0.0 && rng.bernoulli(0.10 * clutter)) {
      const double magnitude = rng.uniform(0.25, 0.8);
      const double angle = rng.uniform(0.0, 2.0 * 3.14159265358979);
      streak(i, magnitude, angle);
    }
  }
}

}  // namespace

std::array<double, kBlockChannels> object_signature(double appearance_angle) {
  // Rotate in the (0,1) and (2,3) planes of the object block: appearance
  // drift with lighting/weather, preserving signal energy.
  const double c = std::cos(appearance_angle);
  const double s = std::sin(appearance_angle);
  std::array<double, kBlockChannels> sig{};
  sig[0] = c * kBaseSignature[0] - s * kBaseSignature[1];
  sig[1] = s * kBaseSignature[0] + c * kBaseSignature[1];
  sig[2] = c * kBaseSignature[2] - s * kBaseSignature[3];
  sig[3] = s * kBaseSignature[2] + c * kBaseSignature[3];
  return sig;
}

FrameGenerator::FrameGenerator(std::size_t grid_size)
    : grid_size_(grid_size) {
  ANOLE_CHECK_GE(grid_size, 1u, "FrameGenerator: grid_size == 0");
}

ObjectInstance FrameGenerator::sample_object(const SceneStyle& style,
                                             Rng& rng) const {
  ObjectInstance obj;
  // Log-normal-ish size around the scene's object scale.
  const double scale =
      style.object_scale * std::exp(rng.normal(0.0, 0.35));
  const double aspect = std::exp(rng.normal(0.0, 0.25));
  obj.w = std::clamp(scale * aspect, 0.04, 0.26);
  obj.h = std::clamp(scale / aspect, 0.04, 0.26);
  obj.cx = rng.uniform(obj.w / 2, 1.0 - obj.w / 2);
  // Traffic concentrates in the lower 2/3 of the frame (road region).
  obj.cy = std::clamp(0.35 + 0.6 * rng.uniform(), obj.h / 2, 1.0 - obj.h / 2);
  obj.visibility =
      style.object_visibility(obj.area()) * rng.uniform(0.8, 1.2);
  return obj;
}

Frame FrameGenerator::render(const SceneStyle& style,
                             const SceneAttributes& attrs,
                             const std::vector<ObjectInstance>& objects,
                             Rng& rng) const {
  Frame frame = blank_frame(attrs, objects);
  paint(frame, style, rng);
  return frame;
}

Frame FrameGenerator::blank_frame(const SceneAttributes& attrs,
                                  std::vector<ObjectInstance> objects) const {
  Frame frame;
  frame.grid_size = grid_size_;
  frame.attributes = attrs;
  frame.objects = std::move(objects);
  frame.cells = Tensor::matrix(grid_size_ * grid_size_, kCellChannels);
  return frame;
}

void FrameGenerator::skip_paint(const SceneStyle& style, Rng& rng) const {
  walk_cell_draws(
      grid_size_ * grid_size_, style.clutter, rng,
      [&rng](std::size_t) { rng.skip_normals(kCellNoiseDraws); },
      [](std::size_t, double, double) {});
}

void FrameGenerator::paint(Frame& frame, const SceneStyle& style,
                           Rng& rng) const {
  const std::size_t g = grid_size_;
  ANOLE_CHECK(frame.grid_size == g && frame.cells.rows() == g * g &&
                  frame.cells.cols() == kCellChannels,
              "FrameGenerator::paint: frame is not a blank_frame of grid ", g);
  const auto sig = object_signature(style.appearance_angle);
  const double cell_size = 1.0 / static_cast<double>(g);

  const auto noise = [&](std::size_t i) {
    // Sky-to-road vertical luminance gradient scaled by contrast.
    const double row_center = (static_cast<double>(i / g) + 0.5) * cell_size;
    const double gradient = style.contrast * 0.35 * (0.5 - row_center);
    auto cell = frame.cells.row(i);
    // --- luminance block ---
    for (std::size_t c = 0; c < kBlockChannels; ++c) {
      const double channel_tint = 1.0 - 0.06 * static_cast<double>(c);
      cell[c] = static_cast<float>(style.brightness * channel_tint +
                                   gradient + rng.normal(0.0, style.noise));
    }
    // --- background texture block ---
    for (std::size_t c = 0; c < kBlockChannels; ++c) {
      cell[kBlockChannels + c] = static_cast<float>(
          style.texture[c] * (0.4 + 0.8 * style.brightness) +
          rng.normal(0.0, style.noise));
    }
    // --- object block background: noise (weather clutter below) ---
    for (std::size_t c = 0; c < kBlockChannels; ++c) {
      cell[2 * kBlockChannels + c] =
          static_cast<float>(rng.normal(0.0, style.noise));
    }
  };
  // Rain streaks / snowflakes: object-block energy in a random direction
  // — the detector's main source of false positives.
  const auto streak = [&](std::size_t i, double magnitude, double angle) {
    const auto clutter_sig = object_signature(angle);
    auto cell = frame.cells.row(i);
    for (std::size_t c = 0; c < kBlockChannels; ++c) {
      cell[2 * kBlockChannels + c] +=
          static_cast<float>(magnitude * clutter_sig[c]);
    }
  };
  walk_cell_draws(g * g, style.clutter, rng, noise, streak);

  // --- imprint objects with coverage-weighted signature ---
  for (const auto& obj : frame.objects) {
    const double x0 = obj.cx - obj.w / 2;
    const double x1 = obj.cx + obj.w / 2;
    const double y0 = obj.cy - obj.h / 2;
    const double y1 = obj.cy + obj.h / 2;
    const auto first_x = static_cast<std::size_t>(
        std::clamp(std::floor(x0 / cell_size), 0.0,
                   static_cast<double>(g - 1)));
    const auto last_x = static_cast<std::size_t>(std::clamp(
        std::floor(x1 / cell_size), 0.0, static_cast<double>(g - 1)));
    const auto first_y = static_cast<std::size_t>(
        std::clamp(std::floor(y0 / cell_size), 0.0,
                   static_cast<double>(g - 1)));
    const auto last_y = static_cast<std::size_t>(std::clamp(
        std::floor(y1 / cell_size), 0.0, static_cast<double>(g - 1)));
    // Gaussian radial falloff from the object center gives each object a
    // well-defined peak cell, which is what the detector localizes.
    const double radius = std::max(std::max(obj.w, obj.h) / 2.0, cell_size);
    for (std::size_t y = first_y; y <= last_y; ++y) {
      const double cy0 = static_cast<double>(y) * cell_size;
      for (std::size_t x = first_x; x <= last_x; ++x) {
        const double cx0 = static_cast<double>(x) * cell_size;
        const double cover =
            overlap(x0, x1, cx0, cx0 + cell_size) *
            overlap(y0, y1, cy0, cy0 + cell_size) / (cell_size * cell_size);
        if (cover <= 0.0) continue;
        const double dx_center = cx0 + cell_size / 2 - obj.cx;
        const double dy_center = cy0 + cell_size / 2 - obj.cy;
        const double dist_sq = dx_center * dx_center + dy_center * dy_center;
        const double falloff =
            std::exp(-1.5 * dist_sq / (radius * radius));
        auto cell = frame.cells.row(y * g + x);
        const double strength =
            obj.visibility * std::min(cover, 1.0) * falloff;
        for (std::size_t c = 0; c < kBlockChannels; ++c) {
          cell[2 * kBlockChannels + c] +=
              static_cast<float>(strength * sig[c]);
        }
        // Objects also slightly darken the luminance block beneath them.
        cell[0] -= static_cast<float>(0.08 * strength);
      }
    }
  }

  // --- global photometric statistics over the luminance block ---
  double sum = 0.0;
  double sum_sq = 0.0;
  const std::size_t lum_count = g * g * kBlockChannels;
  for (std::size_t i = 0; i < g * g; ++i) {
    auto cell = frame.cells.row(i);
    for (std::size_t c = 0; c < kBlockChannels; ++c) {
      sum += cell[c];
      sum_sq += static_cast<double>(cell[c]) * cell[c];
    }
  }
  frame.brightness = sum / static_cast<double>(lum_count);
  const double var =
      sum_sq / static_cast<double>(lum_count) -
      frame.brightness * frame.brightness;
  frame.contrast = std::sqrt(std::max(var, 0.0));
}

ObjectDynamics::ObjectDynamics(const FrameGenerator& generator,
                               const SceneStyle& style, Rng& rng)
    : generator_(generator), style_(style) {
  reset(style, rng);
}

void ObjectDynamics::reset(const SceneStyle& style, Rng& rng) {
  style_ = style;
  objects_.clear();
  const int count = std::max(0, rng.poisson(style.object_density));
  for (int i = 0; i < count; ++i) spawn(rng);
}

void ObjectDynamics::spawn(Rng& rng) {
  MovingObject moving;
  moving.instance = generator_.sample_object(style_, rng);
  moving.vx = rng.normal(0.0, 0.008);
  moving.vy = rng.normal(0.0, 0.004);
  moving.growth = rng.normal(0.0, 0.003);
  objects_.push_back(moving);
}

std::vector<ObjectInstance> ObjectDynamics::step(Rng& rng) {
  // Birth-death keeps the population near the style's density.
  const double target = style_.object_density;
  if (rng.bernoulli(0.05) && static_cast<double>(objects_.size()) < 2 * target) {
    spawn(rng);
  }
  std::vector<ObjectInstance> snapshot;
  snapshot.reserve(objects_.size());
  for (auto it = objects_.begin(); it != objects_.end();) {
    auto& obj = it->instance;
    obj.cx += it->vx + rng.normal(0.0, 0.002);
    obj.cy += it->vy + rng.normal(0.0, 0.001);
    const double factor = 1.0 + it->growth;
    obj.w = std::clamp(obj.w * factor, 0.04, 0.26);
    obj.h = std::clamp(obj.h * factor, 0.04, 0.26);
    obj.visibility = style_.object_visibility(obj.area());
    // Despawn once the center leaves the frame: a center outside [0, 1]
    // has no grid cell and would be an unlearnable training target.
    const bool gone = obj.cx < 0.02 || obj.cx > 0.98 || obj.cy < 0.02 ||
                      obj.cy > 0.98 || rng.bernoulli(0.01);
    if (gone) {
      it = objects_.erase(it);
      // Keep the scene populated.
      if (static_cast<double>(objects_.size()) < target) spawn(rng);
      continue;
    }
    snapshot.push_back(obj);
    ++it;
  }
  return snapshot;
}

}  // namespace anole::world
