#include "cluster/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace anole::cluster {
namespace {

/// The inertia adds one partial per fixed 64-point block, in ascending
/// block order: the blocking is part of the numeric result.
constexpr std::size_t kInertiaBlock = 64;

}  // namespace

double squared_distance(std::span<const float> a, std::span<const float> b) {
  ANOLE_CHECK_EQ(a.size(), b.size(), "squared_distance: length mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = static_cast<double>(a[i]) - b[i];
    sum += diff * diff;
  }
  return sum;
}

std::size_t nearest_centroid(const Tensor& centroids,
                             std::span<const float> point) {
  ANOLE_CHECK(centroids.rank() == 2 && centroids.rows() > 0,
              "nearest_centroid: centroids must be a non-empty [k, d]");
  std::size_t best = 0;
  double best_distance = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const double d = squared_distance(centroids.row(c), point);
    if (d < best_distance) {
      best_distance = d;
      best = c;
    }
  }
  return best;
}

std::vector<std::size_t> KMeansResult::cluster_sizes() const {
  std::vector<std::size_t> sizes(centroids.rows(), 0);
  for (std::size_t a : assignments) ++sizes[a];
  return sizes;
}

KMeansResult kmeans(const Tensor& points, const KMeansConfig& config,
                    Rng& rng) {
  ANOLE_CHECK_EQ(points.rank(), 2u, "kmeans: points must be [n, d]");
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = config.clusters;
  ANOLE_CHECK(k >= 1 && n >= k, "kmeans: need at least k points (k=", k,
              ", n=", n, ")");
  ANOLE_CHECK_GE(config.max_iterations, 1u, "kmeans: max_iterations == 0");

  KMeansResult result;
  result.centroids = Tensor::matrix(k, d);

  // --- k-means++ seeding ---
  std::vector<double> min_distance(n, std::numeric_limits<double>::max());
  std::size_t first = rng.uniform_index(n);
  std::copy(points.row(first).begin(), points.row(first).end(),
            result.centroids.row(0).begin());
  for (std::size_t c = 1; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dist =
          squared_distance(points.row(i), result.centroids.row(c - 1));
      min_distance[i] = std::min(min_distance[i], dist);
    }
    double total = 0.0;
    for (double v : min_distance) total += v;
    std::size_t chosen;
    if (total <= 0.0) {
      chosen = rng.uniform_index(n);
    } else {
      chosen = rng.weighted_index(min_distance);
    }
    std::copy(points.row(chosen).begin(), points.row(chosen).end(),
              result.centroids.row(c).begin());
  }

  // --- Lloyd iterations ---
  result.assignments.assign(n, 0);
  // Assignment is the O(n*k*d) step and runs through the dispatched
  // distance kernel (tensor/simd.hpp): centroids are staged in a
  // lane-transposed double copy (ct[dim * k_stride + c]) so vector lanes
  // map to centroids. Every dispatch level accumulates each lane in
  // ascending dimension order with separate mul+add — bitwise identical
  // to squared_distance — so assignments (and therefore the whole
  // clustering) are independent of the SIMD level.
  const simd::Level level = simd::active_level();
  const std::size_t k_stride =
      (k + simd::kKmeansLaneMultiple - 1) / simd::kKmeansLaneMultiple *
      simd::kKmeansLaneMultiple;
  std::vector<double> centroids_t(d * k_stride, 0.0);
  // Padding lanes (c >= k) compute distances to the zero vector; the
  // argmin below never reads them.
  std::vector<double> lane_dist(k_stride);
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    for (std::size_t c = 0; c < k; ++c) {
      const auto row = result.centroids.row(c);
      for (std::size_t dim = 0; dim < d; ++dim) {
        centroids_t[dim * k_stride + c] = static_cast<double>(row[dim]);
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      simd::kmeans_distances(level, points.row(i).data(), d,
                             centroids_t.data(), k_stride, lane_dist.data());
      std::size_t nearest = 0;
      double best = lane_dist[0];
      for (std::size_t c = 1; c < k; ++c) {
        if (lane_dist[c] < best) {
          best = lane_dist[c];
          nearest = c;
        }
      }
      if (nearest != result.assignments[i]) {
        result.assignments[i] = nearest;
        changed = true;
      }
    }
    result.iterations = iter + 1;

    // Recompute centroids; empty clusters grab the point furthest from
    // its centroid to avoid collapse.
    Tensor sums = Tensor::matrix(k, d);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      auto sum_row = sums.row(result.assignments[i]);
      auto point = points.row(i);
      for (std::size_t j = 0; j < d; ++j) sum_row[j] += point[j];
      ++counts[result.assignments[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed from the globally worst-fit point.
        double worst = -1.0;
        std::size_t worst_idx = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const double dist = squared_distance(
              points.row(i), result.centroids.row(result.assignments[i]));
          if (dist > worst) {
            worst = dist;
            worst_idx = i;
          }
        }
        std::copy(points.row(worst_idx).begin(), points.row(worst_idx).end(),
                  result.centroids.row(c).begin());
        result.assignments[worst_idx] = c;
        changed = true;
        continue;
      }
      auto centroid = result.centroids.row(c);
      auto sum_row = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        centroid[j] = sum_row[j] / static_cast<float>(counts[c]);
      }
    }
    if (config.early_stop && !changed) break;
  }

  result.inertia = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kInertiaBlock) {
    const std::size_t hi = std::min(n, lo + kInertiaBlock);
    double partial = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      partial += squared_distance(
          points.row(i), result.centroids.row(result.assignments[i]));
    }
    result.inertia += partial;
  }
  return result;
}

}  // namespace anole::cluster
