#include "core/repository.hpp"

#include <algorithm>
#include <mutex>
#include <set>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "world/featurizer.hpp"

namespace anole::core {

std::vector<std::size_t> ModelRepository::training_set_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(models_.size());
  for (const auto& model : models_) {
    sizes.push_back(model.training_frames.size());
  }
  return sizes;
}

namespace {

/// Frames grouped by dense scene class.
std::vector<std::vector<const world::Frame*>> group_by_class(
    const SemanticSceneIndex& index,
    const std::vector<const world::Frame*>& frames) {
  std::vector<std::vector<const world::Frame*>> groups(index.class_count());
  for (const world::Frame* frame : frames) {
    const auto cls = index.class_of(*frame);
    if (cls) groups[*cls].push_back(frame);
  }
  return groups;
}

/// Mean embedding per scene class; classes with no frames get zero rows
/// and are excluded from clustering via the `present` mask.
Tensor class_mean_embeddings(SceneEncoder& encoder,
                             const SemanticSceneIndex& index,
                             const std::vector<std::vector<const world::Frame*>>&
                                 class_frames,
                             std::vector<bool>& present) {
  const world::FrameFeaturizer featurizer;
  Tensor means = Tensor::matrix(index.class_count(), encoder.embedding_dim());
  present.assign(index.class_count(), false);
  for (std::size_t c = 0; c < class_frames.size(); ++c) {
    if (class_frames[c].empty()) continue;
    present[c] = true;
    Tensor embeddings =
        encoder.embed(featurizer.featurize_batch(class_frames[c]));
    auto mean_row = means.row(c);
    for (std::size_t i = 0; i < embeddings.rows(); ++i) {
      auto row = embeddings.row(i);
      for (std::size_t j = 0; j < row.size(); ++j) mean_row[j] += row[j];
    }
    for (auto& v : mean_row) v /= static_cast<float>(embeddings.rows());
  }
  return means;
}

}  // namespace

ModelRepository train_model_repository(
    SceneEncoder& encoder, const SemanticSceneIndex& scene_index,
    const std::vector<const world::Frame*>& train_frames,
    const std::vector<const world::Frame*>& val_frames,
    const RepositoryConfig& config, Rng& rng) {
  ANOLE_CHECK_GE(config.target_models, 1u,
                 "train_model_repository: target_models == 0");
  ANOLE_CHECK_GE(config.max_cluster_k, 2u,
                 "train_model_repository: max_cluster_k must be >= 2");
  ANOLE_CHECK(config.acceptance_threshold >= 0.0 &&
                  config.acceptance_threshold <= 1.0,
              "train_model_repository: acceptance_threshold must be in "
              "[0, 1], got ", config.acceptance_threshold);
  ModelRepository repository;

  const auto train_by_class = group_by_class(scene_index, train_frames);
  const auto val_by_class = group_by_class(scene_index, val_frames);

  // Scene embedding (Algorithm 1 lines 1-3): mean trunk embedding per
  // semantic scene class.
  std::vector<bool> present;
  const Tensor class_means =
      class_mean_embeddings(encoder, scene_index, train_by_class, present);
  std::vector<std::size_t> active_classes;
  for (std::size_t c = 0; c < present.size(); ++c) {
    if (present[c]) active_classes.push_back(c);
  }
  if (active_classes.empty()) return repository;

  Tensor points =
      Tensor::matrix(active_classes.size(), encoder.embedding_dim());
  for (std::size_t i = 0; i < active_classes.size(); ++i) {
    auto src = class_means.row(active_classes[i]);
    std::copy(src.begin(), src.end(), points.row(i).begin());
  }

  // Small clusters receive a step count comparable to training on the
  // whole corpus (per-scene fine-tuning budget).
  detect::DetectorTrainConfig train_config = config.detector_train;
  if (train_config.reference_frames == 0) {
    train_config.reference_frames = train_frames.size();
  }

  // Model training with multi-level clustering (Algorithm 1 lines 4-13).
  //
  // Algorithm 1 is an ordered k-sweep: granularity k = 2, 3, ... offers its
  // clusters in order and each is accepted while the repository holds fewer
  // than n models. Only that acceptance walk must run in order; training
  // need not. So every random draw happens on this thread first, in sweep
  // order (one Rng split per granularity's k-means, then one per candidate
  // detector), and the expensive work fans out over the pool: the k-means
  // sweep, then every granularity's candidates in one queue. The result is
  // independent of the thread count and of how tasks were scheduled.
  const std::size_t max_k =
      std::min(config.max_cluster_k, active_classes.size());
  std::vector<Rng> kmeans_rngs;
  for (std::size_t k = 2; k <= max_k; ++k) kmeans_rngs.push_back(rng.split());
  std::vector<cluster::KMeansResult> clusterings(kmeans_rngs.size());
  par::parallel_for(0, kmeans_rngs.size(), 1, [&](std::size_t idx) {
    cluster::KMeansConfig kmeans_config;
    kmeans_config.clusters = idx + 2;
    clusterings[idx] = cluster::kmeans(points, kmeans_config,
                                       kmeans_rngs[idx]);
  });

  struct Candidate {
    std::vector<std::size_t> member_classes;
    std::vector<const world::Frame*> train;
    std::vector<const world::Frame*> val;
    Rng rng{0};
    std::size_t cluster_index = 0;
    std::unique_ptr<detect::GridDetector> detector;
    double f1 = 0.0;
  };
  const auto accepts = [&](const Candidate& candidate) {
    return candidate.f1 > config.acceptance_threshold;
  };

  // Plan every granularity up front, in (k, cluster) order. The candidate
  // splits come from a copy of `rng`: the walk visits only a prefix of the
  // granularities, and `rng` must end up split only for those.
  // `rng_after[k - 2]` is the copy's state after granularity k's splits and
  // `granularity_end[k - 2]` is one past its last candidate.
  Rng plan_rng = rng;
  std::vector<Candidate> candidates;
  std::vector<std::size_t> granularity_end;
  std::vector<Rng> rng_after;
  std::set<std::vector<std::size_t>> trained_scene_sets;
  for (std::size_t k = 2; k <= max_k; ++k) {
    const auto& clustering = clusterings[k - 2];
    for (std::size_t j = 0; j < k; ++j) {
      std::vector<std::size_t> member_classes;
      for (std::size_t i = 0; i < active_classes.size(); ++i) {
        if (clustering.assignments[i] == j) {
          member_classes.push_back(active_classes[i]);
        }
      }
      if (member_classes.empty()) continue;
      // The same scene grouping can re-appear at several granularities;
      // train it once.
      if (!trained_scene_sets.insert(member_classes).second) continue;

      std::vector<const world::Frame*> cluster_train;
      std::vector<const world::Frame*> cluster_val;
      for (std::size_t cls : member_classes) {
        cluster_train.insert(cluster_train.end(), train_by_class[cls].begin(),
                             train_by_class[cls].end());
        cluster_val.insert(cluster_val.end(), val_by_class[cls].begin(),
                           val_by_class[cls].end());
      }
      if (cluster_train.size() < config.min_training_frames ||
          cluster_val.size() < config.min_validation_frames) {
        continue;
      }

      Candidate candidate;
      candidate.member_classes = std::move(member_classes);
      candidate.train = std::move(cluster_train);
      candidate.val = std::move(cluster_val);
      candidate.rng = plan_rng.split();
      candidate.cluster_index = j;
      candidates.push_back(std::move(candidate));
    }
    granularity_end.push_back(candidates.size());
    rng_after.push_back(plan_rng);
  }

  // Train the whole queue in one pool job, handed out in ascending order.
  // Candidate c is not needed once the finished candidates before it
  // already accept n models: the walk below fills the repository before
  // reaching c. That condition only ever turns true (candidates finish,
  // none un-finish), so a worker checks it before starting c and again at
  // every epoch boundary of c's training, and drops c as soon as it holds.
  // A dropped candidate is never one the walk reads, so the result does
  // not depend on when, or whether, a drop happens.
  std::mutex queue_mutex;
  std::vector<bool> finished_accepted(candidates.size(), false);
  const auto walk_fills_before = [&](std::size_t c) {
    std::lock_guard<std::mutex> lock(queue_mutex);
    const auto accepted_before = static_cast<std::size_t>(std::count(
        finished_accepted.begin(),
        finished_accepted.begin() + static_cast<std::ptrdiff_t>(c), true));
    return accepted_before >= config.target_models;
  };
  par::parallel_for(0, candidates.size(), 1, [&](std::size_t c) {
    if (walk_fills_before(c)) return;
    Candidate& candidate = candidates[c];
    candidate.detector = std::make_unique<detect::GridDetector>(
        config.detector_config, candidate.rng,
        candidate.train.front()->grid_size);
    const detect::DetectorTrainResult trained = detect::train_detector(
        *candidate.detector, candidate.train, train_config, candidate.rng,
        [&] { return walk_fills_before(c); });
    if (trained.stopped) return;
    candidate.f1 = detect::evaluate_f1(*candidate.detector, candidate.val);
    std::lock_guard<std::mutex> lock(queue_mutex);
    finished_accepted[c] = accepts(candidate);
  });

  // The acceptance walk, granularity by granularity in cluster order. A
  // model's name numbers it from the repository size at the start of its
  // granularity plus its place in that granularity's candidate list.
  for (std::size_t k = 2;
       k <= max_k && repository.size() < config.target_models; ++k) {
    const std::size_t first_model = repository.size();
    const std::size_t begin = k == 2 ? 0 : granularity_end[k - 3];
    for (std::size_t c = begin; c < granularity_end[k - 2]; ++c) {
      if (repository.size() >= config.target_models) break;
      Candidate& candidate = candidates[c];
      if (config.verbose) {
        log_info("Algorithm1 k=", k, " cluster=", candidate.cluster_index,
                 " scenes=", candidate.member_classes.size(), " train=",
                 candidate.train.size(), " val_f1=", candidate.f1);
      }
      if (!accepts(candidate)) continue;
      // Built via append rather than operator+ chains: GCC 12 -O2 emits a
      // spurious -Wrestrict on `"literal" + std::string&&`.
      std::string model_name = "M";
      model_name += std::to_string(first_model + (c - begin) + 1);
      model_name += "(k=";
      model_name += std::to_string(k);
      model_name += ",c=";
      model_name += std::to_string(candidate.cluster_index);
      model_name += ")";
      candidate.detector->set_name(model_name);
      SceneModel model;
      model.detector = std::move(candidate.detector);
      model.scene_classes = std::move(candidate.member_classes);
      model.training_frames = std::move(candidate.train);
      model.validation_frames = std::move(candidate.val);
      model.validation_f1 = candidate.f1;
      model.cluster_k = k;
      model.name = std::move(model_name);
      repository.add(std::move(model));
    }
    // Backfill, ASS and M_decision draw on from `rng` as split for the
    // granularities visited so far.
    rng = rng_after[k - 2];
  }

  if (config.backfill_uncovered_scenes) {
    std::vector<bool> covered(scene_index.class_count(), false);
    for (std::size_t m = 0; m < repository.size(); ++m) {
      for (std::size_t cls : repository.model(m).scene_classes) {
        covered[cls] = true;
      }
    }
    for (std::size_t cls : active_classes) {
      if (covered[cls] || repository.size() >= config.target_models) continue;
      const auto& cluster_train = train_by_class[cls];
      if (cluster_train.size() < config.min_training_frames / 2) continue;
      detect::GridDetectorConfig detector_config = config.detector_config;
      std::string model_name = "M";
      model_name += std::to_string(repository.size() + 1);
      model_name += "(scene=";
      model_name += std::to_string(cls);
      model_name += ")";
      detector_config.name = std::move(model_name);
      auto detector = std::make_unique<detect::GridDetector>(
          detector_config, rng, cluster_train.front()->grid_size);
      detect::train_detector(*detector, cluster_train, train_config, rng);
      const double f1 = val_by_class[cls].empty()
                            ? 0.0
                            : detect::evaluate_f1(*detector,
                                                  val_by_class[cls]);
      if (config.verbose) {
        log_info("Algorithm1 backfill scene=", cls, " train=",
                 cluster_train.size(), " val_f1=", f1);
      }
      SceneModel model;
      model.detector = std::move(detector);
      model.scene_classes = {cls};
      model.training_frames = cluster_train;
      model.validation_frames = val_by_class[cls];
      model.validation_f1 = f1;
      model.cluster_k = 0;  // marks a backfilled specialist
      model.name = detector_config.name;
      repository.add(std::move(model));
    }
  }
  return repository;
}

}  // namespace anole::core
