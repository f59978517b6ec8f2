#include "serve/model_registry.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace iam::serve {
namespace {

using Replicas = std::vector<std::unique_ptr<core::ArDensityEstimator>>;

// Loads `copies` independent estimators from one serialized snapshot, so
// the copies are estimate-identical to each other.
Result<Replicas> LoadReplicas(const std::string& bytes, int copies) {
  Replicas replicas;
  for (int i = 0; i < copies; ++i) {
    std::istringstream in(bytes, std::ios::binary);
    Result<std::unique_ptr<core::ArDensityEstimator>> loaded =
        core::ArDensityEstimator::LoadFromStream(in);
    if (!loaded.ok()) return loaded.status();
    replicas.push_back(std::move(loaded.value()));
  }
  return replicas;
}

}  // namespace

ModelRegistry::ModelRegistry(std::unique_ptr<core::ArDensityEstimator> model,
                             std::string source, int num_threads,
                             int replicas)
    : num_threads_(num_threads < 1 ? 1 : num_threads),
      replicas_(replicas < 1 ? 1 : replicas),
      swaps_(obs::MetricRegistry::Global().GetCounter(
          "iam_serve_model_swaps_total")) {
  Swap(std::move(model), std::move(source));
}

std::shared_ptr<LoadedModel> ModelRegistry::Current(int shard) const {
  util::MutexLock lock(mu_);
  return current_[static_cast<size_t>(shard < 0 ? 0 : shard) %
                  current_.size()];
}

Result<uint64_t> ModelRegistry::SwapFromFile(const std::string& path) {
  // One bounded read of the file (the envelope reader rejects a bad magic or
  // an implausible size after the header); the replicas then clone from the
  // loaded model's bytes like any Swap, so a file rewritten mid-swap cannot
  // mix two versions in one generation. A failed load leaves the current
  // generation installed.
  Result<std::unique_ptr<core::ArDensityEstimator>> model =
      core::ArDensityEstimator::Load(path);
  if (!model.ok()) return model.status();
  return Swap(std::move(model.value()), path);
}

uint64_t ModelRegistry::Swap(std::unique_ptr<core::ArDensityEstimator> model,
                             std::string source) {
  Replicas models;
  std::ostringstream bytes;
  if (replicas_ > 1 && model->Save(bytes).ok()) {
    // All replicas — including replica 0 — load from the same serialized
    // bytes, discarding the donor: a round trip rounds parameters, so mixing
    // the in-memory donor with loaded clones would make a solo request's
    // answer depend on which shard's connection carried it.
    Result<Replicas> clones = LoadReplicas(bytes.str(), replicas_);
    if (clones.ok()) models = std::move(clones.value());
  }
  if (models.empty()) models.push_back(std::move(model));
  return Install(std::move(models), std::move(source));
}

void ModelRegistry::SetInstallHook(std::function<void(LoadedModel&)> hook) {
  util::MutexLock lock(mu_);
  install_hook_ = std::move(hook);
  if (!install_hook_) return;
  // Retroactive application: the already-installed generation must match
  // what a just-installed one would look like, or the hook's owner would
  // start with an unhooked current model.
  for (auto& replica : current_) install_hook_(*replica);
}

uint64_t ModelRegistry::Install(
    std::vector<std::unique_ptr<core::ArDensityEstimator>> models,
    std::string source) {
  std::vector<std::shared_ptr<LoadedModel>> generation;
  generation.reserve(models.size());
  for (auto& model : models) {
    model->set_num_threads(num_threads_);
    auto installed = std::make_shared<LoadedModel>();
    installed->schema = model->SchemaTable();
    installed->estimator = std::move(model);
    installed->source = source;
    generation.push_back(std::move(installed));
  }
  std::vector<std::shared_ptr<LoadedModel>> replaced;
  uint64_t version = 0;
  {
    util::MutexLock lock(mu_);
    version = ++versions_issued_;
    for (auto& replica : generation) {
      replica->version = version;
      // Hook before publish: a shard snapshotting the new version can never
      // observe a replica the hook has not prepared (DESIGN.md §18).
      if (install_hook_) install_hook_(*replica);
    }
    // Keep the old generation alive past the lock: its destructor may tear
    // down a thread pool, which must not run under mu_.
    replaced = std::move(current_);
    current_ = std::move(generation);
    current_version_.store(version, std::memory_order_release);
  }
  if (!replaced.empty()) swaps_.Add();  // initial install is not a swap
  return version;
}

}  // namespace iam::serve
