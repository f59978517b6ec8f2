#ifndef IAM_SERVE_MODEL_REGISTRY_H_
#define IAM_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ar_density_estimator.h"
#include "data/table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace iam::obs {
class Counter;
}  // namespace iam::obs

namespace iam::serve {

// One installed model generation: the estimator, its schema (for parsing
// predicate text without the training data), and a monotone version number
// that responses echo so clients — and the hot-swap tests — can tell which
// generation answered.
struct LoadedModel {
  std::unique_ptr<core::ArDensityEstimator> estimator;
  data::Table schema;
  uint64_t version = 0;
  std::string source;  // path it came from, or a caller-supplied tag
};

// Holds the current model generation and swaps it atomically. A generation is
// a set of `replicas` independent estimator instances sharing one version
// number: batcher shard i snapshots replica i % replicas, so shard workers
// never serialize on one estimator's batch mutex (Estimator::EstimateBatch is
// serialized per *instance*, DESIGN.md §8/§11). With replicas == 1 every
// shard shares the single instance — correct, just serialized.
//
// Shard workers take a snapshot per flush and refresh it only when
// current_version() (one relaxed atomic load, no lock) moved, so a swap never
// interrupts an in-flight batch: the old generation finishes its batch on the
// old replicas and dies when the last snapshot drops (on a worker thread, not
// under the registry lock).
//
// Swaps assume same-schema models (a reload/retrain of the same table) —
// queries parsed against generation N's schema may execute on generation
// N+1 if a swap lands between parse and flush.
class ModelRegistry {
 public:
  // Installs the initial model as version 1. `num_threads` is applied to
  // every replica of this and every later generation
  // (Estimator::set_num_threads) so micro-batches fan out across a pool.
  // `replicas` > 1 builds the generation from a serialize/deserialize round
  // trip: every replica — including replica 0 — loads from the same
  // serialized bytes, so all replicas answer identically (a round trip
  // rounds parameters, so the in-memory donor is discarded rather than mixed
  // in). A model that cannot be cloned (no Save support for its config)
  // falls back to sharing the one instance.
  ModelRegistry(std::unique_ptr<core::ArDensityEstimator> model,
                std::string source, int num_threads = 1, int replicas = 1);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // The current generation's replica for `shard` (shard % replicas). Never
  // null.
  std::shared_ptr<LoadedModel> Current(int shard) const IAM_EXCLUDES(mu_);
  // Replica 0 — the parse-schema / single-shard snapshot.
  std::shared_ptr<LoadedModel> Current() const { return Current(0); }

  // Version of the current generation: one relaxed load, no lock. Shard
  // workers poll this per flush and only touch the mutex when it moved.
  uint64_t current_version() const {
    return current_version_.load(std::memory_order_acquire);
  }

  int replicas() const { return replicas_; }

  // Loads a model snapshot from disk (one bounded read of the file) and
  // installs it as Swap does; a corrupt or unreadable file leaves the current
  // generation serving and returns the load error. On success returns the
  // new version.
  Result<uint64_t> SwapFromFile(const std::string& path) IAM_EXCLUDES(mu_);

  // Installs an already-built model; returns its version. Extra replicas are
  // cloned through an in-memory Save/LoadFromStream round trip; if cloning
  // fails the generation serves the single shared instance.
  uint64_t Swap(std::unique_ptr<core::ArDensityEstimator> model,
                std::string source) IAM_EXCLUDES(mu_);

  // Per-replica install hook (the adaptation subsystem's attachment point,
  // DESIGN.md §18). Runs under the registry mutex on every replica of each
  // installed generation *before* the generation's version is published, and
  // immediately on the current replicas when registered — so no generation is
  // ever visible to shard workers without the hook applied. The hook must be
  // cheap and must only take locks ranked below kRegistry (it runs with mu_
  // held). Pass an empty function to unregister; callers whose hook captures
  // `this` must unregister before destruction.
  void SetInstallHook(std::function<void(LoadedModel&)> hook)
      IAM_EXCLUDES(mu_);

 private:
  uint64_t Install(
      std::vector<std::unique_ptr<core::ArDensityEstimator>> models,
      std::string source) IAM_EXCLUDES(mu_);

  const int num_threads_;
  const int replicas_;
  obs::Counter& swaps_;
  std::atomic<uint64_t> current_version_{0};
  mutable util::Mutex mu_{util::LockRank::kRegistry};
  // One LoadedModel per replica, all carrying the generation's version.
  std::vector<std::shared_ptr<LoadedModel>> current_ IAM_GUARDED_BY(mu_);
  uint64_t versions_issued_ IAM_GUARDED_BY(mu_) = 0;
  std::function<void(LoadedModel&)> install_hook_ IAM_GUARDED_BY(mu_);
};

}  // namespace iam::serve

#endif  // IAM_SERVE_MODEL_REGISTRY_H_
