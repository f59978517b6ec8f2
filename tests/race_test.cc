// Deterministic concurrent regression test for the serving-side threading
// contract (DESIGN.md §8/§11):
//
//  - Concurrent EstimateBatch calls on ONE ArDensityEstimator are safe and
//    bit-identical to a serial call: the batch entry points serialize on the
//    estimator's batch mutex, and every query's progressive-sampling pass is
//    seeded from (options.seed ^ query index) alone, so the interleaving of
//    callers is unobservable in the results.
//
//  - A model cloned via Serialize/Deserialize may train concurrently with
//    inference on the original: weight versions are drawn from one
//    process-global atomic counter, and a reused evaluation context must miss
//    its version-keyed transposed-weight cache after every TrainStep (the
//    invalidation contract behind the per-workspace caches).
//
// Run under IAM_SANITIZE=thread, this is the machine check that the locking
// added for the static-analysis layer actually covers the shared state.
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ar/resmade.h"
#include "core/ar_density_estimator.h"
#include "core/presets.h"
#include "data/synthetic.h"
#include "nn/adam.h"
#include "query/query.h"
#include "util/random.h"

namespace iam::core {
namespace {

ArEstimatorOptions RaceOptions() {
  ArEstimatorOptions opts = IamDefaults(8);
  opts.made.hidden_sizes = {32, 32};
  opts.epochs = 1;
  opts.batch_size = 128;
  opts.progressive_samples = 64;
  opts.large_domain_threshold = 200;
  opts.num_threads = 2;
  return opts;
}

TEST(RaceTest, ConcurrentEstimateBatchWithTrainingOnClonedModel) {
  const data::Table table = data::MakeSynWisdm(3000, 77);
  ArDensityEstimator est(table, RaceOptions());
  est.TrainEpoch();

  std::vector<query::Query> qs;
  for (int i = 0; i < 12; ++i) {
    qs.push_back(query::Query{
        {{.column = 0, .lo = 25.0 + i, .hi = 40.0 + 2.0 * i}}});
  }
  const std::vector<double> baseline = est.EstimateBatch(qs);

  // Clone the AR model the way Load() does, so the clone shares nothing with
  // the original except the process-global weight-version counter.
  std::stringstream buf;
  est.made().Serialize(buf);
  auto clone_or = ar::ResMade::Deserialize(buf);
  ASSERT_TRUE(clone_or.ok()) << clone_or.status().ToString();
  std::unique_ptr<ar::ResMade> clone = std::move(clone_or).value();

  nn::Adam adam;
  clone->RegisterParameters(adam);
  std::vector<std::vector<int>> train_batch(
      32, std::vector<int>(clone->num_columns(), 0));

  constexpr int kRounds = 4;
  std::vector<std::vector<double>> got_a(kRounds), got_b(kRounds);
  std::atomic<bool> cache_invalidated{true};
  std::atomic<bool> weights_moved{true};

  std::thread reader_a([&] {
    for (int r = 0; r < kRounds; ++r) got_a[r] = est.EstimateBatch(qs);
  });
  std::thread reader_b([&] {
    for (int r = 0; r < kRounds; ++r) got_b[r] = est.EstimateBatch(qs);
  });
  std::thread trainer([&] {
    ar::ResMade::Context ctx;  // reused across rounds: caches must invalidate
    Rng rng(123);
    const std::vector<int> tuple(clone->num_columns(), 0);
    double prev_lp = clone->LogProb(tuple, ctx);
    uint64_t prev_version = ctx.ws.wt_version;
    for (int r = 0; r < kRounds; ++r) {
      clone->TrainStep(train_batch, adam, rng);
      const double lp = clone->LogProb(tuple, ctx);
      // The TrainStep bumped the clone's weight version, so the reused
      // context must have rebuilt its transposed-weight cache...
      if (ctx.ws.wt_version == prev_version) cache_invalidated = false;
      // ...against the post-step weights (an Adam step moves every weight,
      // so a stale cache would reproduce the previous log-prob exactly).
      if (lp == prev_lp) weights_moved = false;
      prev_version = ctx.ws.wt_version;
      prev_lp = lp;
    }
  });
  reader_a.join();
  reader_b.join();
  trainer.join();

  EXPECT_TRUE(cache_invalidated.load())
      << "reused eval context kept a stale transposed-weight cache";
  EXPECT_TRUE(weights_moved.load())
      << "LogProb unchanged after TrainStep: stale weights served";
  for (int r = 0; r < kRounds; ++r) {
    // Bitwise equality: concurrent batches must be indistinguishable from
    // the serial baseline, not merely close.
    EXPECT_EQ(got_a[r], baseline) << "reader A, round " << r;
    EXPECT_EQ(got_b[r], baseline) << "reader B, round " << r;
  }
}

// The same serialization guarantee at the base-class level: concurrent
// set_num_threads + EstimateBatch must not race on the lazily built pool.
TEST(RaceTest, PoolRebuildDoesNotRaceWithBatches) {
  const data::Table table = data::MakeSynWisdm(2000, 78);
  ArEstimatorOptions opts = RaceOptions();
  opts.progressive_samples = 32;
  ArDensityEstimator est(table, opts);
  est.TrainEpoch();

  std::vector<query::Query> qs;
  for (int i = 0; i < 6; ++i) {
    qs.push_back(query::Query{{{.column = 0, .lo = 30.0, .hi = 40.0 + i}}});
  }
  const std::vector<double> baseline = est.EstimateBatch(qs);

  std::thread resizer([&] {
    for (int r = 0; r < 6; ++r) est.set_num_threads(1 + r % 3);
  });
  std::vector<std::vector<double>> got(6);
  std::thread reader([&] {
    for (int r = 0; r < 6; ++r) got[r] = est.EstimateBatch(qs);
  });
  resizer.join();
  reader.join();

  // Thread-count independence: whatever pool size each batch saw, the
  // estimates are bit-identical.
  for (int r = 0; r < 6; ++r) EXPECT_EQ(got[r], baseline) << "round " << r;
}

}  // namespace
}  // namespace iam::core
