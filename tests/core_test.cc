#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "core/ar_density_estimator.h"
#include "core/presets.h"
#include "core/sampling_utils.h"
#include "data/synthetic.h"
#include "query/parser.h"
#include "query/workload.h"
#include "util/quantiles.h"

namespace iam::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Small, fast configurations for tests.
ArEstimatorOptions FastIam() {
  ArEstimatorOptions opts = IamDefaults(8);
  opts.made.hidden_sizes = {48, 48};
  opts.epochs = 6;
  opts.batch_size = 256;
  opts.progressive_samples = 128;
  opts.large_domain_threshold = 200;
  return opts;
}

ArEstimatorOptions FastNeurocard() {
  ArEstimatorOptions opts = NeurocardDefaults();
  opts.made.hidden_sizes = {48, 48};
  opts.epochs = 6;
  opts.batch_size = 256;
  opts.progressive_samples = 128;
  opts.large_domain_threshold = 200;
  opts.factor_bits = 6;  // exercise factorization on small test domains
  return opts;
}

const data::Table& Twi() {
  static const data::Table* table =
      new data::Table(data::MakeSynTwi(8000, 101));
  return *table;
}

const data::Table& Wisdm() {
  static const data::Table* table =
      new data::Table(data::MakeSynWisdm(8000, 102));
  return *table;
}

TEST(IamModelTest, ReducesContinuousDomains) {
  ArDensityEstimator iam(Twi(), FastIam());
  EXPECT_TRUE(iam.IsReduced(0));
  EXPECT_TRUE(iam.IsReduced(1));
  EXPECT_EQ(iam.ReducedDomainSize(0), 8);
  EXPECT_EQ(iam.num_model_columns(), 2);
}

TEST(IamModelTest, MixedSchemaKeepsCategoricalRaw) {
  ArDensityEstimator iam(Wisdm(), FastIam());
  EXPECT_FALSE(iam.IsReduced(0));
  EXPECT_FALSE(iam.IsReduced(1));
  EXPECT_TRUE(iam.IsReduced(2));
  EXPECT_EQ(iam.num_model_columns(), 5);
}

TEST(NeurocardTest, FactorizesLargeDomains) {
  ArDensityEstimator nc(Twi(), FastNeurocard());
  EXPECT_FALSE(nc.IsReduced(0));
  // 8000 distinct values with 2^6 sub-domain -> two model columns per col.
  EXPECT_EQ(nc.num_model_columns(), 4);
}

TEST(IamModelTest, TrainingReducesArLoss) {
  ArDensityEstimator iam(Twi(), FastIam());
  const double first = iam.TrainEpoch();
  double last = first;
  for (int e = 0; e < 5; ++e) last = iam.TrainEpoch();
  EXPECT_LT(last, first + 0.05);
}

TEST(IamModelTest, GmmNllAvailableForReducedColumns) {
  ArDensityEstimator iam(Twi(), FastIam());
  iam.TrainEpoch();
  ASSERT_TRUE(iam.GmmNll(0).has_value());
  EXPECT_TRUE(std::isfinite(*iam.GmmNll(0)));
}

TEST(IamModelTest, UnconstrainedColumnEstimatesNearOne) {
  ArDensityEstimator iam(Twi(), FastIam());
  iam.Train();
  query::Query q{{{.column = 0, .lo = -kInf, .hi = kInf}}};
  EXPECT_GT(iam.Estimate(q), 0.85);
}

TEST(IamModelTest, ImpossibleRangeIsZero) {
  ArDensityEstimator iam(Twi(), FastIam());
  iam.Train();
  query::Query q{{{.column = 0, .lo = 500.0, .hi = 600.0}}};
  EXPECT_DOUBLE_EQ(iam.Estimate(q), 0.0);
  query::Query inverted{{{.column = 0, .lo = 40.0, .hi = 30.0}}};
  EXPECT_DOUBLE_EQ(iam.Estimate(inverted), 0.0);
}

TEST(IamModelTest, AccuracyOnSpatialWorkload) {
  ArDensityEstimator iam(Twi(), FastIam());
  iam.Train();
  Rng rng(7);
  query::WorkloadOptions options;
  options.num_queries = 40;
  const auto w = query::GenerateEvaluatedWorkload(Twi(), options, rng);
  std::vector<double> errors;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    errors.push_back(query::QError(w.true_selectivities[i],
                                   iam.Estimate(w.queries[i]),
                                   Twi().num_rows()));
  }
  const ErrorReport report = MakeErrorReport(errors);
  EXPECT_LT(report.median, 3.0) << FormatErrorReport(report);
  EXPECT_LT(report.max, 200.0) << FormatErrorReport(report);
}

TEST(NeurocardTest, AccuracyOnSpatialWorkload) {
  ArDensityEstimator nc(Twi(), FastNeurocard());
  nc.Train();
  Rng rng(8);
  query::WorkloadOptions options;
  options.num_queries = 30;
  const auto w = query::GenerateEvaluatedWorkload(Twi(), options, rng);
  std::vector<double> errors;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    errors.push_back(query::QError(w.true_selectivities[i],
                                   nc.Estimate(w.queries[i]),
                                   Twi().num_rows()));
  }
  const ErrorReport report = MakeErrorReport(errors);
  EXPECT_LT(report.median, 5.0) << FormatErrorReport(report);
}

// Theorem 5.1 (unbiasedness): with the model frozen, the progressive-sampling
// estimate must converge to the exhaustive enumeration of the model's own
// joint distribution restricted by the bias-correction masses.
TEST(IamModelTest, ProgressiveSamplingMatchesExhaustiveEnumeration) {
  ArEstimatorOptions opts = FastIam();
  opts.progressive_samples = 4096;  // tight Monte-Carlo error
  ArDensityEstimator iam(Twi(), opts);
  iam.Train();

  query::Query q{{{.column = 0, .lo = 38.0, .hi = 44.0},
                  {.column = 1, .lo = -110.0, .hi = -80.0}}};

  // Exhaustive: sum over all (k1, k2) of
  //   P(k1) mass1[k1] P(k2 | k1) mass2[k2].
  const auto mass0 = iam.reducer(0)->RangeMass(38.0, 44.0);
  const auto mass1 = iam.reducer(1)->RangeMass(-110.0, -80.0);
  const int k0 = iam.ReducedDomainSize(0);
  const int k1 = iam.ReducedDomainSize(1);
  ar::ResMade& made = iam.made();

  nn::Matrix marginal;
  const int wc0 = made.wildcard_token(0);
  const int wc1 = made.wildcard_token(1);
  made.ConditionalDistribution({{wc0, wc1}}, 0, marginal);
  double exhaustive = 0.0;
  std::vector<std::vector<int>> inputs;
  for (int a = 0; a < k0; ++a) inputs.push_back({a, wc1});
  nn::Matrix cond;
  made.ConditionalDistribution(inputs, 1, cond);
  for (int a = 0; a < k0; ++a) {
    double inner = 0.0;
    for (int b = 0; b < k1; ++b) {
      inner += cond.at(a, b) * mass1[b];
    }
    exhaustive += marginal.at(0, a) * mass0[a] * inner;
  }

  const double sampled = iam.Estimate(q);
  EXPECT_NEAR(sampled, exhaustive, 0.05 * std::max(exhaustive, 0.01));
}

TEST(IamModelTest, BatchMatchesSingleQueryEstimates) {
  ArDensityEstimator iam(Twi(), FastIam());
  iam.Train();
  Rng rng(9);
  query::WorkloadOptions options;
  options.num_queries = 12;
  const auto w = query::GenerateEvaluatedWorkload(Twi(), options, rng);
  const auto batch = iam.EstimateBatch(w.queries);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const double single = iam.Estimate(w.queries[i]);
    // Different RNG draws; estimates agree within Monte-Carlo noise.
    const double floor = 1.0 / Twi().num_rows();
    const double ratio = std::max(batch[i], floor) /
                         std::max(single, floor);
    EXPECT_LT(std::max(ratio, 1.0 / ratio), 4.0) << "query " << i;
  }
}

TEST(IamModelTest, ParallelBatchIsBitIdenticalToSerial) {
  // The threading contract: each query draws from its own RNG stream seeded
  // by (options.seed ^ query index), so EstimateBatch must return the exact
  // same doubles no matter how many threads the pool runs.
  ArEstimatorOptions opts = FastIam();
  opts.num_threads = 1;
  ArDensityEstimator iam(Twi(), opts);
  iam.Train();
  Rng rng(31);
  query::WorkloadOptions woptions;
  woptions.num_queries = 24;
  const auto w = query::GenerateEvaluatedWorkload(Twi(), woptions, rng);

  const auto serial = iam.EstimateBatch(w.queries);
  iam.set_num_threads(4);
  const auto parallel = iam.EstimateBatch(w.queries);
  iam.set_num_threads(1);
  const auto serial_again = iam.EstimateBatch(w.queries);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "query " << i;
    // Repeated calls are also deterministic (no shared RNG advanced).
    EXPECT_DOUBLE_EQ(serial[i], serial_again[i]) << "query " << i;
  }
}

TEST(IamModelTest, ParallelBuildMatchesSerialBuild) {
  // Per-column reducer fitting is parallelized at build time with per-column
  // seeds, so a 4-thread build must produce the same model as a serial one.
  ArEstimatorOptions serial_opts = FastIam();
  serial_opts.num_threads = 1;
  ArDensityEstimator serial(Twi(), serial_opts);
  serial.Train();

  ArEstimatorOptions parallel_opts = FastIam();
  parallel_opts.num_threads = 4;
  ArDensityEstimator parallel(Twi(), parallel_opts);
  parallel.Train();

  Rng rng(32);
  query::WorkloadOptions woptions;
  woptions.num_queries = 12;
  const auto w = query::GenerateEvaluatedWorkload(Twi(), woptions, rng);
  serial.set_num_threads(1);
  parallel.set_num_threads(1);
  const auto from_serial = serial.EstimateBatch(w.queries);
  const auto from_parallel = parallel.EstimateBatch(w.queries);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_serial[i], from_parallel[i]) << "query " << i;
  }
}

TEST(IamModelTest, AlternativeReducersPlugIn) {
  for (ReducerKind kind :
       {ReducerKind::kEquiDepth, ReducerKind::kSpline, ReducerKind::kUmm}) {
    ArEstimatorOptions opts = FastIam();
    opts.reducer_kind = kind;
    opts.epochs = 3;
    ArDensityEstimator est(Twi(), opts);
    est.Train();
    query::Query q{{{.column = 0, .lo = 35.0, .hi = 45.0}}};
    const double s = est.Estimate(q);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(IamModelTest, AutoComponentSelectionViaVbgm) {
  ArEstimatorOptions opts = FastIam();
  opts.reducer_components = 0;  // VBGM decides
  ArDensityEstimator iam(Twi(), opts);
  EXPECT_GE(iam.ReducedDomainSize(0), 1);
  EXPECT_LE(iam.ReducedDomainSize(0), 50);
}

TEST(IamModelTest, SmallerThanNeurocard) {
  ArDensityEstimator iam(Twi(), FastIam());
  ArDensityEstimator nc(Twi(), FastNeurocard());
  // The paper's Table 6 regime: domain reduction shrinks the model.
  EXPECT_LT(iam.SizeBytes(), nc.SizeBytes());
}

TEST(IamModelTest, CustomColumnOrderStillAccurate) {
  ArEstimatorOptions opts = FastIam();
  opts.column_order = {1, 0};  // reverse order on the 2-column TWI table
  ArDensityEstimator iam(Twi(), opts);
  iam.Train();
  query::Query q{{{.column = 0, .lo = 35.0, .hi = 45.0}}};
  const double truth = query::TrueSelectivity(Twi(), q);
  EXPECT_LT(query::QError(truth, iam.Estimate(q), Twi().num_rows()), 3.0);
}

TEST(IamModelTest, InvalidColumnOrderRejected) {
  ArEstimatorOptions opts = FastIam();
  opts.column_order = {0, 0};  // not a permutation
  EXPECT_DEATH({ ArDensityEstimator iam(Twi(), opts); }, "IAM_CHECK");
}

TEST(AggregateTest, CountMatchesSelectivity) {
  ArDensityEstimator iam(Twi(), FastIam());
  iam.Train();
  query::Query q{{{.column = 0, .lo = 35.0, .hi = 45.0}}};
  const auto agg = iam.EstimateAggregate(q, 1);
  const double sel = agg.selectivity;
  EXPECT_NEAR(agg.count, sel * Twi().num_rows(), 1e-6);
  // Aggregate-path selectivity should be consistent with Estimate().
  const double direct = iam.Estimate(q);
  const double ratio = std::max(sel, 1e-4) / std::max(direct, 1e-4);
  EXPECT_LT(std::max(ratio, 1.0 / ratio), 2.0);
}

TEST(AggregateTest, AvgAndSumTrackExactAnswers) {
  ArEstimatorOptions opts = FastIam();
  opts.progressive_samples = 1024;
  ArDensityEstimator iam(Twi(), opts);
  iam.Train();

  // AVG(longitude) and SUM(longitude) over latitude <= 40.
  query::Query q{{{.column = 0, .lo = -1e30, .hi = 40.0}}};
  double exact_sum = 0.0;
  size_t exact_count = 0;
  for (size_t r = 0; r < Twi().num_rows(); ++r) {
    if (Twi().value(r, 0) <= 40.0) {
      exact_sum += Twi().value(r, 1);
      ++exact_count;
    }
  }
  const double exact_avg = exact_sum / static_cast<double>(exact_count);

  const auto agg = iam.EstimateAggregate(q, 1);
  // Longitudes are ~[-124, -67]: demand the AVG within a few degrees.
  EXPECT_NEAR(agg.avg, exact_avg, 4.0);
  EXPECT_NEAR(agg.sum / exact_sum, 1.0, 0.25);
  EXPECT_NEAR(agg.count / static_cast<double>(exact_count), 1.0, 0.25);
}

TEST(AggregateTest, TargetWithPredicateUsesRestrictedMean) {
  ArEstimatorOptions opts = FastIam();
  opts.progressive_samples = 1024;
  ArDensityEstimator iam(Twi(), opts);
  iam.Train();
  // AVG(latitude) with the predicate on latitude itself: the representative
  // values must come from inside the queried interval.
  query::Query q{{{.column = 0, .lo = 30.0, .hi = 40.0}}};
  const auto agg = iam.EstimateAggregate(q, 0);
  EXPECT_GE(agg.avg, 30.0);
  EXPECT_LE(agg.avg, 40.0);
}

TEST(AggregateTest, FactorizedTargetDecodesValues) {
  // Neurocard-style model: the target column is factorized into two
  // sub-columns; the aggregate path must recombine and decode them.
  ArEstimatorOptions opts = FastNeurocard();
  opts.progressive_samples = 1024;
  ArDensityEstimator nc(Twi(), opts);
  nc.Train();
  query::Query q{{{.column = 0, .lo = -1e30, .hi = 40.0}}};
  double exact_sum = 0.0;
  size_t exact_count = 0;
  for (size_t r = 0; r < Twi().num_rows(); ++r) {
    if (Twi().value(r, 0) <= 40.0) {
      exact_sum += Twi().value(r, 1);
      ++exact_count;
    }
  }
  const auto agg = nc.EstimateAggregate(q, 1);
  EXPECT_NEAR(agg.avg, exact_sum / static_cast<double>(exact_count), 5.0);
  // Values must be real longitudes, not sub-column codes.
  EXPECT_LT(agg.avg, -60.0);
  EXPECT_GT(agg.avg, -130.0);
}

TEST(AggregateTest, ImpossibleQueryYieldsZeros) {
  ArDensityEstimator iam(Twi(), FastIam());
  iam.Train();
  query::Query q{{{.column = 0, .lo = 500.0, .hi = 600.0}}};
  const auto agg = iam.EstimateAggregate(q, 1);
  EXPECT_DOUBLE_EQ(agg.selectivity, 0.0);
  EXPECT_DOUBLE_EQ(agg.sum, 0.0);
}

TEST(PersistenceTest, SaveLoadRoundTrip) {
  ArEstimatorOptions opts = FastIam();
  ArDensityEstimator iam(Twi(), opts);
  iam.Train();

  const std::string path =
      (std::filesystem::temp_directory_path() / "iam_model_test.bin").string();
  ASSERT_TRUE(iam.Save(path).ok());
  auto loaded = ArDensityEstimator::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->name(), iam.name());
  EXPECT_EQ((*loaded)->num_model_columns(), iam.num_model_columns());
  EXPECT_EQ((*loaded)->ReducedDomainSize(0), iam.ReducedDomainSize(0));
  EXPECT_EQ((*loaded)->SizeBytes(), iam.SizeBytes());

  // Deterministic check: identical AR weights -> identical log-probs.
  for (const std::vector<int>& tuple :
       {std::vector<int>{0, 0}, {3, 5}, {7, 2}}) {
    EXPECT_DOUBLE_EQ((*loaded)->made().LogProb(tuple), iam.made().LogProb(tuple));
  }

  // Stochastic check: estimates agree within Monte-Carlo noise.
  query::Query q{{{.column = 0, .lo = 35.0, .hi = 45.0}}};
  const double a = iam.Estimate(q);
  const double b = (*loaded)->Estimate(q);
  const double ratio =
      std::max(a, 1e-4) / std::max(b, 1e-4);
  EXPECT_LT(std::max(ratio, 1.0 / ratio), 1.5);
  std::remove(path.c_str());
}

TEST(PersistenceTest, RoundTripEveryReducerKind) {
  for (ReducerKind kind :
       {ReducerKind::kGmm, ReducerKind::kEquiDepth, ReducerKind::kSpline,
        ReducerKind::kUmm}) {
    ArEstimatorOptions opts = FastIam();
    opts.reducer_kind = kind;
    opts.epochs = 2;
    ArDensityEstimator est(Twi(), opts);
    est.Train();
    const std::string path =
        (std::filesystem::temp_directory_path() / "iam_model_kind.bin")
            .string();
    ASSERT_TRUE(est.Save(path).ok());
    auto loaded = ArDensityEstimator::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // Reducer geometry must survive: identical bucket count and assignment.
    EXPECT_EQ((*loaded)->ReducedDomainSize(0), est.ReducedDomainSize(0));
    for (double x : {30.0, 40.0, 48.0}) {
      EXPECT_EQ((*loaded)->reducer(0)->Assign(x), est.reducer(0)->Assign(x));
    }
    std::remove(path.c_str());
  }
}

TEST(PersistenceTest, SchemaSurvivesRoundTrip) {
  ArEstimatorOptions opts = FastIam();
  opts.epochs = 1;
  ArDensityEstimator iam(Wisdm(), opts);
  iam.Train();
  const std::string path =
      (std::filesystem::temp_directory_path() / "iam_model_schema.bin")
          .string();
  ASSERT_TRUE(iam.Save(path).ok());
  auto loaded = ArDensityEstimator::Load(path);
  ASSERT_TRUE(loaded.ok());
  const data::Table schema = (*loaded)->SchemaTable();
  ASSERT_EQ(schema.num_columns(), 5);
  EXPECT_EQ(schema.column(0).name, "subject_id");
  EXPECT_EQ(schema.column(0).type, data::ColumnType::kCategorical);
  EXPECT_EQ(schema.column(2).name, "x");
  EXPECT_EQ(schema.column(2).type, data::ColumnType::kContinuous);
  // The schema is enough to parse predicates against the loaded model.
  auto q = query::ParsePredicates(schema, "subject_id = 0 AND x <= 1.5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const double est = (*loaded)->Estimate(*q);
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 1.0);
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "iam_model_bad.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model";
  }
  const auto loaded = ArDensityEstimator::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsTruncated) {
  ArEstimatorOptions opts = FastIam();
  opts.epochs = 1;
  ArDensityEstimator iam(Twi(), opts);
  iam.Train();
  const std::string path =
      (std::filesystem::temp_directory_path() / "iam_model_trunc.bin")
          .string();
  ASSERT_TRUE(iam.Save(path).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  const auto loaded = ArDensityEstimator::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(IamModelTest, NamesFollowPresets) {
  ArDensityEstimator iam(Twi(), FastIam());
  ArDensityEstimator nc(Twi(), FastNeurocard());
  EXPECT_EQ(iam.name(), "iam");
  EXPECT_EQ(nc.name(), "neurocard");
}

// The biased (vanilla) sampler must still run and produce probabilities, and
// on a range that clips components asymmetrically it should deviate from the
// exhaustive enumeration more than the unbiased sampler does.
TEST(IamModelTest, BiasedSamplerAblation) {
  ArEstimatorOptions unbiased_opts = FastIam();
  unbiased_opts.progressive_samples = 2048;
  ArEstimatorOptions biased_opts = unbiased_opts;
  biased_opts.biased_sampling = true;

  ArDensityEstimator unbiased(Twi(), unbiased_opts);
  unbiased.Train();
  ArDensityEstimator biased(Twi(), biased_opts);
  biased.Train();

  query::Query q{{{.column = 0, .lo = 30.0, .hi = 38.0},
                  {.column = 1, .lo = -100.0, .hi = -70.0}}};
  const double truth = query::TrueSelectivity(Twi(), q);
  const double floor = 1.0 / Twi().num_rows();
  const double u = query::QError(truth, unbiased.Estimate(q), Twi().num_rows());
  const double b = query::QError(truth, biased.Estimate(q), Twi().num_rows());
  EXPECT_GE(unbiased.Estimate(q), 0.0);
  EXPECT_LE(biased.Estimate(q), 1.0);
  // Not a strict inequality theorem per query, but the unbiased sampler
  // should not be dramatically worse than the biased one.
  EXPECT_LT(u, std::max(4.0, 3.0 * b)) << "unbiased " << u << " biased " << b
                                       << " floor " << floor;
}

TEST(IamModelTest, PointPredicateOnCategoricalColumn) {
  ArDensityEstimator iam(Wisdm(), FastIam());
  iam.Train();
  query::Query q{{{.column = 0, .lo = 0.0, .hi = 0.0}}};
  const double truth = query::TrueSelectivity(Wisdm(), q);
  const double est = iam.Estimate(q);
  // Tiny test model (2x48 hidden, 6 epochs) — just require the right order
  // of magnitude; the accuracy benches exercise the full configuration.
  EXPECT_LT(query::QError(truth, est, Wisdm().num_rows()), 10.0);
}

// The progressive sampler's inner draw. The -1 flag and the clamp-to-last-
// positive behavior are load-bearing: both call sites kill a sample row on
// -1, and an out-of-range return would index past the conditional's domain.
TEST(SamplingUtilsTest, SampleInRangeFlagsZeroMassRange) {
  using sampling::RangeSum;
  using sampling::SampleInRange;

  const float zeros[5] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_EQ(RangeSum(zeros, 0, 4), 0.0);
  // All-zero range: flagged, for any u, even with a (stale) positive sum.
  EXPECT_EQ(SampleInRange(zeros, 0, 4, 0.0, 0.5), -1);
  EXPECT_EQ(SampleInRange(zeros, 0, 4, 1.0, 0.0), -1);
  EXPECT_EQ(SampleInRange(zeros, 1, 3, 0.0, 0.999), -1);

  // Negative or zero sum is flagged before any scan.
  const float some[3] = {0.5f, 0.25f, 0.25f};
  EXPECT_EQ(SampleInRange(some, 0, 2, -1.0, 0.5), -1);
  EXPECT_EQ(SampleInRange(some, 0, 2, 0.0, 0.5), -1);
}

TEST(SamplingUtilsTest, SampleInRangeSkipsZeroEntriesAndClamps) {
  using sampling::RangeSum;
  using sampling::SampleInRange;

  // Zero entries are never returned, whatever u targets.
  const float gaps[6] = {0.0f, 0.3f, 0.0f, 0.0f, 0.7f, 0.0f};
  const double sum = RangeSum(gaps, 0, 5);
  EXPECT_DOUBLE_EQ(sum, 0.3f + static_cast<double>(0.7f));
  for (double u : {0.0, 0.1, 0.29, 0.31, 0.6, 0.999}) {
    const int j = SampleInRange(gaps, 0, 5, sum, u);
    EXPECT_TRUE(j == 1 || j == 4) << "u=" << u << " returned " << j;
  }
  // u below the first positive mass picks it; u past it picks the second.
  EXPECT_EQ(SampleInRange(gaps, 0, 5, sum, 0.0), 1);
  EXPECT_EQ(SampleInRange(gaps, 0, 5, sum, 0.999), 4);

  // Rounding overshoot: a sum slightly above the true mass makes the target
  // unreachable; the draw must clamp to the last positive index, not -1.
  EXPECT_EQ(SampleInRange(gaps, 0, 5, sum * 1.01, 0.9999), 4);
  // And a sub-range excluding the tail clamps within the range.
  EXPECT_EQ(SampleInRange(gaps, 0, 3, RangeSum(gaps, 0, 3) * 1.01, 0.9999),
            1);
}

}  // namespace
}  // namespace iam::core
