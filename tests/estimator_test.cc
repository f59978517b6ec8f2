#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "estimator/bayesnet.h"
#include "estimator/estimator.h"
#include "estimator/kde.h"
#include "estimator/mhist.h"
#include "estimator/mscn.h"
#include "estimator/postgres1d.h"
#include "estimator/sampling.h"
#include "estimator/spn.h"
#include "query/workload.h"
#include "util/quantiles.h"

namespace iam::estimator {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const data::Table& Wisdm() {
  static const data::Table* table =
      new data::Table(data::MakeSynWisdm(20000, 77));
  return *table;
}

std::unique_ptr<Estimator> MakeByName(const std::string& name) {
  const data::Table& t = Wisdm();
  if (name == "sampling") {
    return std::make_unique<SamplingEstimator>(t, 0.02, 1);
  }
  if (name == "postgres") {
    return std::make_unique<Postgres1DEstimator>(
        t, Postgres1DEstimator::Options{});
  }
  if (name == "mhist") {
    MhistEstimator::Options options;
    options.num_buckets = 300;
    return std::make_unique<MhistEstimator>(t, options);
  }
  if (name == "bayesnet") {
    return std::make_unique<BayesNetEstimator>(t,
                                               BayesNetEstimator::Options{});
  }
  if (name == "kde") {
    return std::make_unique<KdeEstimator>(t, KdeEstimator::Options{});
  }
  if (name == "deepdb") {
    return std::make_unique<SpnEstimator>(t, SpnEstimator::Options{});
  }
  return nullptr;
}

class BaselineContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineContractTest, UnconstrainedQueryNearOne) {
  auto est = MakeByName(GetParam());
  ASSERT_NE(est, nullptr);
  query::Query q{{{.column = 2, .lo = -kInf, .hi = kInf}}};
  EXPECT_GT(est->Estimate(q), 0.9);
}

TEST_P(BaselineContractTest, ImpossiblePredicateNearZero) {
  auto est = MakeByName(GetParam());
  query::Query q{{{.column = 2, .lo = 1e9, .hi = 2e9}}};
  EXPECT_LT(est->Estimate(q), 0.01);
}

TEST_P(BaselineContractTest, EstimatesAreProbabilities) {
  auto est = MakeByName(GetParam());
  Rng rng(5);
  query::WorkloadOptions options;
  options.num_queries = 30;
  const auto queries = query::GenerateWorkload(Wisdm(), options, rng);
  for (const auto& q : queries) {
    const double s = est->Estimate(q);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_P(BaselineContractTest, ReasonableMedianAccuracy) {
  auto est = MakeByName(GetParam());
  Rng rng(6);
  query::WorkloadOptions options;
  options.num_queries = 60;
  const auto w = query::GenerateEvaluatedWorkload(Wisdm(), options, rng);
  std::vector<double> errors;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    errors.push_back(query::QError(w.true_selectivities[i],
                                   est->Estimate(w.queries[i]),
                                   Wisdm().num_rows()));
  }
  const ErrorReport report = MakeErrorReport(errors);
  // Generous bound: every baseline should be within ~20x at the median on
  // this easy workload; the interesting separation shows up at the tail in
  // the benchmarks.
  EXPECT_LT(report.median, 20.0) << FormatErrorReport(report);
}

TEST_P(BaselineContractTest, PositiveModelSize) {
  auto est = MakeByName(GetParam());
  EXPECT_GT(est->SizeBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Baselines, BaselineContractTest,
                         ::testing::Values("sampling", "postgres", "mhist",
                                           "bayesnet", "kde", "deepdb"),
                         [](const auto& info) { return info.param; });

TEST(SamplingTest, FractionControlsSampleSize) {
  SamplingEstimator est(Wisdm(), 0.01, 2);
  EXPECT_NEAR(est.sample_rows(), 200u, 2u);
}

TEST(SamplingTest, ExactOnFullSample) {
  SamplingEstimator est(Wisdm(), 1.0, 3);
  query::Query q{{{.column = 0, .lo = 0.0, .hi = 0.0}}};
  EXPECT_DOUBLE_EQ(est.Estimate(q), query::TrueSelectivity(Wisdm(), q));
}

TEST(PostgresTest, IndependenceAssumptionUnderestimatesCorrelated) {
  // subject and x are strongly dependent in SynWisdm; a conjunctive query
  // hitting one subject's typical x-range shows the independence error.
  Postgres1DEstimator est(Wisdm(), Postgres1DEstimator::Options{});
  // Find subject 0's x range.
  double lo = kInf, hi = -kInf;
  for (size_t r = 0; r < Wisdm().num_rows(); ++r) {
    if (Wisdm().value(r, 0) == 0.0) {
      lo = std::min(lo, Wisdm().value(r, 2));
      hi = std::max(hi, Wisdm().value(r, 2));
    }
  }
  query::Query q{{{.column = 0, .lo = 0.0, .hi = 0.0},
                  {.column = 2, .lo = lo, .hi = hi}}};
  const double truth = query::TrueSelectivity(Wisdm(), q);
  const double estimate = est.Estimate(q);
  // The AVI estimate must multiply the two marginals.
  EXPECT_LT(estimate, truth * 1.5);
}

TEST(MhistTest, BuildsRequestedBuckets) {
  MhistEstimator::Options options;
  options.num_buckets = 64;
  MhistEstimator est(Wisdm(), options);
  EXPECT_LE(est.num_buckets(), 64);
  EXPECT_GE(est.num_buckets(), 32);
}

TEST(BayesNetTest, TreeStructureIsValid) {
  BayesNetEstimator est(Wisdm(), BayesNetEstimator::Options{});
  const auto& parents = est.parents();
  ASSERT_EQ(parents.size(), 5u);
  int roots = 0;
  for (size_t c = 0; c < parents.size(); ++c) {
    if (parents[c] < 0) {
      ++roots;
    } else {
      EXPECT_LT(parents[c], 5);
      EXPECT_NE(parents[c], static_cast<int>(c));
    }
  }
  EXPECT_EQ(roots, 1);
}

TEST(BayesNetTest, CapturesCorrelationBetterThanIndependence) {
  // Queries engineered to stress the subject→sensor correlation: a subject
  // equality conjoined with that subject's own x-range. AVI multiplies the
  // marginals and misses the dependence; the Chow-Liu tree should not.
  BayesNetEstimator bn(Wisdm(), BayesNetEstimator::Options{});
  Postgres1DEstimator pg(Wisdm(), Postgres1DEstimator::Options{});
  double bn_err = 0.0, pg_err = 0.0;
  int used = 0;
  for (double subject = 0.0; subject < 6.0 && used < 8; ++subject) {
    for (double activity = 0.0; activity < 3.0; ++activity) {
      // The (subject, activity) pair pins the sensor signature; its x
      // inter-quartile range is a thin slice of the global x distribution,
      // which is where the independence assumption breaks hardest.
      std::vector<double> xs;
      for (size_t r = 0; r < Wisdm().num_rows(); ++r) {
        if (Wisdm().value(r, 0) == subject &&
            Wisdm().value(r, 1) == activity) {
          xs.push_back(Wisdm().value(r, 2));
        }
      }
      if (xs.size() < 80) continue;
      std::sort(xs.begin(), xs.end());
      const double q25 = xs[xs.size() / 4];
      const double q75 = xs[3 * xs.size() / 4];
      query::Query q{{{.column = 0, .lo = subject, .hi = subject},
                      {.column = 1, .lo = activity, .hi = activity},
                      {.column = 2, .lo = q25, .hi = q75}}};
      const double truth = query::TrueSelectivity(Wisdm(), q);
      bn_err += query::QError(truth, bn.Estimate(q), Wisdm().num_rows());
      pg_err += query::QError(truth, pg.Estimate(q), Wisdm().num_rows());
      ++used;
    }
  }
  ASSERT_GE(used, 4);
  EXPECT_LT(bn_err, pg_err * 1.05);
}

TEST(KdeTest, BandwidthTuningDoesNotHurt) {
  KdeEstimator est(Wisdm(), KdeEstimator::Options{});
  Rng rng(10);
  query::WorkloadOptions options;
  options.num_queries = 40;
  const auto w = query::GenerateEvaluatedWorkload(Wisdm(), options, rng);
  auto total_error = [&] {
    double err = 0.0;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      err += query::QError(w.true_selectivities[i], est.Estimate(w.queries[i]),
                           Wisdm().num_rows());
    }
    return err;
  };
  const double before = total_error();
  est.TuneBandwidth(w.queries, w.true_selectivities, Wisdm().num_rows());
  EXPECT_LE(total_error(), before + 1e-9);
}

TEST(SpnTest, BuildsMixedNodeStructure) {
  SpnEstimator est(Wisdm(), SpnEstimator::Options{});
  // SynWisdm has strong correlations, so the learner must produce at least
  // one sum node (row clustering) and leaves for all 5 columns somewhere.
  EXPECT_GE(est.num_sum_nodes(), 1);
  EXPECT_GE(est.num_leaves(), 5);
  EXPECT_GE(est.num_product_nodes(), 1);
}

TEST(SpnTest, UnconstrainedAndImpossible) {
  SpnEstimator est(Wisdm(), SpnEstimator::Options{});
  query::Query all{{{.column = 2, .lo = -kInf, .hi = kInf}}};
  EXPECT_GT(est.Estimate(all), 0.95);
  query::Query none{{{.column = 2, .lo = 1e9, .hi = 2e9}}};
  EXPECT_LT(est.Estimate(none), 1e-6);
}

TEST(SpnTest, ReasonableAccuracyOnWorkload) {
  SpnEstimator est(Wisdm(), SpnEstimator::Options{});
  Rng rng(31);
  query::WorkloadOptions wopts;
  wopts.num_queries = 60;
  const auto w = query::GenerateEvaluatedWorkload(Wisdm(), wopts, rng);
  std::vector<double> errors;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    errors.push_back(query::QError(w.true_selectivities[i],
                                   est.Estimate(w.queries[i]),
                                   Wisdm().num_rows()));
  }
  const ErrorReport report = MakeErrorReport(errors);
  EXPECT_LT(report.median, 3.0) << FormatErrorReport(report);
}

TEST(SpnTest, IndependentColumnsCollapseToProductRoot) {
  // Two independent uniform columns: the learner should immediately split
  // columns (no sum nodes needed at the root for accuracy).
  Rng rng(32);
  data::Table t("ind");
  data::Column a{"a", data::ColumnType::kContinuous, {}};
  data::Column b{"b", data::ColumnType::kContinuous, {}};
  for (int i = 0; i < 8000; ++i) {
    a.values.push_back(rng.Uniform());
    b.values.push_back(rng.Uniform());
  }
  t.AddColumn(std::move(a));
  t.AddColumn(std::move(b));
  SpnEstimator est(t, SpnEstimator::Options{});
  EXPECT_EQ(est.num_sum_nodes(), 0);
  EXPECT_EQ(est.num_product_nodes(), 1);
  // Product of marginals is exact here.
  query::Query q{{{.column = 0, .lo = 0.0, .hi = 0.5},
                  {.column = 1, .lo = 0.0, .hi = 0.25}}};
  EXPECT_NEAR(est.Estimate(q), 0.125, 0.02);
}

TEST(MscnTest, LearnsWorkloadDistribution) {
  MscnEstimator::Options options;
  options.epochs = 40;
  MscnEstimator est(Wisdm(), options);
  Rng rng(21);
  query::WorkloadOptions wopts;
  wopts.num_queries = 600;
  const auto train = query::GenerateEvaluatedWorkload(Wisdm(), wopts, rng);
  est.Train(train.queries, train.true_selectivities);

  wopts.num_queries = 60;
  const auto test = query::GenerateEvaluatedWorkload(Wisdm(), wopts, rng);
  std::vector<double> errors;
  for (size_t i = 0; i < test.queries.size(); ++i) {
    errors.push_back(query::QError(test.true_selectivities[i],
                                   est.Estimate(test.queries[i]),
                                   Wisdm().num_rows()));
  }
  const ErrorReport report = MakeErrorReport(errors);
  EXPECT_LT(report.median, 4.0) << FormatErrorReport(report);
}

TEST(MscnTest, EstimatesAreProbabilities) {
  MscnEstimator::Options options;
  options.epochs = 5;
  MscnEstimator est(Wisdm(), options);
  Rng rng(22);
  query::WorkloadOptions wopts;
  wopts.num_queries = 100;
  const auto train = query::GenerateEvaluatedWorkload(Wisdm(), wopts, rng);
  est.Train(train.queries, train.true_selectivities);
  for (const auto& q : train.queries) {
    const double s = est.Estimate(q);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(MscnTest, BatchMatchesSingle) {
  MscnEstimator::Options options;
  options.epochs = 3;
  MscnEstimator est(Wisdm(), options);
  Rng rng(23);
  query::WorkloadOptions wopts;
  wopts.num_queries = 50;
  const auto train = query::GenerateEvaluatedWorkload(Wisdm(), wopts, rng);
  est.Train(train.queries, train.true_selectivities);
  const auto batch = est.EstimateBatch(train.queries);
  // The linear kernels dispatch on batch size; every path is
  // bit-compatible with the reference kernels (DESIGN.md §10).
  constexpr double kTol = 1e-9;
  for (size_t i = 0; i < train.queries.size(); ++i) {
    EXPECT_NEAR(batch[i], est.Estimate(train.queries[i]), kTol);
  }
}

TEST(DisjunctionTest, InclusionExclusion) {
  SamplingEstimator est(Wisdm(), 1.0, 4);  // full sample = exact
  query::Query a{{{.column = 0, .lo = 0.0, .hi = 0.0}}};
  query::Query b{{{.column = 0, .lo = 1.0, .hi = 1.0}}};
  const double expected = query::TrueSelectivity(Wisdm(), a) +
                          query::TrueSelectivity(Wisdm(), b);
  EXPECT_NEAR(EstimateDisjunction(est, a, b), expected, 1e-12);
}

}  // namespace
}  // namespace iam::estimator
