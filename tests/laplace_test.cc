#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "bucketize/mixture_reducer.h"
#include "core/ar_density_estimator.h"
#include "core/presets.h"
#include "data/synthetic.h"
#include "gmm/gmm1d.h"
#include "query/query.h"
#include "util/random.h"

namespace iam {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> TwoModeLaplaceData(size_t n, uint64_t seed) {
  Rng rng(seed);
  gmm::LaplaceMixture1D truth(2);
  truth.SetComponent(0, std::log(0.4), -6.0, 0.7);
  truth.SetComponent(1, std::log(0.6), 5.0, 1.2);
  std::vector<double> xs(n);
  for (double& x : xs) {
    const int k = rng.Uniform() < 0.4 ? 0 : 1;
    x = truth.SampleComponent(k, rng);
  }
  return xs;
}

TEST(LaplaceMixtureTest, SgdRecoversModes) {
  const auto data = TwoModeLaplaceData(20000, 1);
  Rng rng(2);
  gmm::LaplaceMixture1D mix(2);
  mix.InitFromData(data, rng);
  const double before = mix.MeanNegLogLikelihood(data);
  for (int epoch = 0; epoch < 30; ++epoch) {
    for (size_t begin = 0; begin < data.size(); begin += 256) {
      const size_t end = std::min(data.size(), begin + 256);
      mix.SgdStep({data.data() + begin, end - begin});
    }
  }
  EXPECT_LT(mix.MeanNegLogLikelihood(data), before);
  // Locations near the true modes (in some order).
  const double lo = std::min(mix.location(0), mix.location(1));
  const double hi = std::max(mix.location(0), mix.location(1));
  EXPECT_NEAR(lo, -6.0, 1.0);
  EXPECT_NEAR(hi, 5.0, 1.0);
}

TEST(LaplaceMixtureTest, CdfMassProperties) {
  gmm::LaplaceMixture1D mix(1);
  mix.SetComponent(0, 0.0, 2.0, 1.0);
  EXPECT_NEAR(mix.ComponentIntervalMass(0, -kInf, kInf), 1.0, 1e-12);
  EXPECT_NEAR(mix.ComponentIntervalMass(0, -kInf, 2.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(mix.ComponentIntervalMass(0, 3.0, 1.0), 0.0);
  // Laplace(2, 1): P(|X-2| <= 1) = 1 - e^{-1}.
  EXPECT_NEAR(mix.ComponentIntervalMass(0, 1.0, 3.0), 1.0 - std::exp(-1.0),
              1e-12);
}

TEST(LaplaceMixtureTest, TruncatedMeanMatchesMonteCarlo) {
  gmm::LaplaceMixture1D mix(1);
  mix.SetComponent(0, 0.0, -1.0, 1.5);
  EXPECT_NEAR(mix.ComponentTruncatedMean(0, -kInf, kInf), -1.0, 1e-9);
  Rng rng(3);
  double sum = 0.0;
  size_t count = 0;
  for (int i = 0; i < 300000; ++i) {
    const double x = mix.SampleComponent(0, rng);
    if (x >= 0.0 && x <= 4.0) {
      sum += x;
      ++count;
    }
  }
  ASSERT_GT(count, 1000u);
  EXPECT_NEAR(mix.ComponentTruncatedMean(0, 0.0, 4.0),
              sum / static_cast<double>(count), 0.02);
}

TEST(LaplaceMixtureTest, AssignPicksNearestMode) {
  gmm::LaplaceMixture1D mix(2);
  mix.SetComponent(0, 0.0, -5.0, 1.0);
  mix.SetComponent(1, 0.0, 5.0, 1.0);
  EXPECT_EQ(mix.Assign(-4.0), 0);
  EXPECT_EQ(mix.Assign(4.0), 1);
}

TEST(LaplaceReducerTest, ReducerContract) {
  const auto data = TwoModeLaplaceData(5000, 4);
  gmm::LaplaceMixture1D mix(4);
  Rng rng(5);
  mix.InitFromData(data, rng);
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (size_t begin = 0; begin < data.size(); begin += 256) {
      const size_t end = std::min(data.size(), begin + 256);
      mix.SgdStep({data.data() + begin, end - begin});
    }
  }
  bucketize::LaplaceReducer reducer(std::move(mix));
  EXPECT_TRUE(reducer.trainable());
  EXPECT_EQ(reducer.num_buckets(), 4);
  const auto full = reducer.RangeMass(-kInf, kInf);
  for (double m : full) EXPECT_NEAR(m, 1.0, 1e-12);
  for (size_t i = 0; i < data.size(); i += 97) {
    const int b = reducer.Assign(data[i]);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 4);
  }
}

TEST(LaplaceReducerTest, IamWithLaplaceMixtureWorksEndToEnd) {
  const data::Table twi = data::MakeSynTwi(8000, 6);
  core::ArEstimatorOptions opts = core::IamDefaults(8);
  opts.reducer_kind = core::ReducerKind::kLaplace;
  opts.made.hidden_sizes = {48, 48};
  opts.epochs = 6;
  opts.progressive_samples = 128;
  opts.large_domain_threshold = 200;
  core::ArDensityEstimator iam(twi, opts);
  iam.Train();
  query::Query q{{{.column = 0, .lo = 35.0, .hi = 45.0}}};
  const double truth = query::TrueSelectivity(twi, q);
  EXPECT_LT(query::QError(truth, iam.Estimate(q), twi.num_rows()), 3.0);
}

TEST(LaplaceReducerTest, SerializationRoundTrip) {
  gmm::LaplaceMixture1D mix(3);
  mix.SetComponent(0, std::log(0.2), -1.0, 0.5);
  mix.SetComponent(1, std::log(0.3), 0.0, 1.0);
  mix.SetComponent(2, std::log(0.5), 4.0, 2.0);
  bucketize::LaplaceReducer reducer(std::move(mix));

  std::stringstream stream;
  reducer.Serialize(stream);
  auto loaded = bucketize::DomainReducer::Deserialize(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_buckets(), 3);
  for (double x : {-1.5, 0.2, 3.0, 10.0}) {
    EXPECT_EQ((*loaded)->Assign(x), reducer.Assign(x)) << x;
  }
  const auto a = reducer.RangeMass(-1.0, 3.0);
  const auto b = (*loaded)->RangeMass(-1.0, 3.0);
  for (size_t k = 0; k < a.size(); ++k) EXPECT_NEAR(a[k], b[k], 1e-12);
}

}  // namespace
}  // namespace iam
