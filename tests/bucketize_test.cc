#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bucketize/domain_reducer.h"
#include "bucketize/mixture_reducer.h"
#include "util/random.h"

namespace iam::bucketize {
namespace {

std::vector<double> SkewedData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = std::exp(rng.Gaussian(0.0, 1.2));
  return xs;
}

// Shared invariants for every reducer kind, run as a parameterized suite.
enum class Kind { kEquiDepth, kSpline, kUmm, kGmm, kLaplace };

std::unique_ptr<DomainReducer> MakeReducer(Kind kind,
                                           std::span<const double> data,
                                           int buckets) {
  Rng rng(99);
  switch (kind) {
    case Kind::kEquiDepth:
      return MakeEquiDepthReducer(data, buckets);
    case Kind::kSpline:
      return MakeSplineReducer(data, buckets);
    case Kind::kUmm:
      return MakeUmmReducer(data, buckets, rng);
    case Kind::kGmm: {
      gmm::Gmm1D g(buckets);
      g.InitFromData(data, rng);
      for (int it = 0; it < 20; ++it) g.EmStep(data);
      return std::make_unique<GmmReducer>(std::move(g), 5000, /*exact=*/false,
                                          123);
    }
    case Kind::kLaplace: {
      gmm::LaplaceMixture1D mix(buckets);
      mix.InitFromData(data, rng);
      for (int epoch = 0; epoch < 5; ++epoch) {
        for (size_t begin = 0; begin < data.size(); begin += 256) {
          const size_t end = std::min(data.size(), begin + 256);
          mix.SgdStep(data.subspan(begin, end - begin));
        }
      }
      return std::make_unique<LaplaceReducer>(std::move(mix));
    }
  }
  return nullptr;
}

class ReducerInvariantTest : public ::testing::TestWithParam<Kind> {};

TEST_P(ReducerInvariantTest, AssignInBucketRange) {
  const auto data = SkewedData(5000, 1);
  const auto reducer = MakeReducer(GetParam(), data, 16);
  ASSERT_NE(reducer, nullptr);
  EXPECT_GE(reducer->num_buckets(), 1);
  EXPECT_LE(reducer->num_buckets(), 16);
  for (size_t i = 0; i < data.size(); i += 37) {
    const int b = reducer->Assign(data[i]);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, reducer->num_buckets());
  }
}

TEST_P(ReducerInvariantTest, RangeMassBoundsAndMonotonicity) {
  const auto data = SkewedData(5000, 2);
  const auto reducer = MakeReducer(GetParam(), data, 16);
  const auto narrow = reducer->RangeMass(1.0, 2.0);
  const auto wide = reducer->RangeMass(0.5, 4.0);
  ASSERT_EQ(static_cast<int>(narrow.size()), reducer->num_buckets());
  for (int k = 0; k < reducer->num_buckets(); ++k) {
    EXPECT_GE(narrow[k], 0.0);
    EXPECT_LE(narrow[k], 1.0);
    // Nesting: [1,2] ⊂ [0.5,4], so per-bucket mass cannot shrink. Allow
    // Monte-Carlo slack for the GMM reducer.
    EXPECT_LE(narrow[k], wide[k] + 0.02);
  }
}

TEST_P(ReducerInvariantTest, FullRangeHasFullMassWhereDataLives) {
  const auto data = SkewedData(5000, 3);
  const auto reducer = MakeReducer(GetParam(), data, 8);
  const double inf = std::numeric_limits<double>::infinity();
  const auto mass = reducer->RangeMass(-inf, inf);
  for (int k = 0; k < reducer->num_buckets(); ++k) {
    EXPECT_NEAR(mass[k], 1.0, 1e-9);
  }
}

TEST_P(ReducerInvariantTest, EmptyRangeHasZeroMass) {
  const auto data = SkewedData(5000, 4);
  const auto reducer = MakeReducer(GetParam(), data, 8);
  const auto mass = reducer->RangeMass(3.0, 2.0);  // inverted
  for (double m : mass) EXPECT_DOUBLE_EQ(m, 0.0);
}

TEST_P(ReducerInvariantTest, SizeBytesPositive) {
  const auto data = SkewedData(1000, 5);
  const auto reducer = MakeReducer(GetParam(), data, 8);
  EXPECT_GT(reducer->SizeBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllReducers, ReducerInvariantTest,
                         ::testing::Values(Kind::kEquiDepth, Kind::kSpline,
                                           Kind::kUmm, Kind::kGmm,
                                           Kind::kLaplace),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kEquiDepth: return "EquiDepth";
                             case Kind::kSpline: return "Spline";
                             case Kind::kUmm: return "Umm";
                             case Kind::kGmm: return "Gmm";
                             case Kind::kLaplace: return "Laplace";
                           }
                           return "Unknown";
                         });

// Representative values must land inside (or at the boundary of) the queried
// interval whenever the bucket intersects it.
TEST_P(ReducerInvariantTest, RepresentativeValueInsideInterval) {
  const auto data = SkewedData(4000, 11);
  const auto reducer = MakeReducer(GetParam(), data, 8);
  const double lo = 0.8, hi = 2.5;
  const auto mass = reducer->RangeMass(lo, hi);
  for (int k = 0; k < reducer->num_buckets(); ++k) {
    if (mass[k] <= 1e-6) continue;
    const double rep = reducer->RepresentativeValue(k, lo, hi);
    EXPECT_GE(rep, lo - 1e-9) << "bucket " << k;
    EXPECT_LE(rep, hi + 1e-9) << "bucket " << k;
  }
}

TEST(EquiDepthTest, BucketsHoldEqualShares) {
  std::vector<double> data(10000);
  Rng rng(6);
  for (double& x : data) x = rng.Uniform();
  const auto reducer = MakeEquiDepthReducer(data, 10);
  ASSERT_EQ(reducer->num_buckets(), 10);
  // Count assignments per bucket.
  std::vector<int> counts(10, 0);
  for (double x : data) ++counts[reducer->Assign(x)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(EquiDepthTest, HeavyHitterCollapsesGracefully) {
  // 90% of the data is the single value 5.0.
  std::vector<double> data;
  Rng rng(7);
  for (int i = 0; i < 9000; ++i) data.push_back(5.0);
  for (int i = 0; i < 1000; ++i) data.push_back(rng.Uniform(0.0, 10.0));
  const auto reducer = MakeEquiDepthReducer(data, 10);
  EXPECT_GE(reducer->num_buckets(), 1);
  const int b = reducer->Assign(5.0);
  EXPECT_GE(b, 0);
}

TEST(SplineTest, PlacesMoreKnotsWhereCdfBends) {
  // Data with a sharp mode at 0 and a long flat tail: a spline reducer
  // should isolate the mode into narrow buckets. We verify that the mass of
  // the mode's neighborhood is spread over at least 2 buckets.
  std::vector<double> data;
  Rng rng(8);
  for (int i = 0; i < 9000; ++i) data.push_back(rng.Gaussian(0.0, 0.05));
  for (int i = 0; i < 1000; ++i) data.push_back(rng.Uniform(1.0, 100.0));
  const auto reducer = MakeSplineReducer(data, 12);
  const auto mass = reducer->RangeMass(-0.2, 0.2);
  int covering = 0;
  for (double m : mass) covering += m > 0.0 ? 1 : 0;
  EXPECT_GE(covering, 2);
}

TEST(UmmTest, ClustersSeparatedModes) {
  std::vector<double> data;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) data.push_back(rng.Gaussian(-10.0, 0.3));
  for (int i = 0; i < 5000; ++i) data.push_back(rng.Gaussian(10.0, 0.3));
  Rng umm_rng(10);
  const auto reducer = MakeUmmReducer(data, 4, umm_rng);
  // The two modes must land in different buckets.
  EXPECT_NE(reducer->Assign(-10.0), reducer->Assign(10.0));
  // A range covering only the left mode has (near) zero mass on the right
  // mode's bucket.
  const auto mass = reducer->RangeMass(-11.0, -9.0);
  EXPECT_NEAR(mass[reducer->Assign(10.0)], 0.0, 1e-9);
  EXPECT_GT(mass[reducer->Assign(-10.0)], 0.5);
}

TEST(GmmReducerTest, ExactModeMatchesErf) {
  gmm::Gmm1D g(2);
  g.SetComponent(0, 0.0, -2.0, 1.0);
  g.SetComponent(1, 0.0, 3.0, 0.5);
  GmmReducer exact(std::move(g), 10, /*exact=*/true, 1);
  const auto mass = exact.RangeMass(-3.0, 0.0);
  EXPECT_NEAR(mass[0],
              gmm::ExactRangeMass(exact.mixture(), -3.0, 0.0)[0], 1e-12);
}

TEST(GmmReducerTest, RefreshSamplesTracksUpdatedGmm) {
  gmm::Gmm1D g(1);
  g.SetComponent(0, 0.0, 0.0, 1.0);
  GmmReducer reducer(std::move(g), 20000, /*exact=*/false, 2);
  EXPECT_NEAR(reducer.RangeMass(-1.0, 1.0)[0], 0.6827, 0.02);
  // Move the component and refresh; the mass must follow.
  reducer.mutable_mixture().SetComponent(0, 0.0, 100.0, 1.0);
  reducer.RefreshSamples(3);
  EXPECT_NEAR(reducer.RangeMass(-1.0, 1.0)[0], 0.0, 0.01);
  EXPECT_NEAR(reducer.RangeMass(99.0, 101.0)[0], 0.6827, 0.02);
}

}  // namespace
}  // namespace iam::bucketize
