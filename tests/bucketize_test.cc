#include <cmath>
#include <limits>
#include <memory>
#include <utility>
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
      return std::make_unique<GmmReducer>(std::move(g));
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

// Each mixture family's range mass is the per-component CDF difference,
// including at infinite bounds, on a range no component reaches, and on
// inverted bounds.
template <class Family>
void ExpectRangeMassIsCdfDifference() {
  gmm::Mixture1D<Family> mixture(3);
  mixture.SetComponent(0, 0.0, -3.0, 1.0);
  mixture.SetComponent(1, 0.5, 0.0, 0.5);
  mixture.SetComponent(2, -0.5, 10.0, 2.0);
  const MixtureReducer<Family> reducer(mixture);
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : {std::pair{-1.0, 2.0}, std::pair{-3.0, 0.0},
                               std::pair{-inf, 0.5}, std::pair{1.0, inf}}) {
    const std::vector<double> mass = reducer.RangeMass(lo, hi);
    ASSERT_EQ(mass.size(), 3u);
    for (int k = 0; k < 3; ++k) {
      EXPECT_DOUBLE_EQ(mass[k], mixture.ComponentIntervalMass(k, lo, hi))
          << Family::kName << " [" << lo << ", " << hi << "] component " << k;
    }
  }
  for (const double m : reducer.RangeMass(-inf, inf)) {
    EXPECT_DOUBLE_EQ(m, 1.0) << Family::kName;
  }
  const std::vector<double> far = reducer.RangeMass(1e3, 2e3);
  EXPECT_DOUBLE_EQ(far[0], 0.0) << Family::kName;
  EXPECT_LT(far[2], 1e-12) << Family::kName;
  for (const double m : reducer.RangeMass(1.0, -1.0)) {
    EXPECT_DOUBLE_EQ(m, 0.0) << Family::kName;
  }
}

// The reducer's range mass is the erf-based normal CDF difference, the one
// the old exact mode computed and now the only mode.
TEST(GmmReducerTest, ExactModeMatchesErf) {
  gmm::Gmm1D g(2);
  g.SetComponent(0, 0.0, -2.0, 1.0);
  g.SetComponent(1, 0.0, 3.0, 0.5);
  const GmmReducer reducer(std::move(g));
  const auto mass = reducer.RangeMass(-3.0, 0.0);
  const auto erf_mass = [](double x, double mu, double sigma) {
    return 0.5 * std::erfc(-(x - mu) / (sigma * std::sqrt(2.0)));
  };
  EXPECT_NEAR(mass[0], erf_mass(0.0, -2.0, 1.0) - erf_mass(-3.0, -2.0, 1.0),
              1e-12);
  EXPECT_NEAR(mass[1], erf_mass(0.0, 3.0, 0.5) - erf_mass(-3.0, 3.0, 0.5),
              1e-12);
}

TEST(GmmReducerTest, RangeMassIsCdfDifference) {
  ExpectRangeMassIsCdfDifference<gmm::Gaussian>();
  ExpectRangeMassIsCdfDifference<gmm::Laplace>();
}

// Range masses read the mixture's current parameters, so they follow
// training through mutable_mixture() with no refresh step.
TEST(GmmReducerTest, RangeMassFollowsMutableMixture) {
  gmm::Gmm1D g(1);
  g.SetComponent(0, 0.0, 0.0, 1.0);
  GmmReducer reducer(std::move(g));
  EXPECT_NEAR(reducer.RangeMass(-1.0, 1.0)[0], 0.682689, 1e-6);
  reducer.mutable_mixture().SetComponent(0, 0.0, 100.0, 1.0);
  EXPECT_LT(reducer.RangeMass(-1.0, 1.0)[0], 1e-12);
  EXPECT_NEAR(reducer.RangeMass(99.0, 101.0)[0], 0.682689, 1e-6);
}

}  // namespace
}  // namespace iam::bucketize
