#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "gmm/gmm1d.h"
#include "gmm/vbgm.h"
#include "util/math_util.h"
#include "util/random.h"

namespace iam::gmm {
namespace {

// Two well separated modes.
std::vector<double> TwoModeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    x = rng.Uniform() < 0.3 ? rng.Gaussian(-5.0, 0.5) : rng.Gaussian(4.0, 1.0);
  }
  return xs;
}

TEST(Gmm1DTest, EmRecoversTwoModes) {
  const auto data = TwoModeData(20000, 1);
  Rng rng(2);
  Gmm1D gmm(2);
  gmm.InitFromData(data, rng);
  for (int it = 0; it < 50; ++it) gmm.EmStep(data);

  std::vector<std::pair<double, double>> comps;  // (mean, weight)
  for (int k = 0; k < 2; ++k) comps.emplace_back(gmm.location(k), gmm.weight(k));
  std::sort(comps.begin(), comps.end());
  EXPECT_NEAR(comps[0].first, -5.0, 0.2);
  EXPECT_NEAR(comps[1].first, 4.0, 0.2);
  EXPECT_NEAR(comps[0].second, 0.3, 0.05);
  EXPECT_NEAR(comps[1].second, 0.7, 0.05);
}

TEST(Gmm1DTest, SgdReducesNll) {
  const auto data = TwoModeData(8000, 3);
  Rng rng(4);
  Gmm1D gmm(2);
  gmm.InitFromData(data, rng);
  const double before = gmm.MeanNegLogLikelihood(data);
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (size_t begin = 0; begin < data.size(); begin += 256) {
      const size_t end = std::min(data.size(), begin + 256);
      gmm.SgdStep({data.data() + begin, end - begin});
    }
  }
  const double after = gmm.MeanNegLogLikelihood(data);
  EXPECT_LT(after, before);
}

TEST(Gmm1DTest, SgdApproachesEmQuality) {
  const auto data = TwoModeData(20000, 5);
  Rng rng(6);
  Gmm1D em_gmm(2);
  em_gmm.InitFromData(data, rng);
  for (int it = 0; it < 60; ++it) em_gmm.EmStep(data);
  const double em_nll = em_gmm.MeanNegLogLikelihood(data);

  Rng rng2(6);
  Gmm1D sgd_gmm(2);
  sgd_gmm.InitFromData(data, rng2);
  for (int epoch = 0; epoch < 40; ++epoch) {
    for (size_t begin = 0; begin < data.size(); begin += 256) {
      const size_t end = std::min(data.size(), begin + 256);
      sgd_gmm.SgdStep({data.data() + begin, end - begin});
    }
  }
  EXPECT_NEAR(sgd_gmm.MeanNegLogLikelihood(data), em_nll, 0.15);
}

TEST(Gmm1DTest, AssignPicksNearestMode) {
  Gmm1D gmm(2);
  gmm.SetComponent(0, std::log(0.5), -5.0, 1.0);
  gmm.SetComponent(1, std::log(0.5), 5.0, 1.0);
  EXPECT_EQ(gmm.Assign(-4.0), 0);
  EXPECT_EQ(gmm.Assign(6.0), 1);
}

TEST(Gmm1DTest, AssignRespectsWeights) {
  // At the midpoint, the heavier component wins.
  Gmm1D gmm(2);
  gmm.SetComponent(0, std::log(0.99), -1.0, 1.0);
  gmm.SetComponent(1, std::log(0.01), 1.0, 1.0);
  EXPECT_EQ(gmm.Assign(0.0), 0);
}

TEST(Gmm1DTest, ResponsibilitiesSumToOne) {
  Gmm1D gmm(3);
  gmm.SetComponent(0, 0.0, -1.0, 0.5);
  gmm.SetComponent(1, 0.3, 0.0, 1.0);
  gmm.SetComponent(2, -0.2, 2.0, 2.0);
  const auto r = gmm.Responsibilities(0.7);
  EXPECT_NEAR(r[0] + r[1] + r[2], 1.0, 1e-12);
  for (double v : r) EXPECT_GE(v, 0.0);
}

TEST(Gmm1DTest, ComponentIntervalMassMatchesCdf) {
  Gmm1D gmm(1);
  gmm.SetComponent(0, 0.0, 2.0, 3.0);
  EXPECT_NEAR(gmm.ComponentIntervalMass(0, -1.0, 5.0),
              NormalCdf(5.0, 2.0, 3.0) - NormalCdf(-1.0, 2.0, 3.0), 1e-12);
  EXPECT_EQ(gmm.ComponentIntervalMass(0, 3.0, 1.0), 0.0);
}

// These bound cases were first written against the Monte-Carlo sample index,
// which ExactRangeMass replaced; the suite keeps that index's name.
TEST(ComponentSampleIndexTest, InfiniteBoundsCoverEverything) {
  Gmm1D gmm(2);
  gmm.SetComponent(0, 0.0, 0.0, 1.0);
  gmm.SetComponent(1, 0.0, 10.0, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  const auto mass = ExactRangeMass(gmm, -inf, inf);
  EXPECT_DOUBLE_EQ(mass[0], 1.0);
  EXPECT_DOUBLE_EQ(mass[1], 1.0);
  const auto none = ExactRangeMass(gmm, 100.0, 200.0);
  EXPECT_DOUBLE_EQ(none[0], 0.0);
}

TEST(ComponentSampleIndexTest, EmptyRangeWhenBoundsInverted) {
  Gmm1D gmm(1);
  gmm.SetComponent(0, 0.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(ExactRangeMass(gmm, 1.0, -1.0)[0], 0.0);
}

TEST(VbgmTest, SelectsApproximatelyTwoComponents) {
  const auto data = TwoModeData(10000, 10);
  VbgmOptions options;
  options.max_components = 20;
  Rng rng(11);
  const VbgmResult result = FitVbgm(data, options, rng);
  EXPECT_GE(result.selected_k, 2);
  EXPECT_LE(result.selected_k, 6);

  // Both modes should be represented among the surviving means.
  bool has_low = false, has_high = false;
  for (int k = 0; k < result.gmm.num_components(); ++k) {
    if (std::abs(result.gmm.location(k) + 5.0) < 1.0) has_low = true;
    if (std::abs(result.gmm.location(k) - 4.0) < 1.5) has_high = true;
  }
  EXPECT_TRUE(has_low);
  EXPECT_TRUE(has_high);
}

TEST(VbgmTest, SingleModeCollapsesToFewComponents) {
  Rng data_rng(12);
  std::vector<double> data(8000);
  for (double& x : data) x = data_rng.Gaussian(1.0, 2.0);
  VbgmOptions options;
  options.max_components = 15;
  Rng rng(13);
  const VbgmResult result = FitVbgm(data, options, rng);
  EXPECT_LE(result.selected_k, 5);
}

TEST(Gmm1DTest, SampleFollowsMixture) {
  Gmm1D gmm(2);
  gmm.SetComponent(0, std::log(0.25), -10.0, 0.5);
  gmm.SetComponent(1, std::log(0.75), 10.0, 0.5);
  Rng rng(14);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (gmm.Sample(rng) < 0.0) ++low;
  }
  EXPECT_NEAR(low / double(n), 0.25, 0.02);
}

TEST(Gmm1DTest, TruncatedMeanProperties) {
  Gmm1D gmm(1);
  gmm.SetComponent(0, 0.0, 2.0, 1.5);
  // Symmetric interval around the mean: truncated mean = mean.
  EXPECT_NEAR(gmm.ComponentTruncatedMean(0, 0.0, 4.0), 2.0, 1e-9);
  // One-sided interval pulls the mean inside it.
  const double right = gmm.ComponentTruncatedMean(
      0, 3.0, std::numeric_limits<double>::infinity());
  EXPECT_GT(right, 3.0);
  // Full line: unconditional mean.
  EXPECT_NEAR(gmm.ComponentTruncatedMean(
                  0, -std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::infinity()),
              2.0, 1e-9);
  // Far-away interval with ~zero mass: clamped mean (no NaN).
  const double far = gmm.ComponentTruncatedMean(0, 100.0, 101.0);
  EXPECT_GE(far, 100.0);
  EXPECT_LE(far, 101.0);
}

TEST(Gmm1DTest, TruncatedMeanMatchesMonteCarlo) {
  Gmm1D gmm(1);
  gmm.SetComponent(0, 0.0, -1.0, 2.0);
  Rng rng(40);
  double sum = 0.0;
  size_t count = 0;
  for (int i = 0; i < 200000; ++i) {
    const double x = gmm.SampleComponent(0, rng);
    if (x >= 0.0 && x <= 3.0) {
      sum += x;
      ++count;
    }
  }
  ASSERT_GT(count, 1000u);
  EXPECT_NEAR(gmm.ComponentTruncatedMean(0, 0.0, 3.0),
              sum / static_cast<double>(count), 0.02);
}

TEST(Gmm1DTest, SizeBytesCountsThreeDoublesPerComponent) {
  Gmm1D gmm(30);
  EXPECT_EQ(gmm.SizeBytes(), 30u * 3u * sizeof(double));
}

// Property sweep over component counts: EM monotonically improves the NLL,
// assignments are valid, and the per-component masses integrate correctly.
class GmmComponentSweep : public ::testing::TestWithParam<int> {};

TEST_P(GmmComponentSweep, EmImprovesNllMonotonically) {
  const int k = GetParam();
  const auto data = TwoModeData(6000, 100 + k);
  Rng rng(200 + k);
  Gmm1D gmm(k);
  gmm.InitFromData(data, rng);
  double prev = gmm.MeanNegLogLikelihood(data);
  for (int it = 0; it < 10; ++it) {
    gmm.EmStep(data);
    const double now = gmm.MeanNegLogLikelihood(data);
    EXPECT_LE(now, prev + 1e-6) << "EM step " << it << " (k=" << k << ")";
    prev = now;
  }
}

TEST_P(GmmComponentSweep, AssignmentsPartitionTheData) {
  const int k = GetParam();
  const auto data = TwoModeData(3000, 300 + k);
  Rng rng(400 + k);
  Gmm1D gmm(k);
  gmm.InitFromData(data, rng);
  for (int it = 0; it < 10; ++it) gmm.EmStep(data);
  std::vector<int> counts(k, 0);
  for (double x : data) {
    const int a = gmm.Assign(x);
    ASSERT_GE(a, 0);
    ASSERT_LT(a, k);
    ++counts[a];
  }
  int nonempty = 0;
  for (int c : counts) nonempty += c > 0 ? 1 : 0;
  EXPECT_GE(nonempty, std::min(k, 2));
}

TEST_P(GmmComponentSweep, RangeMassesAreAdditive) {
  const int k = GetParam();
  const auto data = TwoModeData(3000, 500 + k);
  Rng rng(600 + k);
  Gmm1D gmm(k);
  gmm.InitFromData(data, rng);
  for (int it = 0; it < 5; ++it) gmm.EmStep(data);
  // Mass of [a,b] + mass of [b,c] == mass of [a,c] per component (exact CDF).
  const auto left = ExactRangeMass(gmm, -10.0, 0.0);
  const auto right = ExactRangeMass(gmm, 0.0, 10.0);
  const auto both = ExactRangeMass(gmm, -10.0, 10.0);
  for (int j = 0; j < k; ++j) {
    EXPECT_NEAR(left[j] + right[j], both[j], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(ComponentCounts, GmmComponentSweep,
                         ::testing::Values(1, 2, 5, 10, 30));

}  // namespace
}  // namespace iam::gmm
