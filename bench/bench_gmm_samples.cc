// Technical-report ablations: (a) the impact of the per-component
// Monte-Carlo sample count S on the range masses \hat P_GMM(R), measured
// against the normal CDF the library uses (the S -> infinity limit); (b) the
// unbiased bias-corrected sampler against vanilla (biased) progressive
// sampling on reduced columns.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bucketize/mixture_reducer.h"
#include "gmm/gmm2d.h"
#include "util/stopwatch.h"

namespace iam::bench {
namespace {

// The paper's Monte-Carlo range mass (Section 5.2): S samples drawn once
// from each component and kept sorted, so component k's mass of [lo, hi] is
// the fraction S_k / S of its samples inside, found by two binary searches.
class SampledRangeMass {
 public:
  SampledRangeMass(const gmm::Gmm1D& gmm, int samples, Rng& rng)
      : sorted_(gmm.num_components()) {
    for (int k = 0; k < gmm.num_components(); ++k) {
      sorted_[k].resize(samples);
      for (double& x : sorted_[k]) x = gmm.SampleComponent(k, rng);
      std::sort(sorted_[k].begin(), sorted_[k].end());
    }
  }

  double Mass(int k, double lo, double hi) const {
    if (lo > hi) return 0.0;
    const std::vector<double>& s = sorted_[k];
    const auto first = std::lower_bound(s.begin(), s.end(), lo);
    const auto last = std::upper_bound(s.begin(), s.end(), hi);
    return static_cast<double>(last - first) / static_cast<double>(s.size());
  }

 private:
  std::vector<std::vector<double>> sorted_;
};

// Trains one IAM model, then for each S compares the Monte-Carlo mass of
// every (workload range, component) pair on the GMM-reduced columns with
// the CDF difference the model's reducer returns.
void SampleCountSweep(const std::string& dataset) {
  const data::Table table = MakeDataset(dataset);
  Rng rng(kDataSeed + 909);
  query::WorkloadOptions wopts;
  wopts.num_queries = 60;
  const std::vector<query::Query> queries =
      query::GenerateWorkload(table, wopts, rng);

  core::ArEstimatorOptions opts = BenchIamOptions();
  opts.epochs = 4;  // sweep budget
  opts.max_train_rows = 12000;
  core::ArDensityEstimator est(table, opts);
  est.Train();

  std::vector<std::pair<int, query::Predicate>> ranges;
  for (const query::Query& q : queries) {
    for (const query::Predicate& p : q.predicates) {
      if (est.IsReduced(p.column)) ranges.emplace_back(p.column, p);
    }
  }

  std::printf(
      "\n### Tech report: Monte-Carlo range mass with S samples per component "
      "vs the normal CDF on %s\n"
      "(%zu reduced-column ranges x %d components)\n"
      "%-10s %14s %14s %12s\n",
      dataset.c_str(), ranges.size(), opts.reducer_components, "S",
      "mean |MC-erf|", "max |MC-erf|", "build ms");
  for (const int samples : {10, 100, 1000, 10000}) {
    Rng sample_rng(kDataSeed + samples);
    double sum = 0.0, max = 0.0, build_ms = 0.0;
    size_t count = 0;
    for (int c = 0; c < table.num_columns(); ++c) {
      if (!est.IsReduced(c)) continue;
      const auto* reducer =
          dynamic_cast<const bucketize::GmmReducer*>(est.reducer(c));
      Stopwatch watch;
      const SampledRangeMass mc(reducer->mixture(), samples, sample_rng);
      build_ms += watch.ElapsedMillis();
      for (const auto& [col, p] : ranges) {
        if (col != c) continue;
        const std::vector<double> exact = reducer->RangeMass(p.lo, p.hi);
        for (size_t k = 0; k < exact.size(); ++k) {
          const double error =
              std::abs(mc.Mass(static_cast<int>(k), p.lo, p.hi) - exact[k]);
          sum += error;
          max = std::max(max, error);
          ++count;
        }
      }
    }
    std::printf("%-10d %14.3g %14.3g %12.2f\n", samples,
                count > 0 ? sum / static_cast<double>(count) : 0.0, max,
                build_ms);
    std::fflush(stdout);
  }
}

void BiasAblation(const std::string& dataset) {
  const data::Table table = MakeDataset(dataset);
  Rng rng(kDataSeed + 1001);
  query::WorkloadOptions wopts;
  wopts.num_queries = 60;
  const auto test = query::GenerateEvaluatedWorkload(table, wopts, rng);

  std::printf(
      "\n### Tech report: unbiased vs vanilla progressive sampling on %s\n"
      "%-10s %10s %10s %10s %10s %10s\n",
      dataset.c_str(), "sampler", "mean", "median", "95th", "99th", "max");
  for (const bool biased : {false, true}) {
    core::ArEstimatorOptions opts = BenchIamOptions();
    opts.epochs = 4;  // sweep budget
    opts.max_train_rows = 12000;
    opts.biased_sampling = biased;
    core::ArDensityEstimator est(table, opts);
    est.Train();
    const ErrorReport report = EvaluateErrors(est, test, table.num_rows());
    std::printf("%-10s %10.3g %10.3g %10.3g %10.3g %10.3g\n",
                biased ? "vanilla" : "unbiased", report.mean, report.median,
                report.p95, report.p99, report.max);
    std::fflush(stdout);
  }
}

// Section 4.2 design discussion: one GMM per attribute (paper's choice) vs
// one joint full-covariance GMM over both TWI attributes. Reports storage
// and the mean absolute error of rectangle masses against ground truth.
void JointVsPerAttribute() {
  const data::Table table = MakeDataset("twi");
  const auto& lat = table.column(0).values;
  const auto& lon = table.column(1).values;
  Rng rng(kDataSeed + 1404);

  gmm::Gmm2D joint(30);
  joint.InitFromData(lat, lon, rng);
  for (int it = 0; it < 25; ++it) joint.EmStep(lat, lon);

  gmm::Gmm1D per_lat(30), per_lon(30);
  per_lat.InitFromData(lat, rng);
  per_lon.InitFromData(lon, rng);
  for (int it = 0; it < 25; ++it) {
    per_lat.EmStep(lat);
    per_lon.EmStep(lon);
  }

  const auto [lat_lo, lat_hi] = table.ColumnRange(0);
  const auto [lon_lo, lon_hi] = table.ColumnRange(1);
  double joint_mae = 0.0, product_mae = 0.0;
  const int kRects = 40;
  for (int q = 0; q < kRects; ++q) {
    double a = rng.Uniform(lat_lo, lat_hi), b = rng.Uniform(lat_lo, lat_hi);
    double c = rng.Uniform(lon_lo, lon_hi), d = rng.Uniform(lon_lo, lon_hi);
    if (a > b) std::swap(a, b);
    if (c > d) std::swap(c, d);
    size_t hits = 0;
    for (size_t i = 0; i < lat.size(); ++i) {
      if (lat[i] >= a && lat[i] <= b && lon[i] >= c && lon[i] <= d) ++hits;
    }
    const double truth = static_cast<double>(hits) / lat.size();

    double joint_mass = 0.0;
    for (int k = 0; k < joint.num_components(); ++k) {
      joint_mass += joint.component(k).weight *
                    joint.RectangleMass(k, a, b, c, d, 2000, rng);
    }
    double plat = 0.0, plon = 0.0;
    for (int k = 0; k < 30; ++k) {
      plat += per_lat.weight(k) * per_lat.ComponentIntervalMass(k, a, b);
      plon += per_lon.weight(k) * per_lon.ComponentIntervalMass(k, c, d);
    }
    joint_mae += std::abs(joint_mass - truth);
    product_mae += std::abs(plat * plon - truth);
  }
  std::printf(
      "\n### Section 4.2 ablation: joint 2-D GMM vs per-attribute GMMs "
      "(TWI, 30 comps)\n"
      "%-22s %14s %16s\n"
      "%-22s %14zu %16.4f\n"
      "%-22s %14zu %16.4f\n"
      "(the per-attribute product alone ignores correlation; inside IAM the "
      "AR model supplies it)\n",
      "model", "bytes", "rect mass MAE", "joint 2-D GMM",
      joint.SizeBytes(), joint_mae / kRects, "2 x 1-D GMMs",
      per_lat.SizeBytes() + per_lon.SizeBytes(), product_mae / kRects);
}

}  // namespace
}  // namespace iam::bench

int main(int argc, char** argv) {
  const std::string only = argc > 1 ? argv[1] : "";
  if (only.empty() || only == "samples") iam::bench::SampleCountSweep("twi");
  if (only.empty() || only == "bias") iam::bench::BiasAblation("twi");
  if (only.empty() || only == "joint") iam::bench::JointVsPerAttribute();
  return 0;
}
