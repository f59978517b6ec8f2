// Tests for the pooled cross-query progressive sampler (DESIGN.md §14):
// bit-exactness of EstimateBatch and EstimateAggregate against a per-query
// reference sampler at a fixed budget (on both the IAM bias-corrected path
// and the NeuroCard factorized path), zero-mass fallback isolation inside a
// batch, adaptive early-stop determinism across thread counts, per-query
// diagnostics that batchmates cannot move, and serialization of concurrent
// callers.

#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ar/resmade.h"
#include "core/ar_density_estimator.h"
#include "core/presets.h"
#include "data/synthetic.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "util/math_util.h"
#include "util/random.h"

namespace iam::core {

// The per-query reference sampler: Algorithm 1 run on one query at a time,
// `progressive_samples` rows as one private batch, column by column, live
// rows ascending, one ConditionalDistribution call per (query, column) with
// no pooling, slicing or prefix dedup. It shares only DrawCoordinate and
// BuildConstraints with the engine, so a change to how the engine orders,
// gathers, dedups or folds rows shows up as a bitwise mismatch.
struct ArDensityEstimatorTestPeer {
  using Constraint = ArDensityEstimator::Constraint;
  using TableColumn = ArDensityEstimator::TableColumn;
  using AggregateResult = ArDensityEstimator::AggregateResult;

  struct QueryRun {
    std::vector<Constraint> constraints;
    bool dead = false;
    std::vector<std::vector<int>> samples;  // sp rows
    std::vector<double> weights;            // sp
  };

  // force_active_col >= 0 marks that table column active (full range when
  // unqueried) so its coordinate is always sampled.
  static QueryRun RunQuerySampling(const ArDensityEstimator& est,
                                   const query::Query& q, int force_active_col,
                                   Rng& rng) {
    const int num_model_cols = static_cast<int>(est.model_col_owner_.size());
    const int sp = est.options_.progressive_samples;

    QueryRun run;
    run.constraints = est.BuildConstraints(q);
    if (force_active_col >= 0 && !run.constraints[force_active_col].active) {
      Constraint& con = run.constraints[force_active_col];
      con.active = true;
      con.range_lo = -std::numeric_limits<double>::infinity();
      con.range_hi = std::numeric_limits<double>::infinity();
      const TableColumn& col = est.columns_[force_active_col];
      if (col.kind == TableColumn::Kind::kReduced) {
        con.mass = col.reducer->RangeMass(con.range_lo, con.range_hi);
      } else {
        con.code_lo = 0;
        con.code_hi = col.dict.size() - 1;
      }
    }
    for (const Constraint& con : run.constraints) {
      if (con.impossible) run.dead = true;
    }

    // Every value starts as the wildcard token (unqueried columns are
    // skipped entirely — wildcard skipping).
    run.samples.assign(sp, std::vector<int>(num_model_cols, 0));
    for (int m = 0; m < num_model_cols; ++m) {
      const int wildcard = est.made_->wildcard_token(m);
      for (auto& row : run.samples) row[m] = wildcard;
    }
    run.weights.assign(sp, 1.0);
    if (run.dead) return run;

    ar::ResMade::Context ctx;
    nn::Matrix probs;
    std::vector<std::vector<int>> gather;
    std::vector<int> gather_rows;
    for (int m = 0; m < num_model_cols; ++m) {
      const int owner = est.model_col_owner_[m];
      const int role = est.model_col_role_[m];
      const TableColumn& col = est.columns_[owner];
      const Constraint& con = run.constraints[owner];
      if (!con.active) continue;

      gather.clear();
      gather_rows.clear();
      for (int s = 0; s < sp; ++s) {
        if (run.weights[s] <= 0.0) continue;
        gather_rows.push_back(s);
        gather.push_back(run.samples[s]);
      }
      if (gather.empty()) continue;

      est.made_->ConditionalDistribution(gather, m, probs, ctx);

      for (size_t g = 0; g < gather_rows.size(); ++g) {
        const int row = gather_rows[g];
        const float* prow = probs.row(static_cast<int>(g));
        const int high = role == 1 ? run.samples[row][m - 1] : 0;
        const ArDensityEstimator::DrawOutcome draw =
            est.DrawCoordinate(col, con, role, high, prow, rng);
        if (draw.sampled < 0 || draw.mass <= 0.0) {
          run.weights[row] = 0.0;  // zero-mass wildcard fallback
          continue;
        }
        run.weights[row] *= draw.mass;
        run.samples[row][m] = draw.sampled;
      }
    }
    return run;
  }

  // Fixed-budget EstimateBatch: query qi draws from Rng(seed ^ qi).
  static std::vector<double> ReferenceEstimates(
      const ArDensityEstimator& est, std::span<const query::Query> qs) {
    const int sp = est.options_.progressive_samples;
    std::vector<double> estimates(qs.size(), 0.0);
    for (size_t qi = 0; qi < qs.size(); ++qi) {
      Rng rng(est.options_.seed ^ static_cast<uint64_t>(qi));
      const QueryRun run = RunQuerySampling(est, qs[qi], -1, rng);
      if (run.dead) continue;
      double total = 0.0;
      for (int s = 0; s < sp; ++s) total += run.weights[s];
      estimates[qi] = Clamp(total / sp, 0.0, 1.0);
    }
    return estimates;
  }

  // Fixed-budget EstimateAggregate: the target column forced active, one
  // Rng(seed ^ 0xa99f00d).
  static AggregateResult ReferenceAggregate(const ArDensityEstimator& est,
                                            const query::Query& q,
                                            int target_col) {
    Rng rng(est.options_.seed ^ 0xa99f00dULL);
    const QueryRun run = RunQuerySampling(est, q, target_col, rng);
    AggregateResult result;
    if (run.dead) return result;

    const TableColumn& col = est.columns_[target_col];
    const Constraint& con = run.constraints[target_col];
    const int m = col.first_model_col;
    const int sp = est.options_.progressive_samples;
    double weight_sum = 0.0;
    double weighted_value_sum = 0.0;
    for (int s = 0; s < sp; ++s) {
      const double w = run.weights[s];
      if (w <= 0.0) continue;
      double value = 0.0;
      switch (col.kind) {
        case TableColumn::Kind::kRaw:
          value = col.dict.Decode(run.samples[s][m]);
          break;
        case TableColumn::Kind::kFactorized: {
          const int code = run.samples[s][m] * col.factor_base +
                           run.samples[s][m + 1];
          value = col.dict.Decode(code);
          break;
        }
        case TableColumn::Kind::kReduced:
          value = col.reducer->RepresentativeValue(run.samples[s][m],
                                                   con.range_lo, con.range_hi);
          break;
      }
      weight_sum += w;
      weighted_value_sum += w * value;
    }
    const double rows = static_cast<double>(est.table_rows_);
    result.selectivity = Clamp(weight_sum / sp, 0.0, 1.0);
    result.count = result.selectivity * rows;
    result.sum = weighted_value_sum / sp * rows;
    result.avg = weight_sum > 0.0 ? weighted_value_sum / weight_sum : 0.0;
    return result;
  }
};

namespace {

using Peer = ArDensityEstimatorTestPeer;

// Small-but-real model: same shape the obs determinism suite uses, fast to
// train, with reduced (x/y/z) and raw (subject/activity) columns.
ArEstimatorOptions FastIamOptions() {
  ArEstimatorOptions opts = IamDefaults(8);
  opts.made.hidden_sizes = {32, 32};
  opts.epochs = 1;
  opts.batch_size = 128;
  opts.progressive_samples = 64;
  opts.large_domain_threshold = 200;
  opts.num_threads = 1;
  return opts;
}

// Factorized baseline: small factor base so the low sub-column's
// high-dependent code bounds (the trickiest draw path) get real coverage.
ArEstimatorOptions FastNeurocardOptions() {
  ArEstimatorOptions opts = NeurocardDefaults();
  opts.made.hidden_sizes = {32, 32};
  opts.epochs = 1;
  opts.batch_size = 128;
  opts.progressive_samples = 64;
  opts.large_domain_threshold = 200;
  opts.factor_bits = 6;
  opts.num_threads = 1;
  return opts;
}

std::vector<query::Query> MixedWorkload() {
  std::vector<query::Query> qs;
  // Range queries over the continuous columns (reduced under IAM,
  // factorized under the baseline).
  for (int i = 0; i < 6; ++i) {
    qs.push_back(query::Query{
        {{.column = 2, .lo = -2.0 - i, .hi = 3.0 + 2.0 * i}}});
  }
  // Multi-predicate queries: categorical range and a continuous range.
  for (int i = 0; i < 4; ++i) {
    qs.push_back(query::Query{{{.column = 0, .lo = 10.0, .hi = 30.0 + i},
                               {.column = 3, .lo = -1.0, .hi = 4.0 + i}}});
  }
  // An unsatisfiable predicate exercises the dead-query path.
  qs.push_back(query::Query{{{.column = 1, .lo = 9.0, .hi = 3.0}}});
  return qs;
}

uint64_t CounterTotal(const std::string& prefix) {
  uint64_t total = 0;
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Global().Snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(prefix, 0) == 0) total += value;
  }
  return total;
}

// Bitwise equality of aggregate results.
void ExpectSameAggregate(const ArDensityEstimator::AggregateResult& got,
                         const ArDensityEstimator::AggregateResult& want) {
  EXPECT_EQ(got.selectivity, want.selectivity);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.avg, want.avg);
}

TEST(PooledSamplerTest, PooledMatchesLegacyBitExactOnIam) {
  const data::Table table = data::MakeSynWisdm(3000, 77);
  ArDensityEstimator est(table, FastIamOptions());
  est.TrainEpoch();
  const std::vector<query::Query> qs = MixedWorkload();

  const std::vector<double> legacy = Peer::ReferenceEstimates(est, qs);
  obs::MetricRegistry::Global().ResetAll();
  const std::vector<double> pooled = est.EstimateBatch(qs);

  // At a fixed budget the pooled sampler reproduces the per-query reference
  // bitwise, prefix sharing included (equal prefixes share one bitwise-equal
  // conditional).
  EXPECT_EQ(legacy, pooled);
  // The dead query really died, live queries produced probabilities.
  EXPECT_EQ(legacy.back(), 0.0);
  EXPECT_GT(legacy.front(), 0.0);
  // Prefix sharing actually deduplicated (column 0 alone collapses every
  // live row to one evaluation), so the pooled GEMMs saw fewer rows than
  // the sampler drew.
  EXPECT_GT(CounterTotal("iam_sampler_prefix_hits_total"), 0u);
  EXPECT_LT(CounterTotal("iam_sampler_gemm_rows_total"),
            CounterTotal("iam_sampler_samples_total"));
}

TEST(PooledSamplerTest, PooledMatchesLegacyBitExactOnNeurocard) {
  const data::Table table = data::MakeSynWisdm(3000, 78);
  ArDensityEstimator est(table, FastNeurocardOptions());
  est.TrainEpoch();
  const std::vector<query::Query> qs = MixedWorkload();

  const std::vector<double> legacy = Peer::ReferenceEstimates(est, qs);
  const std::vector<double> pooled = est.EstimateBatch(qs);

  EXPECT_EQ(legacy, pooled);
  EXPECT_GT(legacy.front(), 0.0);
}

TEST(PooledSamplerTest, SoloEstimateMatchesBatchOfOne) {
  const data::Table table = data::MakeSynWisdm(2000, 79);
  ArDensityEstimator est(table, FastIamOptions());
  est.TrainEpoch();
  const query::Query q{{{.column = 2, .lo = -1.0, .hi = 5.0}}};

  const double solo = est.Estimate(q);
  const std::vector<double> batch = est.EstimateBatch({&q, 1});
  // Solo estimates ride the pooled path's cached scratch; repeated calls
  // must not drift as buffers are reused.
  EXPECT_DOUBLE_EQ(solo, batch[0]);
  EXPECT_DOUBLE_EQ(solo, est.Estimate(q));
  EXPECT_DOUBLE_EQ(solo, Peer::ReferenceEstimates(est, {&q, 1})[0]);
}

TEST(PooledSamplerTest, ZeroMassFallbackDoesNotPerturbSiblings) {
  ArEstimatorOptions opts = FastIamOptions();
  // Probability floor: any coordinate whose admissible conditionals all sit
  // at or below 0.1 hits the zero-mass wildcard fallback deterministically.
  opts.min_conditional_prob = 0.1;
  const data::Table table = data::MakeSynWisdm(3000, 80);
  ArDensityEstimator est(table, opts);
  est.TrainEpoch();

  // Two guaranteed-alive siblings first: x is reduced to 8 buckets, so some
  // bucket always carries conditional probability >= 1/8 > 0.1, and a wide
  // range keeps every bucket's range mass positive.
  std::vector<query::Query> qs;
  qs.push_back(query::Query{{{.column = 2, .lo = -1e6, .hi = 1e6}}});
  qs.push_back(query::Query{{{.column = 3, .lo = -1e6, .hi = 1e6}}});
  // Eleven single-subject equality queries: 51 subjects share probability
  // mass 1, so at most ten can exceed the 0.1 floor — at least one of these
  // must die through the fallback, poisoning the megabatch.
  for (int v = 0; v < 11; ++v) {
    qs.push_back(query::Query{
        {{.column = 0, .lo = static_cast<double>(v),
          .hi = static_cast<double>(v)}}});
  }

  obs::MetricRegistry::Global().ResetAll();
  const std::vector<double> pooled = est.EstimateBatch(qs);
  EXPECT_GT(CounterTotal("iam_sampler_zero_mass_fallbacks_total"), 0u);
  EXPECT_GT(pooled[0], 0.0);
  EXPECT_GT(pooled[1], 0.0);

  // Sibling isolation: the siblings keep bit-identical estimates whether or
  // not the fallback-poisoned queries ride in the same megabatch...
  const std::vector<double> siblings_only =
      est.EstimateBatch(std::span<const query::Query>(qs.data(), 2));
  EXPECT_DOUBLE_EQ(pooled[0], siblings_only[0]);
  EXPECT_DOUBLE_EQ(pooled[1], siblings_only[1]);

  // ...and the whole megabatch, fallbacks included, matches the per-query
  // reference bitwise.
  EXPECT_EQ(Peer::ReferenceEstimates(est, qs), pooled);
}

TEST(PooledSamplerTest, AdaptiveEarlyStopDeterministicAcrossThreads) {
  ArEstimatorOptions opts = FastIamOptions();
  const data::Table table = data::MakeSynWisdm(3000, 81);
  ArDensityEstimator est(table, opts);
  est.TrainEpoch();

  std::vector<query::Query> qs = MixedWorkload();
  qs.push_back(query::Query{{{.column = 2, .lo = -1e6, .hi = 1e6}}});

  // Fixed-budget reference for the sampling volume.
  obs::MetricRegistry::Global().ResetAll();
  est.EstimateBatch(qs);
  const uint64_t fixed_samples = CounterTotal("iam_sampler_samples_total");

  // Adaptive budgets: start at 8 rows, double per wave, stop on CI
  // convergence. The wide full-range query converges immediately (its
  // weights are nearly constant), so early stops must fire.
  est.set_adaptive_min_samples(8);

  std::vector<double> baseline_estimates;
  uint64_t baseline_samples = 0;
  for (const int threads : {1, 2, 8}) {
    est.set_num_threads(threads);
    obs::MetricRegistry::Global().ResetAll();
    const std::vector<double> estimates = est.EstimateBatch(qs);
    const uint64_t samples = CounterTotal("iam_sampler_samples_total");
    if (threads == 1) {
      baseline_estimates = estimates;
      baseline_samples = samples;
      EXPECT_GT(CounterTotal("iam_sampler_early_stops_total"), 0u);
      // Early stopping actually trimmed the sampling volume.
      EXPECT_LT(samples, fixed_samples);
    } else {
      EXPECT_EQ(estimates, baseline_estimates) << "threads " << threads;
      EXPECT_EQ(samples, baseline_samples) << "threads " << threads;
    }
  }
}

TEST(PooledSamplerTest, AggregateMatchesPerQueryReference) {
  const data::Table table = data::MakeSynWisdm(3000, 83);
  ArDensityEstimator iam(table, FastIamOptions());
  iam.TrainEpoch();
  ASSERT_TRUE(iam.IsReduced(2));
  const query::Query on_subject{{{.column = 0, .lo = 10.0, .hi = 30.0}}};
  const query::Query on_target{{{.column = 0, .lo = 10.0, .hi = 30.0},
                                {.column = 2, .lo = -2.0, .hi = 4.0}}};
  const query::Query dead{{{.column = 1, .lo = 9.0, .hi = 3.0}}};

  // Reduced target, unqueried (forced active over its full range) and with
  // a predicate on the target itself; a raw target; a dead query.
  const auto reduced = iam.EstimateAggregate(on_subject, 2);
  EXPECT_GT(reduced.selectivity, 0.0);
  ExpectSameAggregate(reduced, Peer::ReferenceAggregate(iam, on_subject, 2));
  ExpectSameAggregate(iam.EstimateAggregate(on_target, 2),
                      Peer::ReferenceAggregate(iam, on_target, 2));
  ExpectSameAggregate(iam.EstimateAggregate(on_target, 0),
                      Peer::ReferenceAggregate(iam, on_target, 0));
  const auto none = iam.EstimateAggregate(dead, 2);
  EXPECT_EQ(none.selectivity, 0.0);
  ExpectSameAggregate(none, Peer::ReferenceAggregate(iam, dead, 2));

  // Factorized NeuroCard target: high and low sub-columns recombined.
  ArDensityEstimator nc(table, FastNeurocardOptions());
  nc.TrainEpoch();
  // More distinct values than the factorization threshold (200) and the
  // sub-column domain (2^6): column 3 is split in two.
  ASSERT_GT(nc.ReducedDomainSize(3), 200);
  const query::Query nc_query{{{.column = 0, .lo = 10.0, .hi = 30.0},
                               {.column = 3, .lo = -1.0, .hi = 4.0}}};
  const auto factorized = nc.EstimateAggregate(nc_query, 3);
  EXPECT_GT(factorized.selectivity, 0.0);
  ExpectSameAggregate(factorized, Peer::ReferenceAggregate(nc, nc_query, 3));
  ExpectSameAggregate(nc.EstimateAggregate(on_subject, 3),
                      Peer::ReferenceAggregate(nc, on_subject, 3));
}

TEST(PooledSamplerTest, DiagnosticsIndependentOfBatchmates) {
  const data::Table table = data::MakeSynWisdm(3000, 84);
  ArDensityEstimator est(table, FastIamOptions());
  est.TrainEpoch();
  const query::Query q{{{.column = 0, .lo = 10.0, .hi = 30.0},
                        {.column = 3, .lo = -1.0, .hi = 4.0}}};
  constexpr size_t kAt = 3;
  // Two batches with q at the same global index (its Rng is seed ^ 3):
  // batchmates over other columns, and batchmates sharing q's first sampled
  // column, whose all-wildcard prefix a batch-wide dedup would have shared.
  std::vector<query::Query> others = MixedWorkload();
  others[kAt] = q;
  std::vector<query::Query> sharing(6, query::Query{
      {{.column = 0, .lo = 5.0, .hi = 40.0}}});
  sharing[kAt] = q;

  struct Seen {
    double estimate;
    estimator::QueryDiagnostics diag;
  };
  std::vector<Seen> seen;
  for (const int threads : {1, 4}) {
    est.set_num_threads(threads);
    for (const std::vector<query::Query>* batch : {&others, &sharing}) {
      std::vector<estimator::QueryDiagnostics> diags(batch->size());
      const std::vector<double> estimates =
          est.EstimateBatchDiagnosed(*batch, diags);
      seen.push_back({estimates[kAt], diags[kAt]});
    }
  }
  const Seen& want = seen.front();
  EXPECT_GT(want.estimate, 0.0);
  EXPECT_GT(want.diag.prefix_hits, 0);
  EXPECT_GT(want.diag.sampler_draws, 0u);
  for (size_t k = 1; k < seen.size(); ++k) {
    const Seen& got = seen[k];
    EXPECT_EQ(std::memcmp(&got.estimate, &want.estimate, sizeof(double)), 0)
        << "run " << k;
    EXPECT_EQ(got.diag.prefix_hits, want.diag.prefix_hits) << "run " << k;
    EXPECT_EQ(got.diag.sampler_draws, want.diag.sampler_draws) << "run " << k;
    EXPECT_EQ(got.diag.fallbacks, want.diag.fallbacks) << "run " << k;
    EXPECT_EQ(got.diag.fallback_column, want.diag.fallback_column)
        << "run " << k;
    EXPECT_EQ(got.diag.sample_rows, want.diag.sample_rows) << "run " << k;
    EXPECT_EQ(got.diag.rounds, want.diag.rounds) << "run " << k;
  }
}

TEST(PooledSamplerTest, ConcurrentPooledCallersSerializeCleanly) {
  const data::Table table = data::MakeSynWisdm(2000, 82);
  ArEstimatorOptions opts = FastIamOptions();
  opts.num_threads = 2;
  ArDensityEstimator est(table, opts);
  est.TrainEpoch();
  const std::vector<query::Query> qs = MixedWorkload();

  std::vector<double> r1, r2;
  std::thread other([&] { r2 = est.EstimateBatch(qs); });
  r1 = est.EstimateBatch(qs);
  other.join();
  // The batch mutex serializes the two pooled megabatches over the shared
  // scratch; determinism makes the interleaving unobservable.
  EXPECT_EQ(r1, r2);
}

}  // namespace
}  // namespace iam::core
