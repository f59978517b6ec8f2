#include "core/ar_density_estimator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <fstream>
#include <sstream>
#include <string_view>

#include "core/sampling_utils.h"
#include "gmm/vbgm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/serialize.h"
#include "util/math_util.h"
#include "util/stopwatch.h"

namespace iam::core {

using sampling::RangeSumFloored;
using sampling::SampleInRangeFloored;

namespace {

// Progressive-sampler and training telemetry. All of these are *semantic*
// counters: their totals depend only on (model, queries, seed), never on the
// thread count, because every query runs one deterministic sampling pass
// (see EstimateBatch). The per-column fallback counters live on the
// estimator (fallback_counters_) since their label set is per-model.
struct CoreMetrics {
  obs::Counter& sampler_queries;
  obs::Counter& sampler_samples;
  obs::Counter& sampler_dead_queries;
  obs::Counter& train_epochs;
  obs::Gauge& epoch_loss;
  obs::Histogram& epoch_seconds;

  static CoreMetrics& Get() {
    static CoreMetrics metrics = [] {
      obs::MetricRegistry& reg = obs::MetricRegistry::Global();
      return CoreMetrics{
          reg.GetCounter("iam_sampler_queries_total"),
          reg.GetCounter("iam_sampler_samples_total"),
          reg.GetCounter("iam_sampler_dead_queries_total"),
          reg.GetCounter("iam_core_train_epochs_total"),
          reg.GetGauge("iam_core_epoch_loss"),
          reg.GetHistogram("iam_core_train_epoch_seconds",
                           obs::LatencyBounds()),
      };
    }();
    return metrics;
  }
};

// Sampler telemetry (DESIGN.md §14). These are semantic too: round
// structure, prefix hits, conditional sizes, and early stops are all
// functions of (model, queries, options, seed) alone, never of the thread
// count, so the obs determinism suite can assert them across pool sizes.
struct PooledMetrics {
  obs::Counter& prefix_hits;
  obs::Counter& gemm_rows;
  obs::Counter& early_stops;
  obs::Histogram& round_rows;       // live rows per (query, wave, column)
  obs::Histogram& gemm_rows_hist;   // unique rows per (query, wave, column)
  obs::Histogram& query_samples;    // samples a query actually used

  static PooledMetrics& Get() {
    static PooledMetrics metrics = [] {
      obs::MetricRegistry& reg = obs::MetricRegistry::Global();
      static const std::vector<double> kRowBounds = {
          1, 4, 16, 64, 256, 1024, 4096, 16384, 65536};
      static const std::vector<double> kSampleBounds = {
          8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
      return PooledMetrics{
          reg.GetCounter("iam_sampler_prefix_hits_total"),
          reg.GetCounter("iam_sampler_gemm_rows_total"),
          reg.GetCounter("iam_sampler_early_stops_total"),
          reg.GetHistogram("iam_sampler_round_rows", kRowBounds),
          reg.GetHistogram("iam_sampler_gemm_rows", kRowBounds),
          reg.GetHistogram("iam_sampler_query_samples", kSampleBounds),
      };
    }();
    return metrics;
  }
};

}  // namespace

ArDensityEstimator::ArDensityEstimator(const data::Table& table,
                                       ArEstimatorOptions options)
    : options_(std::move(options)),
      table_rows_(table.num_rows()),
      rng_(options_.seed) {
  IAM_CHECK(table.num_rows() > 0);
  IAM_CHECK(table.num_columns() >= 2);
  set_num_threads(options_.num_threads);
  for (int c = 0; c < table.num_columns(); ++c) {
    column_names_.push_back(table.column(c).name);
    column_types_.push_back(table.column(c).type);
  }
  BuildColumns(table);
  BuildTrainingSample(table);
  EncodeStaticColumns();
  RegisterSamplerCounters();

  std::vector<int> domains(model_col_owner_.size());
  for (size_t m = 0; m < model_col_owner_.size(); ++m) {
    const TableColumn& col = columns_[model_col_owner_[m]];
    switch (col.kind) {
      case TableColumn::Kind::kRaw:
        domains[m] = col.dict.size();
        break;
      case TableColumn::Kind::kReduced:
        domains[m] = col.reducer->num_buckets();
        break;
      case TableColumn::Kind::kFactorized:
        domains[m] = model_col_role_[m] == 0
                         ? (col.dict.size() + col.factor_base - 1) /
                               col.factor_base
                         : col.factor_base;
        break;
    }
    IAM_CHECK(domains[m] >= 1);
  }
  made_ = std::make_unique<ar::ResMade>(std::move(domains), options_.made,
                                        options_.seed ^ 0xabcdef12u);
  nn::Adam::Options adam_opts;
  adam_opts.learning_rate = options_.learning_rate;
  adam_ = nn::Adam(adam_opts);
  made_->RegisterParameters(adam_);
}

ArDensityEstimator::~ArDensityEstimator() = default;

void ArDensityEstimator::RegisterSamplerCounters() {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  fallback_counters_.clear();
  fallback_counters_.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const std::string& name =
        c < column_names_.size() && !column_names_[c].empty()
            ? column_names_[c]
            : "col" + std::to_string(c);
    fallback_counters_.push_back(&reg.GetCounter(
        "iam_sampler_zero_mass_fallbacks_total", "column", name));
  }
}

void ArDensityEstimator::BuildColumns(const data::Table& table) {
  // Build-time only (construction is exclusive); taken for the pool() calls.
  util::MutexLock lock(batch_mu_);
  columns_.resize(table.num_columns());

  // Autoregressive order: identity unless the caller supplied a permutation.
  std::vector<int> order = options_.column_order;
  if (order.empty()) {
    order.resize(table.num_columns());
    std::iota(order.begin(), order.end(), 0);
  }
  IAM_CHECK(static_cast<int>(order.size()) == table.num_columns());
  {
    std::vector<bool> seen(order.size(), false);
    for (int c : order) {
      IAM_CHECK(c >= 0 && c < table.num_columns() && !seen[c]);
      seen[c] = true;
    }
  }

  // Dictionaries are independent per column: build them in parallel.
  pool().ParallelFor(columns_.size(), [&](size_t c, int) {
    columns_[c].dict = data::ValueDictionary::Build(table.column(c).values);
  });

  // Sequential pass in AR order: each column's kind and the model-column
  // layout (the layout depends on the order).
  for (int c : order) {
    TableColumn& col = columns_[c];
    const size_t distinct = col.dict.size();
    const bool large = distinct > options_.large_domain_threshold;
    const bool continuous =
        table.column(c).type == data::ColumnType::kContinuous;

    if (large && continuous && options_.use_domain_reduction) {
      col.kind = TableColumn::Kind::kReduced;
    } else if (large) {
      // NeuroCard column factorization: code -> (code / base, code % base).
      col.kind = TableColumn::Kind::kFactorized;
      col.factor_base = 1 << options_.factor_bits;
      if (static_cast<int>(distinct) <= col.factor_base) {
        // Fits a single sub-column after all.
        col.kind = TableColumn::Kind::kRaw;
      }
    } else {
      col.kind = TableColumn::Kind::kRaw;
    }

    col.first_model_col = static_cast<int>(model_col_owner_.size());
    col.num_model_cols = col.kind == TableColumn::Kind::kFactorized ? 2 : 1;
    for (int role = 0; role < col.num_model_cols; ++role) {
      model_col_owner_.push_back(c);
      model_col_role_.push_back(role);
    }
  }

  // Reducer fitting dominates build time (VBGM / mixture init); columns are
  // independent, so fit them in parallel, each with a deterministic
  // per-column seed so the result does not depend on the thread count or
  // the fitting order.
  pool().ParallelFor(columns_.size(), [&](size_t ci, int) {
    const int c = static_cast<int>(ci);
    TableColumn& col = columns_[c];
    if (col.kind != TableColumn::Kind::kReduced) return;
    const auto& values = table.column(c).values;
    Rng reducer_rng(options_.seed ^ 0x5eed5eedu ^
                    (static_cast<uint64_t>(c) << 32));
    switch (options_.reducer_kind) {
      case ReducerKind::kGmm: {
        gmm::Gmm1D gmm(1);
        if (options_.reducer_components <= 0) {
          gmm::VbgmOptions vb;
          gmm = FitVbgm(values, vb, reducer_rng).gmm;
        } else {
          gmm = gmm::Gmm1D(options_.reducer_components);
          gmm.InitFromData(values, reducer_rng);
          gmm.set_learning_rate(options_.gmm_learning_rate);
        }
        col.reducer = std::make_unique<bucketize::GmmReducer>(std::move(gmm));
        break;
      }
      case ReducerKind::kEquiDepth:
        col.reducer = bucketize::MakeEquiDepthReducer(
            values, options_.reducer_components);
        break;
      case ReducerKind::kSpline:
        col.reducer =
            bucketize::MakeSplineReducer(values, options_.reducer_components);
        break;
      case ReducerKind::kUmm:
        col.reducer = bucketize::MakeUmmReducer(
            values, options_.reducer_components, reducer_rng);
        break;
      case ReducerKind::kLaplace: {
        gmm::LaplaceMixture1D mixture(
            std::max(1, options_.reducer_components));
        mixture.InitFromData(values, reducer_rng);
        mixture.set_learning_rate(options_.gmm_learning_rate);
        col.reducer = std::make_unique<bucketize::LaplaceReducer>(
            std::move(mixture));
        break;
      }
    }
  });
}

void ArDensityEstimator::BuildTrainingSample(const data::Table& table) {
  const size_t n = table.num_rows();
  std::vector<size_t> rows;
  if (n > options_.max_train_rows) {
    rows = rng_.SampleWithoutReplacement(n, options_.max_train_rows);
  } else {
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), size_t{0});
  }
  train_rows_ = rows.size();
  train_values_.assign(table.num_columns(), {});
  for (int c = 0; c < table.num_columns(); ++c) {
    train_values_[c].reserve(train_rows_);
    for (size_t r : rows) train_values_[c].push_back(table.value(r, c));
  }
}

void ArDensityEstimator::EncodeStaticColumns() {
  encoded_.assign(train_rows_,
                  std::vector<int>(model_col_owner_.size(), 0));
  for (size_t c = 0; c < columns_.size(); ++c) {
    const TableColumn& col = columns_[c];
    const int m = col.first_model_col;
    switch (col.kind) {
      case TableColumn::Kind::kRaw:
        for (size_t r = 0; r < train_rows_; ++r) {
          const int code = col.dict.Encode(train_values_[c][r]);
          IAM_CHECK(code >= 0);
          encoded_[r][m] = code;
        }
        break;
      case TableColumn::Kind::kFactorized:
        for (size_t r = 0; r < train_rows_; ++r) {
          const int code = col.dict.Encode(train_values_[c][r]);
          IAM_CHECK(code >= 0);
          encoded_[r][m] = code / col.factor_base;
          encoded_[r][m + 1] = code % col.factor_base;
        }
        break;
      case TableColumn::Kind::kReduced:
        // Mixture-model assignments move during joint training and are
        // re-encoded per batch; static reducers are encoded once here.
        if (!col.reducer->trainable()) {
          for (size_t r = 0; r < train_rows_; ++r) {
            encoded_[r][m] = col.reducer->Assign(train_values_[c][r]);
          }
        }
        break;
    }
  }
}

double ArDensityEstimator::TrainEpoch() {
  obs::TraceSpan span("core.train_epoch");
  Stopwatch epoch_watch;
  std::vector<size_t> order(train_rows_);
  std::iota(order.begin(), order.end(), size_t{0});
  rng_.Shuffle(order);

  const int batch_size = options_.batch_size;
  std::vector<std::vector<int>> batch;
  std::vector<double> gmm_batch;
  double loss_sum = 0.0;
  size_t batches = 0;

  for (size_t begin = 0; begin < train_rows_; begin += batch_size) {
    const size_t end = std::min(train_rows_, begin + batch_size);

    // Joint step 1: advance each trainable mixture on this batch and
    // re-encode its column (Equation 6's loss_GMM terms; the argmax
    // assignment of Equation 5).
    for (size_t c = 0; c < columns_.size(); ++c) {
      TableColumn& col = columns_[c];
      if (col.kind != TableColumn::Kind::kReduced ||
          !col.reducer->trainable()) {
        continue;
      }
      gmm_batch.clear();
      for (size_t i = begin; i < end; ++i) {
        gmm_batch.push_back(train_values_[c][order[i]]);
      }
      for (int pass = 0; pass < options_.gmm_sgd_passes; ++pass) {
        col.reducer->TrainStep(gmm_batch);
      }
      const int m = col.first_model_col;
      for (size_t i = begin; i < end; ++i) {
        encoded_[order[i]][m] =
            col.reducer->Assign(train_values_[c][order[i]]);
      }
    }

    // Joint step 2: AR cross-entropy on the (re-)encoded tuples.
    batch.clear();
    for (size_t i = begin; i < end; ++i) batch.push_back(encoded_[order[i]]);
    loss_sum += made_->TrainStep(batch, adam_, rng_);
    ++batches;
  }

  last_epoch_loss_ = batches > 0 ? loss_sum / static_cast<double>(batches)
                                 : 0.0;
  CoreMetrics& metrics = CoreMetrics::Get();
  metrics.train_epochs.Add();
  metrics.epoch_loss.Set(last_epoch_loss_);
  metrics.epoch_seconds.Record(epoch_watch.ElapsedSeconds());
  return last_epoch_loss_;
}

void ArDensityEstimator::Train() {
  for (int e = 0; e < options_.epochs; ++e) TrainEpoch();
}

std::string ArDensityEstimator::name() const {
  if (!options_.display_name.empty()) return options_.display_name;
  return options_.use_domain_reduction ? "iam" : "neurocard";
}

std::vector<ArDensityEstimator::Interval> ArDensityEstimator::MergePredicates(
    const query::Query& q) const {
  std::vector<Interval> merged(columns_.size());
  for (const query::Predicate& p : q.predicates) {
    IAM_CHECK(p.column >= 0 && p.column < static_cast<int>(columns_.size()));
    Interval& iv = merged[p.column];
    iv.lo = std::max(iv.lo, p.lo);
    iv.hi = std::min(iv.hi, p.hi);
    iv.touched = true;
  }
  return merged;
}

std::vector<ArDensityEstimator::Constraint>
ArDensityEstimator::BuildConstraints(const query::Query& q,
                                     int force_active_col) const {
  std::vector<Interval> merged = MergePredicates(q);
  // An unqueried forced column keeps its infinite bounds: the full range.
  if (force_active_col >= 0) merged[force_active_col].touched = true;

  std::vector<Constraint> constraints(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Interval& iv = merged[c];
    if (!iv.touched) continue;
    Constraint& con = constraints[c];
    con.active = true;
    con.range_lo = iv.lo;
    con.range_hi = iv.hi;
    const TableColumn& col = columns_[c];
    if (iv.hi < iv.lo) {
      con.impossible = true;
      continue;
    }
    switch (col.kind) {
      case TableColumn::Kind::kRaw:
      case TableColumn::Kind::kFactorized: {
        const auto range = col.dict.EncodeRange(iv.lo, iv.hi);
        if (range.empty()) {
          con.impossible = true;
        } else {
          con.code_lo = range.first;
          con.code_hi = range.last;
        }
        break;
      }
      case TableColumn::Kind::kReduced: {
        // Query construction rule (Section 5.1): R'_i = Dom(A'_i); the range
        // enters through the bias-correction vector \hat P_GMM(R_i).
        con.mass = col.reducer->RangeMass(iv.lo, iv.hi);
        double total = 0.0;
        for (double m : con.mass) total += m;
        if (total <= 0.0) con.impossible = true;
        break;
      }
    }
  }
  return constraints;
}

double ArDensityEstimator::Estimate(const query::Query& q) {
  return EstimateBatch({&q, 1})[0];
}

void ArDensityEstimator::EnsureContexts() {
  const size_t n = static_cast<size_t>(pool().num_threads());
  if (contexts_.size() < n) contexts_.resize(n);
  if (pooled_.workers.size() < n) pooled_.workers.resize(n);
}

ArDensityEstimator::DrawOutcome ArDensityEstimator::DrawCoordinate(
    const TableColumn& col, const Constraint& con, int role, int high,
    const float* prow, Rng& rng) const {
  // floor == 0 keeps the floored helpers bit-identical to the unfloored
  // originals (see core/sampling_utils.h), so the default configuration
  // reproduces the seed sampler exactly.
  const float floor = options_.min_conditional_prob > 0.0
                          ? static_cast<float>(options_.min_conditional_prob)
                          : 0.0f;
  DrawOutcome out;
  if (col.kind == TableColumn::Kind::kReduced) {
    // IAM's bias-corrected step: multiply the AR conditional over
    // component ids by \hat P_GMM(R_i), record the inner product, draw
    // the next coordinate from the normalized product (Section 5.2).
    const int dom = static_cast<int>(con.mass.size());
    for (int j = 0; j < dom; ++j) {
      if (prow[j] > floor) {
        out.mass += static_cast<double>(prow[j]) * con.mass[j];
      }
    }
    if (out.mass > 0.0) {
      if (options_.biased_sampling) {
        // Ablation: vanilla progressive sampling ignores the range mass
        // when drawing the coordinate (biased; Theorem 5.1's foil).
        const double psum = RangeSumFloored(prow, 0, dom - 1, floor);
        out.sampled = SampleInRangeFloored(prow, 0, dom - 1, psum,
                                           rng.Uniform(), floor);
      } else {
        const double target = rng.Uniform() * out.mass;
        double acc = 0.0;
        for (int j = 0; j < dom; ++j) {
          if (prow[j] <= floor) continue;
          const double w = static_cast<double>(prow[j]) * con.mass[j];
          if (w <= 0.0) continue;
          acc += w;
          out.sampled = j;
          if (acc >= target) break;
        }
      }
    }
  } else {
    // Vanilla progressive sampling over a contiguous code range.
    int first = con.code_lo;
    int last = con.code_hi;
    if (col.kind == TableColumn::Kind::kFactorized) {
      const int base = col.factor_base;
      const int max_code = col.dict.size() - 1;
      if (role == 0) {
        first = con.code_lo / base;
        last = con.code_hi / base;
      } else {
        // Low sub-column: bounds depend on the sampled high sub-column.
        first = high == con.code_lo / base ? con.code_lo % base : 0;
        last = high == con.code_hi / base ? con.code_hi % base : base - 1;
        if (high == max_code / base) {
          last = std::min(last, max_code % base);
        }
      }
    }
    if (first <= last) {
      out.mass = RangeSumFloored(prow, first, last, floor);
      if (out.mass > 0.0) {
        out.sampled = SampleInRangeFloored(prow, first, last, out.mass,
                                           rng.Uniform(), floor);
      }
    }
  }
  return out;
}

std::vector<double> ArDensityEstimator::EstimateBatch(
    std::span<const query::Query> qs) {
  return EstimateBatchDiagnosed(qs, {});
}

std::vector<double> ArDensityEstimator::EstimateBatchDiagnosed(
    std::span<const query::Query> qs,
    std::span<estimator::QueryDiagnostics> diags) {
  // Serializes concurrent batch calls (each still parallel internally) and
  // covers the per-worker contexts. Determinism makes the interleaving
  // unobservable: every query's estimate depends only on (seed, query index).
  IAM_CHECK(diags.empty() || diags.size() == qs.size());
  obs::TraceSpan span("core.estimate_batch");
  estimator::BatchMetrics& batch_metrics = estimator::BatchMetrics::Get();
  Stopwatch batch_watch;
  util::MutexLock lock(batch_mu_);
  EnsureContexts();
  std::vector<double> estimates(qs.size(), 0.0);
  EstimateBatchPooled(qs, options_.seed, /*force_active_col=*/-1, estimates,
                      diags);
  // Per-query latency under pooling is the amortized batch time: exactly
  // one Record per query.
  if (!qs.empty()) {
    const double per_query =
        batch_watch.ElapsedSeconds() / static_cast<double>(qs.size());
    for (size_t qi = 0; qi < qs.size(); ++qi) {
      batch_metrics.query_seconds.Record(per_query);
    }
  }
  if (corrector_ != nullptr) {
    // Post-estimate correction (DESIGN.md §18): multiply each raw estimate
    // by the corrector's multiplier for the query's region. With no
    // corrector this loop never executes, so the uncorrected path stays
    // bit-identical to a build without one (the pooled bit-exactness gates).
    for (size_t qi = 0; qi < qs.size(); ++qi) {
      const uint64_t key = CorrectorRegionKey(qs[qi]);
      const double mult = corrector_->MultiplierForRegion(key);
      estimates[qi] = Clamp(estimates[qi] * mult, 0.0, 1.0);
      if (!diags.empty()) {
        diags[qi].region_key = key;
        diags[qi].corrector_multiplier = mult;
      }
    }
  }
  batch_metrics.queries.Add(qs.size());
  batch_metrics.batches.Add();
  batch_metrics.batch_seconds.Record(batch_watch.ElapsedSeconds());
  return estimates;
}

void ArDensityEstimator::EstimateBatchPooled(
    std::span<const query::Query> qs, uint64_t seed, int force_active_col,
    std::vector<double>& estimates,
    std::span<estimator::QueryDiagnostics> diags) {
  const int nq = static_cast<int>(qs.size());
  if (nq <= 0) return;
  CoreMetrics::Get().sampler_queries.Add(static_cast<uint64_t>(nq));
  PooledScratch& ps = pooled_;
  ps.queries.resize(nq);
  // Each worker samples whole queries, start to end, on its own scratch and
  // ResMADE context. A query's estimate depends only on (model, query,
  // seed ^ i): the batch and the thread count never reach it.
  pool().ParallelFor(nq, [&](size_t i, int worker) {
    PooledQuery& pq = ps.queries[i];
    pq = PooledQuery{};
    pq.constraints = BuildConstraints(qs[i], force_active_col);
    pq.rng = Rng(seed ^ static_cast<uint64_t>(i));
    pq.worker = worker;
    SampleQuery(pq, ps.workers[worker], contexts_[worker]);
    if (!diags.empty()) {
      estimator::QueryDiagnostics& d = diags[i];
      d = estimator::QueryDiagnostics{};
      d.sampler_draws = pq.draws;
      d.sample_rows = pq.samples_done;
      d.rounds = pq.rounds;
      d.early_stop_round = pq.early_stop_round;
      d.prefix_hits = pq.prefix_hits;
      d.fallbacks = pq.fallbacks;
      d.fallback_column = pq.fallback_column;
      d.dead = pq.dead;
      d.ci_half_width = pq.ci_half_width;
    }
    if (pq.dead || pq.samples_done <= 0) return;  // estimate stays 0
    estimates[i] = Clamp(pq.weight_sum / pq.samples_done, 0.0, 1.0);
    PooledMetrics::Get().query_samples.Record(pq.samples_done);
  });
}

void ArDensityEstimator::SampleQuery(PooledQuery& pq, SamplerScratch& sc,
                                     ar::ResMade::Context& ctx) const {
  CoreMetrics& metrics = CoreMetrics::Get();
  PooledMetrics& pooled_metrics = PooledMetrics::Get();
  for (const Constraint& con : pq.constraints) {
    if (con.impossible) pq.dead = true;
  }
  if (pq.dead) {
    metrics.sampler_dead_queries.Add();
    return;
  }
  const int num_model_cols = static_cast<int>(model_col_owner_.size());
  const int sp = options_.progressive_samples;
  if (sp <= 0) return;  // no rows: the estimate stays 0
  // Every value starts as its column's wildcard token (wildcard skipping —
  // unqueried columns are never materialized), every weight at 1.
  sc.samples.resize(static_cast<size_t>(sp) * num_model_cols);
  int* const first = sc.samples.data();
  for (int m = 0; m < num_model_cols; ++m) first[m] = made_->wildcard_token(m);
  for (int s = 1; s < sp; ++s) {
    std::copy(first, first + num_model_cols,
              first + static_cast<size_t>(s) * num_model_cols);
  }
  sc.weights.assign(sp, 1.0);
  sc.row_uid.assign(sp, 0);

  // Sample rows [0, cursor) are finished. With the fixed budget there is one
  // wave of sp rows, drawn column by column, live rows ascending: the order
  // of the per-query reference sampler in tests/pooled_sampler_test.cc,
  // which the engine matches bitwise. Adaptive budgets chunk the rows (min
  // samples, then doubling), which reorders the draws but stays
  // deterministic in (seed, query index).
  const bool adaptive = options_.adaptive_min_samples > 0;
  int cursor = 0;
  while (cursor < sp) {
    const int wave =
        adaptive
            ? std::min(cursor == 0 ? std::min(options_.adaptive_min_samples,
                                              sp)
                                   : cursor,
                       sp - cursor)
            : sp;
    int parent_col = -1;  // the wave's last sampled column
    int parents = 1;      // its unique rows
    for (int m = 0; m < num_model_cols; ++m) {
      const int owner = model_col_owner_[m];
      const int role = model_col_role_[m];
      const TableColumn& col = columns_[owner];
      const Constraint& con = pq.constraints[owner];
      if (!con.active) continue;

      sc.live.clear();
      for (int s = cursor; s < cursor + wave; ++s) {
        if (sc.weights[s] > 0.0) sc.live.push_back(s);
      }
      const int live = static_cast<int>(sc.live.size());
      if (live == 0) break;  // every row of the wave fell back
      pq.draws += static_cast<uint64_t>(live);
      pooled_metrics.round_rows.Record(live);

      // Exact prefix sharing: rows agreeing on model columns [0, m) have
      // bitwise-identical encoded inputs (columns >= m are still wildcard),
      // hence bitwise-identical conditionals — evaluate one row per
      // distinct prefix, carrying the hidden units its parent prefix
      // already computed at parent_col.
      const int unique = DedupPrefixes(parent_col, parents, sc);
      pq.prefix_hits += live - unique;
      pq.gemm_rows += static_cast<uint64_t>(unique);
      pooled_metrics.gemm_rows_hist.Record(unique);
      const ar::EncodedView view{sc.unique_rows.data(), unique,
                                 num_model_cols};
      made_->ConditionalDistribution(view, m, std::max(parent_col, 0),
                                     sc.parent_of, sc.probs, ctx);
      parent_col = m;
      parents = unique;

      for (const int s : sc.live) {
        const float* prow = sc.probs.row(sc.row_uid[s]);
        int* srow = sc.samples.data() + static_cast<size_t>(s) * num_model_cols;
        const int high = role == 1 ? srow[m - 1] : 0;
        const DrawOutcome draw =
            DrawCoordinate(col, con, role, high, prow, pq.rng);
        if (draw.sampled < 0 || draw.mass <= 0.0) {
          sc.weights[s] = 0.0;
          pq.fallbacks += 1;
          pq.fallback_column = owner;
          if (owner < static_cast<int>(fallback_counters_.size())) {
            fallback_counters_[owner]->Add();
          }
          continue;
        }
        sc.weights[s] *= draw.mass;
        srow[m] = draw.sampled;
      }
    }

    // Wave end: fold the finished rows into the running estimate (ascending
    // row order, as a per-query sum would) and, under adaptive budgets,
    // stop once the confidence interval converged.
    for (int s = cursor; s < cursor + wave; ++s) {
      const double w = sc.weights[s];
      pq.weight_sum += w;
      pq.weight_sq += w * w;
    }
    cursor += wave;
    pq.samples_done = cursor;
    pq.rounds += 1;
    if (cursor >= sp || !adaptive || pq.samples_done < 2) continue;
    const double n = pq.samples_done;
    const double mean = pq.weight_sum / n;
    const double var =
        std::max((pq.weight_sq - n * mean * mean) / (n - 1.0), 0.0);
    const double half = options_.adaptive_ci_z * std::sqrt(var / n);
    pq.ci_half_width = half;
    if (half <= options_.adaptive_ci_rel * mean + options_.adaptive_ci_abs) {
      pq.early_stop_round = pq.rounds;
      pooled_metrics.early_stops.Add();
      break;
    }
  }
  metrics.sampler_samples.Add(pq.draws);
  pooled_metrics.prefix_hits.Add(static_cast<uint64_t>(pq.prefix_hits));
  pooled_metrics.gemm_rows.Add(pq.gemm_rows);
}

int ArDensityEstimator::DedupPrefixes(int p, int parents,
                                      SamplerScratch& sc) const {
  const int num_model_cols = static_cast<int>(model_col_owner_.size());
  // Before the wave's first sampled column every row is all wildcards: one
  // prefix, one parent, and the value at "p" reads as 0.
  const auto value_at_p = [&](int s) {
    return p < 0 ? 0
                 : sc.samples[static_cast<size_t>(s) * num_model_cols + p];
  };
  // Live rows grouped by parent (a counting sort on row_uid, which every
  // row of a new wave starts at 0), each group in ascending row order. The
  // grouping fill cursors borrow parent_of, which is rebuilt below.
  sc.group_begin.assign(parents + 1, 0);
  for (const int s : sc.live) ++sc.group_begin[sc.row_uid[s] + 1];
  for (int u = 0; u < parents; ++u) sc.group_begin[u + 1] += sc.group_begin[u];
  sc.by_parent.resize(sc.live.size());
  std::vector<int>& fill = sc.parent_of;
  fill.assign(sc.group_begin.begin(), sc.group_begin.end() - 1);
  for (const int s : sc.live) sc.by_parent[fill[sc.row_uid[s]]++] = s;
  const size_t values =
      p < 0 ? 1 : static_cast<size_t>(made_->domain_size(p));
  if (sc.value_stamp.size() < values) {
    sc.value_stamp.resize(values, 0);
    sc.value_uid.resize(values);
  }
  sc.parent_of.clear();
  sc.unique_rows.clear();
  int unique = 0;
  for (int u = 0; u < parents; ++u) {
    ++sc.stamp;
    for (int g = sc.group_begin[u]; g < sc.group_begin[u + 1]; ++g) {
      const int s = sc.by_parent[g];
      const int v = value_at_p(s);
      if (sc.value_stamp[v] != sc.stamp) {
        sc.value_stamp[v] = sc.stamp;
        sc.value_uid[v] = unique++;
        sc.parent_of.push_back(u);
        const int* row =
            sc.samples.data() + static_cast<size_t>(s) * num_model_cols;
        sc.unique_rows.insert(sc.unique_rows.end(), row, row + num_model_cols);
      }
      sc.row_uid[s] = sc.value_uid[v];
    }
  }
  return unique;
}

void ArDensityEstimator::set_adaptive_min_samples(int adaptive_min_samples) {
  util::MutexLock lock(batch_mu_);
  options_.adaptive_min_samples = adaptive_min_samples;
}

void ArDensityEstimator::set_corrector(
    std::shared_ptr<const estimator::SelectivityCorrector> corrector) {
  util::MutexLock lock(batch_mu_);
  corrector_ = std::move(corrector);
}

uint64_t ArDensityEstimator::CorrectorRegionKey(const query::Query& q) const {
  // Merge predicates per table column (MergePredicates, as BuildConstraints
  // does), then hash the quantized interval coordinates. FNV-1a over 8-byte
  // words.
  constexpr uint64_t kFnvOffset = 1469598103934665603ull;
  constexpr uint64_t kFnvPrime = 1099511628211ull;
  uint64_t h = kFnvOffset;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= kFnvPrime;
    }
  };
  const std::vector<Interval> merged = MergePredicates(q);
  // Cell sentinels: 0 = -inf bound, 1 = +inf bound, 2 = empty/impossible;
  // real bucket/code coordinates start at 3.
  constexpr uint64_t kCellNegInf = 0;
  constexpr uint64_t kCellPosInf = 1;
  constexpr uint64_t kCellEmpty = 2;
  constexpr uint64_t kCellBase = 3;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Interval& iv = merged[c];
    if (!iv.touched) continue;
    mix(c + 1);
    const TableColumn& col = columns_[c];
    if (iv.hi < iv.lo) {
      mix(kCellEmpty);
      continue;
    }
    if (col.kind == TableColumn::Kind::kReduced) {
      // The reducer's bucket grid — for the paper's configuration, the GMM
      // component each interval endpoint is assigned to.
      const auto cell = [&](double bound, uint64_t inf_cell) {
        if (std::isinf(bound)) return inf_cell;
        return kCellBase + static_cast<uint64_t>(col.reducer->Assign(bound));
      };
      mix(cell(iv.lo, kCellNegInf));
      mix(cell(iv.hi, kCellPosInf));
    } else {
      // Raw / factorized columns: coarse per-column buckets from the
      // dictionary code range (small domains by construction for kRaw).
      const auto range = col.dict.EncodeRange(iv.lo, iv.hi);
      if (range.empty()) {
        mix(kCellEmpty);
      } else {
        mix(kCellBase + static_cast<uint64_t>(range.first));
        mix(kCellBase + static_cast<uint64_t>(range.last));
      }
    }
  }
  return h;
}

ArDensityEstimator::AggregateResult ArDensityEstimator::EstimateAggregate(
    const query::Query& q, int target_col) {
  IAM_CHECK(target_col >= 0 &&
            target_col < static_cast<int>(columns_.size()));
  AggregateResult result;
  util::MutexLock lock(batch_mu_);
  EnsureContexts();
  std::vector<double> selectivity(1, 0.0);
  EstimateBatchPooled({&q, 1}, options_.seed ^ 0xa99f00dULL, target_col,
                      selectivity, {});
  const PooledQuery& pq = pooled_.queries[0];
  const SamplerScratch& sc = pooled_.workers[pq.worker];
  const int n = pq.samples_done;
  if (pq.dead || n <= 0) return result;

  const TableColumn& col = columns_[target_col];
  const Constraint& con = pq.constraints[target_col];
  const int m = col.first_model_col;
  const int num_model_cols = static_cast<int>(model_col_owner_.size());

  double weight_sum = 0.0;
  double weighted_value_sum = 0.0;
  for (int s = 0; s < n; ++s) {
    const double w = sc.weights[s];
    if (w <= 0.0) continue;
    const int* row = sc.samples.data() + static_cast<size_t>(s) * num_model_cols;
    double value = 0.0;
    switch (col.kind) {
      case TableColumn::Kind::kRaw:
        value = col.dict.Decode(row[m]);
        break;
      case TableColumn::Kind::kFactorized:
        value = col.dict.Decode(row[m] * col.factor_base + row[m + 1]);
        break;
      case TableColumn::Kind::kReduced:
        value = col.reducer->RepresentativeValue(row[m], con.range_lo,
                                                 con.range_hi);
        break;
    }
    weight_sum += w;
    weighted_value_sum += w * value;
  }

  result.selectivity = selectivity[0];
  result.count = result.selectivity * static_cast<double>(table_rows_);
  // mean(w * v) is unbiased for E[A * 1q]; scale by |T| for the SUM.
  result.sum = weighted_value_sum / n * static_cast<double>(table_rows_);
  result.avg = weight_sum > 0.0 ? weighted_value_sum / weight_sum : 0.0;
  return result;
}

namespace {
// Envelope identity of the composite model snapshot (everything the serving
// path loads: column metadata, dictionaries, reducers, AR weights). Version 2
// replaced the bare magic-string header of the original format with the
// checksummed util::WriteEnvelope container; old files fail the magic check
// cleanly. Version 3 dropped the Monte-Carlo sample count and exact flag
// from the "gmm" reducer blob and gave the "laplace" blob the same layout.
constexpr std::string_view kModelMagic = "IAMMODEL";
}  // namespace

Status ArDensityEstimator::Save(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  if (!Save(file).ok()) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

Status ArDensityEstimator::Save(std::ostream& stream) const {
  std::ostringstream out;
  WriteString(out, options_.display_name);
  WritePod<uint8_t>(out, options_.use_domain_reduction ? 1 : 0);
  WritePod<uint8_t>(out, options_.biased_sampling ? 1 : 0);
  WritePod<int32_t>(out, options_.progressive_samples);
  WritePod<uint64_t>(out, options_.seed);
  WritePod<uint64_t>(out, table_rows_);

  WritePod<uint32_t>(out, static_cast<uint32_t>(columns_.size()));
  for (size_t c = 0; c < columns_.size(); ++c) {
    WriteString(out, c < column_names_.size() ? column_names_[c] : "");
    WritePod<uint8_t>(out, c < column_types_.size() &&
                                   column_types_[c] ==
                                       data::ColumnType::kCategorical
                               ? 1
                               : 0);
  }
  for (const TableColumn& col : columns_) {
    WritePod<uint8_t>(out, static_cast<uint8_t>(col.kind));
    WritePod<int32_t>(out, col.factor_base);
    WritePod<int32_t>(out, col.first_model_col);
    WritePod<int32_t>(out, col.num_model_cols);
    col.dict.Serialize(out);
    const uint8_t has_reducer = col.reducer != nullptr ? 1 : 0;
    WritePod<uint8_t>(out, has_reducer);
    if (has_reducer) col.reducer->Serialize(out);
  }
  WriteVector(out, model_col_owner_);
  WriteVector(out, model_col_role_);
  made_->Serialize(out);
  WriteEnvelope(stream, kModelMagic, kModelFormatVersion, out.str());
  if (!stream) return Status::IoError("model write failed");
  return Status::Ok();
}

Result<std::unique_ptr<ArDensityEstimator>> ArDensityEstimator::Load(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path);
  return LoadFromStream(file);
}

Result<std::unique_ptr<ArDensityEstimator>> ArDensityEstimator::LoadFromStream(
    std::istream& stream) {
  Result<std::string> payload =
      ReadEnvelope(stream, kModelMagic, kModelFormatVersion);
  if (!payload.ok()) return payload.status();
  std::istringstream in(std::move(payload.value()));

  // The Load() constructor is private; make_unique cannot reach it.
  std::unique_ptr<ArDensityEstimator> est(
      new ArDensityEstimator());  // NOLINT(iam-naked-new): private ctor
  uint8_t use_reduction = 0, biased = 0;
  IAM_RETURN_IF_ERROR(ReadString(in, &est->options_.display_name));
  IAM_RETURN_IF_ERROR(ReadPod(in, &use_reduction));
  IAM_RETURN_IF_ERROR(ReadPod(in, &biased));
  IAM_RETURN_IF_ERROR(ReadPod(in, &est->options_.progressive_samples));
  IAM_RETURN_IF_ERROR(ReadPod(in, &est->options_.seed));
  IAM_RETURN_IF_ERROR(ReadPod(in, &est->table_rows_));
  est->options_.use_domain_reduction = use_reduction != 0;
  est->options_.biased_sampling = biased != 0;
  est->rng_ = Rng(est->options_.seed ^ 0x10adull);

  uint32_t num_columns = 0;
  IAM_RETURN_IF_ERROR(ReadPod(in, &num_columns));
  if (num_columns == 0 || num_columns > 4096) {
    return Status::IoError("implausible column count");
  }
  est->columns_.resize(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string name;
    uint8_t categorical = 0;
    IAM_RETURN_IF_ERROR(ReadString(in, &name));
    IAM_RETURN_IF_ERROR(ReadPod(in, &categorical));
    est->column_names_.push_back(std::move(name));
    est->column_types_.push_back(categorical != 0
                                     ? data::ColumnType::kCategorical
                                     : data::ColumnType::kContinuous);
  }
  for (TableColumn& col : est->columns_) {
    uint8_t kind = 0, has_reducer = 0;
    IAM_RETURN_IF_ERROR(ReadPod(in, &kind));
    if (kind > 2) return Status::IoError("bad column kind");
    col.kind = static_cast<TableColumn::Kind>(kind);
    IAM_RETURN_IF_ERROR(ReadPod(in, &col.factor_base));
    IAM_RETURN_IF_ERROR(ReadPod(in, &col.first_model_col));
    IAM_RETURN_IF_ERROR(ReadPod(in, &col.num_model_cols));
    Result<data::ValueDictionary> dict =
        data::ValueDictionary::Deserialize(in);
    if (!dict.ok()) return dict.status();
    col.dict = std::move(dict.value());
    IAM_RETURN_IF_ERROR(ReadPod(in, &has_reducer));
    if (has_reducer != 0) {
      auto reducer = bucketize::DomainReducer::Deserialize(in);
      if (!reducer.ok()) return reducer.status();
      col.reducer = std::move(reducer.value());
    }
    if (col.kind == TableColumn::Kind::kReduced && col.reducer == nullptr) {
      return Status::IoError("reduced column missing its reducer");
    }
  }
  IAM_RETURN_IF_ERROR(ReadVector(in, &est->model_col_owner_));
  IAM_RETURN_IF_ERROR(ReadVector(in, &est->model_col_role_));
  if (est->model_col_owner_.size() != est->model_col_role_.size() ||
      est->model_col_owner_.empty()) {
    return Status::IoError("inconsistent model column mapping");
  }
  auto made = ar::ResMade::Deserialize(in);
  if (!made.ok()) return made.status();
  est->made_ = std::move(made.value());
  if (est->made_->num_columns() !=
      static_cast<int>(est->model_col_owner_.size())) {
    return Status::IoError("AR model does not match the column mapping");
  }
  est->RegisterSamplerCounters();
  return est;
}

data::Table ArDensityEstimator::SchemaTable() const {
  data::Table schema("schema");
  for (size_t c = 0; c < columns_.size(); ++c) {
    data::Column col;
    col.name = c < column_names_.size() ? column_names_[c] : "";
    col.type = c < column_types_.size() ? column_types_[c]
                                        : data::ColumnType::kContinuous;
    schema.AddColumn(std::move(col));
  }
  return schema;
}

size_t ArDensityEstimator::SizeBytes() const {
  size_t bytes = made_->SizeBytes();
  for (const TableColumn& col : columns_) {
    if (col.kind == TableColumn::Kind::kReduced) {
      bytes += col.reducer->SizeBytes();
    }
  }
  return bytes;
}

int ArDensityEstimator::num_model_columns() const {
  return static_cast<int>(model_col_owner_.size());
}

int ArDensityEstimator::ReducedDomainSize(int table_col) const {
  const TableColumn& col = columns_[table_col];
  return col.kind == TableColumn::Kind::kReduced ? col.reducer->num_buckets()
                                                 : col.dict.size();
}

bool ArDensityEstimator::IsReduced(int table_col) const {
  return columns_[table_col].kind == TableColumn::Kind::kReduced;
}

std::optional<double> ArDensityEstimator::GmmNll(int table_col) const {
  const TableColumn& col = columns_[table_col];
  if (col.kind != TableColumn::Kind::kReduced ||
      options_.reducer_kind != ReducerKind::kGmm) {
    return std::nullopt;
  }
  const auto* reducer =
      static_cast<const bucketize::GmmReducer*>(col.reducer.get());
  return reducer->mixture().MeanNegLogLikelihood(train_values_[table_col]);
}

}  // namespace iam::core
