#ifndef IAM_CORE_AR_DENSITY_ESTIMATOR_H_
#define IAM_CORE_AR_DENSITY_ESTIMATOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "ar/resmade.h"
#include "bucketize/domain_reducer.h"
#include "bucketize/mixture_reducer.h"
#include "data/dictionary.h"
#include "data/table.h"
#include "estimator/corrector.h"
#include "estimator/estimator.h"
#include "gmm/gmm1d.h"
#include "nn/adam.h"
#include "query/query.h"
#include "util/random.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace iam::core {

// The model file version Save() writes, and the only one LoadFromStream
// reads (DESIGN.md §13).
inline constexpr uint32_t kModelFormatVersion = 3;

// How a continuous large-domain attribute is fed to the AR model.
enum class ReducerKind {
  kGmm,        // the paper's choice (Section 4.2)
  kEquiDepth,  // Section 6.6 alternative
  kSpline,     // Section 6.6 alternative
  kUmm,        // Section 6.6 alternative
  kLaplace,    // heavier-tailed mixture (the paper's future work)
};

struct ArEstimatorOptions {
  // true  -> IAM: continuous attributes above the threshold go through a
  //          domain reducer and inference applies the bias correction.
  // false -> Naru/NeuroCard baseline: such attributes are dictionary-encoded
  //          and column-factorized; vanilla progressive sampling.
  bool use_domain_reduction = true;
  std::string display_name;  // defaults to "iam" / "neurocard"

  // Attributes with more distinct values than this are reduced (IAM) or
  // factorized (baseline). The paper uses 1000.
  size_t large_domain_threshold = 1000;

  // Autoregressive column order: a permutation of the table's column
  // indices. Empty means the natural left-to-right order, which the paper
  // (following Naru) found effective; the bench_column_order ablation
  // compares alternatives.
  std::vector<int> column_order;

  ReducerKind reducer_kind = ReducerKind::kGmm;
  int reducer_components = 30;  // paper default; <= 0 -> VBGM auto-selection
  int gmm_sgd_passes = 1;  // GMM SGD steps per AR batch
  double gmm_learning_rate = 5e-3;

  // Column factorization (NeuroCard): sub-column domain 2^factor_bits.
  int factor_bits = 11;

  // Training.
  int epochs = 10;
  int batch_size = 256;
  size_t max_train_rows = 1 << 20;
  double learning_rate = 1e-3;
  ar::ResMadeConfig made;

  // Inference.
  int progressive_samples = 256;
  // Worker threads for EstimateBatch and for build-time reducer fitting.
  // Estimates are bit-identical at any thread count: every query gets its own
  // deterministic Rng (seed ^ query index) and is sampled start to end by
  // one worker (DESIGN.md §14).
  int num_threads = 1;

  // > 0 enables adaptive budgets in the sampler: every query starts
  // with this many sample rows, the budget doubles each round, and sampling
  // stops early once the running estimate's confidence interval converges
  // (or progressive_samples is reached). Deterministic per options.seed and
  // invariant to the thread count — convergence depends only on the query's
  // own draws. 0 = fixed budget, the bit-exactness regime.
  int adaptive_min_samples = 0;
  // Early-stop rule: stop once z * stderr(mean weight) is at most
  // rel * mean + abs.
  double adaptive_ci_z = 1.96;
  double adaptive_ci_rel = 0.05;
  double adaptive_ci_abs = 1e-5;
  // Conditional probabilities at or below this floor are treated as exact
  // zeros by the sampler (core/sampling_utils.h floored variants).
  // 0 disables the floor bitwise; the zero-mass fallback regression tests
  // use it as a deterministic trigger.
  double min_conditional_prob = 0.0;
  // Ablation switch: when true, the next coordinate of a reduced column is
  // drawn from the *uncorrected* AR conditional (the vanilla progressive
  // sampler the paper proves biased on IAM in Section 5.2) instead of the
  // bias-corrected product. Range factors are recorded the same way.
  bool biased_sampling = false;

  uint64_t seed = 42;
};

// The repository's central model: a ResMADE autoregressive density estimator
// over per-column encodings, covering both the paper's IAM (GMM-reduced
// domains + unbiased bias-corrected progressive sampling, Sections 4-5) and
// the Naru/NeuroCard baseline (column factorization + vanilla progressive
// sampling) depending on ArEstimatorOptions::use_domain_reduction.
class ArDensityEstimator : public estimator::Estimator {
 public:
  ArDensityEstimator(const data::Table& table, ArEstimatorOptions options);
  ~ArDensityEstimator() override;

  ArDensityEstimator(const ArDensityEstimator&) = delete;
  ArDensityEstimator& operator=(const ArDensityEstimator&) = delete;

  // Full training run (options.epochs epochs).
  void Train();

  // One epoch of joint GMM+AR SGD; returns the epoch's mean AR
  // cross-entropy. The model is queryable between epochs (Figure 6).
  double TrainEpoch();

  std::string name() const override;
  double Estimate(const query::Query& q) override;
  std::vector<double> EstimateBatch(std::span<const query::Query> qs) override;
  // Same estimates, plus per-query sampler diagnostics (DESIGN.md §17). The
  // sampler accumulates the diagnostic fields whether or not a caller asks
  // for them, so the two entry points stay bit-identical; the span only
  // controls the copy-out.
  std::vector<double> EstimateBatchDiagnosed(
      std::span<const query::Query> qs,
      std::span<estimator::QueryDiagnostics> diags) override;
  size_t SizeBytes() const override;

  // Approximate aggregation (the paper's future-work extension): estimates
  // SELECT COUNT(*), SUM(target), AVG(target) FROM T WHERE q, running the
  // same sampler as EstimateBatch on a one-query batch with the
  // target column always materialized (Rng seed options.seed ^ 0xa99f00d).
  // For a GMM-reduced target the per-sample value is the truncated component
  // mean. `table_rows` scales COUNT/SUM back to absolute units. Under
  // adaptive budgets the aggregate stops early like any estimate and
  // averages over the rows it drew.
  struct AggregateResult {
    double selectivity = 0.0;
    double count = 0.0;
    double sum = 0.0;
    double avg = 0.0;
  };
  AggregateResult EstimateAggregate(const query::Query& q, int target_col);

  // Model persistence: everything inference needs — column metadata,
  // dictionaries, reducers, AR weights — in one binary file. Training state
  // (the row sample, optimizer moments) is not preserved; a loaded model is
  // for inference only.
  Status Save(const std::string& path) const;
  // Stream variant of Save: writes the same checksummed snapshot to `out`.
  Status Save(std::ostream& out) const;
  static Result<std::unique_ptr<ArDensityEstimator>> Load(
      const std::string& path);
  // Stream variant of Load: validates the checksummed envelope and every
  // payload field from `in` without touching the filesystem. This is the
  // untrusted-input surface the hot-swap path exposes (kSwap names a file,
  // but the bytes are attacker-shaped) — fuzzed in fuzz/fuzz_envelope.cc;
  // any byte stream must yield a model or a clean Status, never a crash.
  static Result<std::unique_ptr<ArDensityEstimator>> LoadFromStream(
      std::istream& in);

  // --- Introspection (tests, benches). --------------------------------------
  int num_model_columns() const;
  // Reduced domain size of a table column (its bucket count if reduced,
  // otherwise its dictionary size).
  int ReducedDomainSize(int table_col) const;
  bool IsReduced(int table_col) const;
  double last_epoch_loss() const { return last_epoch_loss_; }
  // Mean GMM negative log-likelihood over the training sample for a reduced
  // GMM column; nullopt otherwise.
  std::optional<double> GmmNll(int table_col) const;
  // Direct access to the underlying AR model and reducers (tests, ablations).
  ar::ResMade& made() { return *made_; }
  const bucketize::DomainReducer* reducer(int table_col) const {
    return columns_[table_col].reducer.get();
  }
  const ArEstimatorOptions& options() const { return options_; }
  // Sets options().adaptive_min_samples on a live estimator (bench/serve A/B
  // comparisons). Serialized against in-flight batches by the batch mutex.
  void set_adaptive_min_samples(int adaptive_min_samples);
  // Installs (or, with nullptr, removes) the post-estimate feedback
  // corrector (DESIGN.md §18): while one is installed, every estimate is
  // multiplied by its multiplier for the query's region key. Serialized
  // against in-flight batches by the batch mutex; the corrector outlives
  // every batch that can observe it via the shared_ptr. With no corrector
  // the correction loop never runs, so estimates are bit-identical to an
  // uncorrected build. Serving-side runtime state — not persisted by
  // Save/Load; the adapt subsystem re-installs it on every registry
  // generation.
  void set_corrector(
      std::shared_ptr<const estimator::SelectivityCorrector> corrector);
  // The corrector region key of a query (DESIGN.md §18): an FNV-1a hash of
  // the query's merged per-column intervals quantized onto the model's
  // grids — GMM/reducer bucket indices of the interval endpoints for reduced
  // columns, dictionary code ranges for raw/factorized columns. A pure
  // function of the query and the immutable model structure, so the same
  // query maps to the same region on every replica of a generation.
  uint64_t CorrectorRegionKey(const query::Query& q) const;
  // Source-table schema (names/types), preserved through Save/Load so a
  // reloaded model can parse predicate strings without the original data.
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  // An empty table carrying just the schema; suitable for
  // query::ParsePredicates against a loaded model.
  data::Table SchemaTable() const;

 private:
  struct TableColumn {
    enum class Kind { kRaw, kFactorized, kReduced } kind;
    data::ValueDictionary dict;  // kRaw / kFactorized
    std::unique_ptr<bucketize::DomainReducer> reducer;  // kReduced
    int first_model_col = 0;
    int num_model_cols = 1;
    int factor_base = 0;  // kFactorized: low sub-column domain size
  };

  // Per-query inference state for one table column.
  struct Constraint {
    bool active = false;
    bool impossible = false;
    int code_lo = 0;
    int code_hi = -1;
    std::vector<double> mass;  // kReduced: bias-correction vector
    double range_lo = 0.0;     // raw predicate interval (aggregation)
    double range_hi = 0.0;
  };

  // A query's predicates on one table column, intersected into one interval;
  // `touched` is false (and the bounds infinite) when no predicate names it.
  struct Interval {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool touched = false;
  };
  // One Interval per table column. The single merge rule behind both
  // BuildConstraints and CorrectorRegionKey.
  std::vector<Interval> MergePredicates(const query::Query& q) const;

  // Grows the per-worker AR evaluation contexts and sampler scratch to the
  // pool size.
  void EnsureContexts() IAM_REQUIRES(batch_mu_);

  // One draw of a query's next coordinate for the model column owned by
  // `col` (`role` = sub-column role, `high` = the already-sampled high
  // sub-column value, used only for factorized low columns). Also called by
  // the per-query reference sampler in tests/pooled_sampler_test.cc, which
  // the engine must match bitwise. sampled < 0 or mass <= 0 means the
  // row hit the zero-mass wildcard fallback.
  struct DrawOutcome {
    int sampled = -1;
    double mass = 0.0;
  };
  DrawOutcome DrawCoordinate(const TableColumn& col, const Constraint& con,
                             int role, int high, const float* prow,
                             Rng& rng) const;

  // One query's sampler state and diagnostics (DESIGN.md §14, §17). The
  // worker that samples the query owns it, so none of it needs
  // synchronization, and every field but `worker` is a function of (model,
  // query, seed) alone — never of the batch or the thread count.
  struct PooledQuery {
    std::vector<Constraint> constraints;
    Rng rng{0};
    int worker = 0;             // whose SamplerScratch holds the rows
    bool dead = false;
    int samples_done = 0;       // rows finished in completed waves
    double weight_sum = 0.0;
    double weight_sq = 0.0;
    uint64_t draws = 0;         // rows drawn across all (wave, column) steps
    uint64_t gemm_rows = 0;     // conditional rows evaluated
    int prefix_hits = 0;        // rows that shared an earlier row's prefix
    int fallbacks = 0;          // zero-mass wildcard fallbacks
    int fallback_column = -1;   // table column of the last fallback
    int rounds = 0;             // waves executed for this query
    int early_stop_round = -1;  // wave the CI test stopped it at
    double ci_half_width = 0.0;  // last computed CI half-width
  };
  // One pool worker's sampler buffers, reused query after query. Row s of
  // the query being sampled is samples[s * M, (s + 1) * M) (M = model
  // columns); after the batch they hold the worker's last query.
  struct SamplerScratch {
    std::vector<int> samples;      // [sp, M] sampled values, wildcards first
    std::vector<double> weights;   // [sp] running likelihood weights
    std::vector<int> live;         // the column's live rows, ascending
    std::vector<int> row_uid;      // per row: its prefix's unique row
    std::vector<int> group_begin;  // live rows grouped by parent unique row
    std::vector<int> by_parent;
    std::vector<int> parent_of;    // per unique row: the parent's unique row
    std::vector<int> unique_rows;  // [U, M] one row per distinct prefix
    std::vector<uint64_t> value_stamp;  // dedup of a parent's child values
    std::vector<int> value_uid;
    uint64_t stamp = 0;
    nn::Matrix probs;              // [U, D] the column's conditionals
  };
  struct PooledScratch {
    std::vector<PooledQuery> queries;
    std::vector<SamplerScratch> workers;
  };
  // The progressive-sampling engine (DESIGN.md §14): one ParallelFor over
  // the queries, each worker running whole queries — every wave, column by
  // column, with per-query prefix dedup and carried ResMADE activations —
  // plus optional adaptive budgets. Query i draws from Rng(seed ^ i);
  // force_active_col is passed to BuildConstraints. `diags` is empty or one
  // entry per query. On return pooled_.queries[i] holds query i's state,
  // and pooled_.workers[queries[i].worker] its rows if it was the last
  // query that worker sampled.
  void EstimateBatchPooled(std::span<const query::Query> qs, uint64_t seed,
                           int force_active_col,
                           std::vector<double>& estimates,
                           std::span<estimator::QueryDiagnostics> diags)
      IAM_REQUIRES(batch_mu_);
  // Runs every wave of one query on one worker's scratch and context.
  void SampleQuery(PooledQuery& pq, SamplerScratch& sc,
                   ar::ResMade::Context& ctx) const;
  // Collapses sc.live to the distinct prefixes below the column about to
  // be sampled. With parent column p (the wave's last sampled column, or
  // -1 before the first) and its `parents` unique rows, two rows share a
  // prefix iff they share p's prefix (row_uid) and p's value. Fills
  // row_uid with the new ids, unique_rows and parent_of (numbered grouped
  // by parent, as the carry needs) and returns the number of unique rows.
  int DedupPrefixes(int p, int parents, SamplerScratch& sc) const;

  ArDensityEstimator() : rng_(0) {}  // for Load()

  // Resolves the per-column labeled counters (zero-mass wildcard fallbacks,
  // keyed by column name) once per model so the sampler hot loop is a plain
  // pointer chase. Called after column_names_ is known (ctor and Load()).
  void RegisterSamplerCounters();

  void BuildColumns(const data::Table& table);
  void BuildTrainingSample(const data::Table& table);
  void EncodeStaticColumns();

  // force_active_col >= 0 marks that table column active (full range when
  // unqueried) so its coordinate is always sampled (aggregation targets).
  std::vector<Constraint> BuildConstraints(const query::Query& q,
                                           int force_active_col = -1) const;

  ArEstimatorOptions options_;
  size_t table_rows_ = 0;
  std::vector<std::string> column_names_;
  std::vector<data::ColumnType> column_types_;

  std::vector<TableColumn> columns_;
  std::vector<int> model_col_owner_;  // model col -> table col
  std::vector<int> model_col_role_;   // 0 = only/high, 1 = low sub-column

  // Training sample: raw values per table column (row-major per column).
  std::vector<std::vector<double>> train_values_;
  size_t train_rows_ = 0;
  // Encoded tuples; reduced columns are re-encoded every batch while the GMM
  // is still moving.
  std::vector<std::vector<int>> encoded_;

  // One registry-owned counter per table column:
  // iam_sampler_zero_mass_fallbacks_total{column="<name>"}.
  std::vector<obs::Counter*> fallback_counters_;

  std::unique_ptr<ar::ResMade> made_;
  nn::Adam adam_;
  Rng rng_;  // training-only (sampling rows, shuffling, wildcard masking)
  double last_epoch_loss_ = 0.0;

  // One ResMADE evaluation context per pool worker, indexed by the worker id
  // ParallelFor hands the body. Guarded by the base class's batch mutex: the
  // batch entry points (EstimateBatch, EstimateAggregate) serialize on
  // batch_mu_, so two external callers never share a slot even though the
  // pool hands out the same worker ids to both.
  std::vector<ar::ResMade::Context> contexts_ IAM_GUARDED_BY(batch_mu_);
  // Sampler buffers, reused across batches (same guard as contexts_).
  PooledScratch pooled_ IAM_GUARDED_BY(batch_mu_);
  // Post-estimate corrector; null when correction is off.
  std::shared_ptr<const estimator::SelectivityCorrector> corrector_
      IAM_GUARDED_BY(batch_mu_);

  // Test-only access for the per-query reference sampler.
  friend struct ArDensityEstimatorTestPeer;
};

}  // namespace iam::core

#endif  // IAM_CORE_AR_DENSITY_ESTIMATOR_H_
