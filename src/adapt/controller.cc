#include "adapt/controller.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/ar_density_estimator.h"
#include "estimator/estimator.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "query/parser.h"
#include "query/query.h"

namespace iam::adapt {

namespace {

// Registry-owned instrumentation of the adaptation loop, resolved once.
// Counters cover every way a record can leave the pipeline; the gauges are
// projections of controller atomics refreshed by RefreshGauges inside the
// server's single-snapshot scrape.
struct AdaptMetrics {
  obs::Counter& feedback_total;     // accepted into the intake queue
  obs::Counter& feedback_rejected;  // malformed payload (kError at intake)
  obs::Counter& feedback_dropped;   // queue full (kOverloaded at intake)
  obs::Counter& feedback_invalid;   // unresolvable at processing time
  obs::Counter& feedback_stale;     // feedback for a superseded generation
  obs::Counter& corrector_updates;
  obs::Counter& append_rows;
  obs::Counter& retrains;
  obs::Counter& retrain_failed;
  obs::Counter& retrain_skipped;  // trigger fired without enough data
  obs::Gauge& queue_depth;
  obs::Gauge& window_p90;
  obs::Gauge& corrector_regions;
  obs::Gauge& reservoir_rows;
  obs::Gauge& corrector_generation;

  static AdaptMetrics& Get() {
    static AdaptMetrics metrics = [] {
      obs::MetricRegistry& reg = obs::MetricRegistry::Global();
      return AdaptMetrics{
          reg.GetCounter("iam_adapt_feedback_total"),
          reg.GetCounter("iam_adapt_feedback_rejected_total"),
          reg.GetCounter("iam_adapt_feedback_dropped_total"),
          reg.GetCounter("iam_adapt_feedback_invalid_total"),
          reg.GetCounter("iam_adapt_feedback_stale_total"),
          reg.GetCounter("iam_adapt_corrector_updates_total"),
          reg.GetCounter("iam_adapt_append_rows_total"),
          reg.GetCounter("iam_adapt_retrains_total"),
          reg.GetCounter("iam_adapt_retrain_failed_total"),
          reg.GetCounter("iam_adapt_retrain_skipped_total"),
          reg.GetGauge("iam_adapt_queue_depth"),
          reg.GetGauge("iam_adapt_window_p90_qerror"),
          reg.GetGauge("iam_adapt_corrector_regions"),
          reg.GetGauge("iam_adapt_reservoir_rows"),
          reg.GetGauge("iam_adapt_corrector_generation"),
      };
    }();
    return metrics;
  }
};

}  // namespace

AdaptController::AdaptController(serve::ModelRegistry& registry,
                                 AdaptOptions options)
    : registry_(registry),
      options_(options),
      corrector_(std::make_shared<RegionCorrector>(options.corrector)),
      schema_(registry.Current()->schema) {
  // Generation coherence (DESIGN.md §18): the hook runs under the registry
  // mutex for every replica of each installed generation — and immediately
  // for the current one — so a generation is never visible to shard workers
  // with a corrector carrying another generation's corrections. Lock order
  // stays descending: registry mu_ (kRegistry) -> batch_mu_
  // (kEstimatorBatch) -> corrector mu_ (kCorrector).
  registry_.SetInstallHook([this](serve::LoadedModel& model) {
    if (corrector_->generation() != model.version) {
      corrector_->Reset(model.version);
    }
    model.estimator->set_corrector(options_.enable_corrector ? corrector_
                                                             : nullptr);
  });
  last_generation_ = corrector_->generation();
  worker_ = std::thread([this] { WorkerLoop(); });
}

AdaptController::~AdaptController() {
  // Detach from the registry first: a swap arriving mid-destruction must
  // not call into a dying controller.
  registry_.SetInstallHook({});
  Stop();
}

serve::AdaptationHooks::Ack AdaptController::OnFeedback(
    std::string_view payload) {
  AdaptMetrics& metrics = AdaptMetrics::Get();
  Result<FeedbackPayload> parsed = ParseFeedbackPayload(payload);
  if (!parsed.ok()) {
    metrics.feedback_rejected.Add();
    return {false, false, parsed.status().ToString()};
  }
  util::MutexLock lock(queue_mu_);
  if (stop_ || queue_.size() >= options_.queue_capacity) {
    metrics.feedback_dropped.Add();
    return {false, true, ""};
  }
  Record record;
  record.feedback = std::move(*parsed);
  queue_.push_back(std::move(record));
  ++enqueued_;
  queue_depth_.store(static_cast<int>(queue_.size()),
                     std::memory_order_relaxed);
  metrics.feedback_total.Add();
  work_cv_.notify_one();
  return {true, false, "queued"};
}

serve::AdaptationHooks::Ack AdaptController::OnAppendData(
    std::string_view payload) {
  AdaptMetrics& metrics = AdaptMetrics::Get();
  Result<AppendPayload> parsed = ParseAppendPayload(payload);
  if (!parsed.ok()) {
    metrics.feedback_rejected.Add();
    return {false, false, parsed.status().ToString()};
  }
  if (parsed->cols != schema_.num_columns()) {
    metrics.feedback_rejected.Add();
    return {false, false,
            "append: " + std::to_string(parsed->cols) + " columns, schema " +
                "has " + std::to_string(schema_.num_columns())};
  }
  const size_t rows = parsed->rows();
  if (rows == 0) {
    metrics.feedback_rejected.Add();
    return {false, false, "append: no rows"};
  }
  util::MutexLock lock(queue_mu_);
  if (stop_ || queue_.size() >= options_.queue_capacity) {
    metrics.feedback_dropped.Add();
    return {false, true, ""};
  }
  Record record;
  record.is_append = true;
  record.append = std::move(*parsed);
  queue_.push_back(std::move(record));
  ++enqueued_;
  queue_depth_.store(static_cast<int>(queue_.size()),
                     std::memory_order_relaxed);
  work_cv_.notify_one();
  return {true, false, std::to_string(rows) + " rows queued"};
}

void AdaptController::RefreshGauges() {
  AdaptMetrics& metrics = AdaptMetrics::Get();
  metrics.queue_depth.Set(
      static_cast<double>(queue_depth_.load(std::memory_order_relaxed)));
  metrics.window_p90.Set(WindowP90());
  metrics.corrector_regions.Set(
      static_cast<double>(corrector_->NumRegions()));
  metrics.reservoir_rows.Set(
      static_cast<double>(reservoir_rows_.load(std::memory_order_relaxed)));
  metrics.corrector_generation.Set(
      static_cast<double>(corrector_->generation()));
}

void AdaptController::Flush() {
  util::MutexLock lock(queue_mu_);
  while (processed_ < enqueued_) lock.Wait(flush_cv_);
}

void AdaptController::Stop() {
  {
    util::MutexLock lock(queue_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

double AdaptController::WindowP90() const {
  return std::bit_cast<double>(
      window_p90_bits_.load(std::memory_order_relaxed));
}

void AdaptController::WorkerLoop() {
  for (;;) {
    Record record;
    {
      util::MutexLock lock(queue_mu_);
      while (queue_.empty() && !stop_) lock.Wait(work_cv_);
      if (queue_.empty()) return;  // stopped and fully drained
      record = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(static_cast<int>(queue_.size()),
                         std::memory_order_relaxed);
    }
    // Generation boundary: an out-of-band swap (kSwap, SIGHUP) reset the
    // corrector; the drift window measured the dead generation, so it
    // resets with it.
    const uint64_t generation = corrector_->generation();
    if (generation != last_generation_) {
      last_generation_ = generation;
      window_qerrors_.clear();
      window_p90_bits_.store(0, std::memory_order_relaxed);
      feedback_since_retrain_ = 0;
    }
    if (record.is_append) {
      ProcessAppend(record.append);
    } else {
      ProcessFeedback(record.feedback);
    }
    {
      util::MutexLock lock(queue_mu_);
      ++processed_;
    }
    flush_cv_.notify_all();
  }
}

void AdaptController::ProcessFeedback(const FeedbackPayload& feedback) {
  AdaptMetrics& metrics = AdaptMetrics::Get();
  double served = 0.0;  // the estimate the client saw (corrected)
  double raw = 0.0;     // the uncorrected estimate the corrector learns from
  uint64_t region_key = 0;
  if (feedback.seq > 0) {
    const std::optional<obs::QueryRecord> rec =
        obs::QueryLog::Global().Find(feedback.seq);
    if (!rec.has_value()) {
      metrics.feedback_invalid.Add();  // never appended or lapped
      return;
    }
    if (rec->model_version != corrector_->generation()) {
      metrics.feedback_stale.Add();
      return;
    }
    served = rec->selectivity;
    raw = rec->corrector_mult > 0.0 ? served / rec->corrector_mult : served;
    region_key = rec->region_key;
  } else {
    Result<query::Query> parsed =
        query::ParsePredicates(schema_, feedback.predicates);
    if (!parsed.ok()) {
      metrics.feedback_invalid.Add();
      return;
    }
    // Inline feedback carries no serving record; one diagnosed estimate on
    // replica 0 recovers the region key and the raw/corrected pair.
    const std::shared_ptr<serve::LoadedModel> model = registry_.Current();
    const query::Query q = std::move(*parsed);
    std::vector<estimator::QueryDiagnostics> diags(1);
    const std::vector<double> estimates =
        model->estimator->EstimateBatchDiagnosed({&q, 1}, diags);
    if (model->version != corrector_->generation()) {
      metrics.feedback_stale.Add();  // swap landed between lookup and now
      return;
    }
    served = estimates[0];
    raw = diags[0].corrector_multiplier > 0.0
              ? served / diags[0].corrector_multiplier
              : served;
    region_key = diags[0].region_key;
  }
  if (options_.enable_corrector) {
    corrector_->Observe(region_key, raw, feedback.actual);
    metrics.corrector_updates.Add();
  }
  feedback_processed_.fetch_add(1, std::memory_order_relaxed);
  NoteQError(query::QError(feedback.actual, served,
                           options_.qerror_floor_rows));
  ++feedback_since_retrain_;
  MaybeRetrain();
}

void AdaptController::ProcessAppend(const AppendPayload& append) {
  const int cols = schema_.num_columns();
  if (append.cols != cols || options_.reservoir_capacity == 0) return;
  if (reservoir_.empty()) {
    reservoir_.assign(options_.reservoir_capacity * static_cast<size_t>(cols),
                      0.0);
  }
  const size_t rows = append.rows();
  for (size_t r = 0; r < rows; ++r) {
    double* dst =
        &reservoir_[reservoir_next_row_ * static_cast<size_t>(cols)];
    const double* src = &append.values[r * static_cast<size_t>(cols)];
    std::copy(src, src + cols, dst);
    reservoir_next_row_ =
        (reservoir_next_row_ + 1) % options_.reservoir_capacity;
    reservoir_filled_ =
        std::min(reservoir_filled_ + 1, options_.reservoir_capacity);
  }
  reservoir_rows_.store(reservoir_filled_, std::memory_order_relaxed);
  AdaptMetrics::Get().append_rows.Add(rows);
}

void AdaptController::NoteQError(double qerror) {
  window_qerrors_.push_back(qerror);
  while (static_cast<int>(window_qerrors_.size()) > options_.window) {
    window_qerrors_.pop_front();
  }
  double p90 = 0.0;
  if (static_cast<int>(window_qerrors_.size()) >= options_.min_window_fill) {
    std::vector<double> sorted(window_qerrors_.begin(),
                               window_qerrors_.end());
    const size_t idx =
        std::min(sorted.size() - 1, (sorted.size() * 9) / 10);
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(idx),
                     sorted.end());
    p90 = sorted[idx];
  }
  window_p90_bits_.store(std::bit_cast<uint64_t>(p90),
                         std::memory_order_relaxed);
}

void AdaptController::MaybeRetrain() {
  if (options_.trigger_p90_qerror <= 0.0) return;
  if (static_cast<int>(window_qerrors_.size()) < options_.min_window_fill) {
    return;
  }
  if (WindowP90() <= options_.trigger_p90_qerror) return;
  if (feedback_since_retrain_ < options_.min_feedback_between_retrains) {
    return;
  }
  AdaptMetrics& metrics = AdaptMetrics::Get();
  if (reservoir_filled_ < options_.min_retrain_rows) {
    // Query drift without fresh data: the corrector is the only lever.
    metrics.retrain_skipped.Add();
    feedback_since_retrain_ = 0;  // back off; don't re-count every feedback
    return;
  }
  // Retrain on this (the adaptation) thread — serving keeps answering from
  // the installed generation throughout. The new model re-fits the GMM
  // reducers on the reservoir rows in its constructor and fine-tunes the AR
  // weights for retrain_epochs epochs of joint SGD.
  const data::Table table = BuildReservoirTable();
  core::ArEstimatorOptions opts = registry_.Current()->estimator->options();
  opts.epochs = options_.retrain_epochs;
  auto model = std::make_unique<core::ArDensityEstimator>(table, opts);
  double loss = 0.0;
  for (int epoch = 0; epoch < options_.retrain_epochs; ++epoch) {
    loss = model->TrainEpoch();
  }
  if (!std::isfinite(loss)) {
    // A diverged fit never reaches the registry: the old generation keeps
    // serving, and the back-off lets feedback accumulate before a retry.
    metrics.retrain_failed.Add();
    retrain_failures_.fetch_add(1, std::memory_order_relaxed);
    feedback_since_retrain_ = 0;
    return;
  }
  registry_.Swap(std::move(model), "adapt-retrain");
  metrics.retrains.Add();
  retrains_done_.fetch_add(1, std::memory_order_relaxed);
  feedback_since_retrain_ = 0;
  // The install hook already reset the corrector to the new generation;
  // reset the thread-local window state in step with it.
  last_generation_ = corrector_->generation();
  window_qerrors_.clear();
  window_p90_bits_.store(0, std::memory_order_relaxed);
}

data::Table AdaptController::BuildReservoirTable() const {
  const int cols = schema_.num_columns();
  const size_t rows = reservoir_filled_;
  const bool wrapped = reservoir_filled_ == options_.reservoir_capacity;
  data::Table table("adapt_reservoir");
  for (int c = 0; c < cols; ++c) {
    data::Column column;
    column.name = schema_.column(c).name;
    column.type = schema_.column(c).type;
    column.values.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      // Oldest-first once the ring wrapped; insertion order before.
      const size_t r =
          wrapped ? (reservoir_next_row_ + i) % options_.reservoir_capacity
                  : i;
      column.values.push_back(
          reservoir_[r * static_cast<size_t>(cols) + static_cast<size_t>(c)]);
    }
    table.AddColumn(std::move(column));
  }
  return table;
}

}  // namespace iam::adapt
