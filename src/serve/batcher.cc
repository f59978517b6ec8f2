#include "serve/batcher.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "estimator/estimator.h"
#include "obs/metrics.h"
#include "obs/query_log.h"

namespace iam::serve {

ServeMetrics& ServeMetrics::Get() {
  static ServeMetrics metrics = [] {
    obs::MetricRegistry& reg = obs::MetricRegistry::Global();
    return ServeMetrics{
        reg.GetCounter("iam_serve_accepted_total"),
        reg.GetCounter("iam_serve_rejected_total"),
        reg.GetCounter("iam_serve_spilled_total"),
        reg.GetCounter("iam_serve_batches_total"),
    };
  }();
  return metrics;
}

ShardMetrics ShardMetrics::Get(int shard) {
  static constexpr double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string s = std::to_string(shard);
  return ShardMetrics{
      reg.GetCounter("iam_serve_shard_accepted_total", "shard", s),
      reg.GetGauge("iam_serve_queue_depth", "shard", s),
      reg.GetHistogram("iam_serve_batch_size", "shard", s, kBatchBounds),
      reg.GetHistogram("iam_serve_queue_wait_seconds", "shard", s,
                       obs::LatencyBounds()),
      reg.GetHistogram("iam_serve_batch_exec_seconds", "shard", s,
                       obs::LatencyBounds()),
      reg.GetHistogram("iam_serve_query_exec_seconds", "shard", s,
                       obs::LatencyBounds()),
      reg.GetHistogram("iam_serve_query_total_seconds", "shard", s,
                       obs::LatencyBounds()),
  };
}

MicroBatcher::MicroBatcher(ModelRegistry& registry, BatcherOptions options,
                           int shard_index)
    : registry_(registry),
      options_([&options] {
        options.max_batch = std::max(options.max_batch, 1);
        options.queue_capacity = std::max(options.queue_capacity, 0);
        options.max_delay_s = std::max(options.max_delay_s, 0.0);
        return options;
      }()),
      shard_index_(shard_index),
      totals_(ServeMetrics::Get()),
      metrics_(ShardMetrics::Get(shard_index)),
      worker_([this] { WorkerLoop(); }) {}

MicroBatcher::~MicroBatcher() { DrainAndStop(); }

bool MicroBatcher::TryQueue(query::Query&& query, Callback&& done) {
  util::MutexLock lock(mu_);
  if (stop_ || static_cast<int>(queue_.size()) >= options_.queue_capacity) {
    return false;
  }
  queue_.push_back(Request{std::move(query), std::move(done), Stopwatch{}});
  const int depth = static_cast<int>(queue_.size());
  depth_.store(depth, std::memory_order_relaxed);
  totals_.accepted.Add();
  metrics_.accepted.Add();
  metrics_.queue_depth.Set(static_cast<double>(depth));
  work_cv_.notify_one();
  return true;
}

MicroBatcher::Response MicroBatcher::Estimate(const query::Query& q) {
  struct Waiter {
    util::Mutex mu{util::LockRank::kLeaf};
    std::condition_variable cv;
    bool done = false;
    Response response;
  } waiter;
  const bool queued = TryQueue(query::Query(q), [&waiter](const Response& r) {
    util::MutexLock lock(waiter.mu);
    waiter.response = r;
    waiter.done = true;
    waiter.cv.notify_one();
  });
  if (!queued) {
    if (stopped()) {
      return {Status::FailedPrecondition("batcher is draining"), false, 0.0,
              0};
    }
    totals_.rejected.Add();
    return {Status::Ok(), /*overloaded=*/true, 0.0, 0};
  }
  util::MutexLock lock(waiter.mu);
  while (!waiter.done) lock.Wait(waiter.cv);
  return waiter.response;
}

void MicroBatcher::WorkerLoop() {
  std::vector<Request> batch;
  std::vector<query::Query> queries;
  std::vector<double> waits;
  std::vector<estimator::QueryDiagnostics> diags;
  // The worker's generation snapshot: taken once, refreshed only when the
  // registry's version atomic moved — a flush in steady state costs one
  // relaxed load instead of a mutex acquisition.
  std::shared_ptr<LoadedModel> model = registry_.Current(shard_index_);
  // A queue shorter than max_batch flushes once full: no further request can
  // join it, so waiting out max_delay would idle the worker while every new
  // arrival is rejected.
  const int flush_at = std::min(options_.max_batch, options_.queue_capacity);
  for (;;) {
    batch.clear();
    queries.clear();
    {
      util::MutexLock lock(mu_);
      while (queue_.empty() && !stop_) lock.Wait(work_cv_);
      if (queue_.empty()) return;  // stopped and fully drained
      // Coalesce: hold the flush until the batch (or the queue) fills or the
      // head of the queue hits its delay budget. During a drain, flush
      // immediately.
      while (static_cast<int>(queue_.size()) < flush_at && !stop_) {
        const double remaining =
            options_.max_delay_s - queue_.front().queued.ElapsedSeconds();
        if (remaining <= 0.0) break;
        lock.WaitFor(work_cv_, remaining);
      }
      const size_t take = std::min(queue_.size(),
                                   static_cast<size_t>(options_.max_batch));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      const int depth = static_cast<int>(queue_.size());
      depth_.store(depth, std::memory_order_relaxed);
      metrics_.queue_depth.Set(static_cast<double>(depth));
    }

    if (model->version != registry_.current_version()) {
      model = registry_.Current(shard_index_);
    }
    queries.reserve(batch.size());
    waits.clear();
    for (Request& request : batch) {
      // Queue wait is read at dequeue; the histogram Record happens below so
      // it can carry the query-log sequence id as its exemplar.
      waits.push_back(request.queued.ElapsedSeconds());
      queries.push_back(std::move(request.query));
    }
    metrics_.batch_size.Record(static_cast<double>(batch.size()));
    diags.assign(batch.size(), estimator::QueryDiagnostics{});
    Stopwatch exec;
    const std::vector<double> selectivities =
        model->estimator->EstimateBatchDiagnosed(queries, diags);
    const double exec_seconds = exec.ElapsedSeconds();
    const double per_query_exec =
        exec_seconds / static_cast<double>(batch.size());
    metrics_.batch_exec_seconds.Record(exec_seconds);
    metrics_.query_exec_seconds.Record(per_query_exec);
    totals_.batches.Add();

    // One QueryRecord per request (DESIGN.md §17): the sampler diagnostics
    // joined with the serving context. The latency histograms record with
    // the assigned sequence id so tail buckets link back to these records.
    obs::QueryLog& query_log = obs::QueryLog::Global();
    for (size_t i = 0; i < batch.size(); ++i) {
      const estimator::QueryDiagnostics& d = diags[i];
      obs::QueryRecord rec;
      rec.model_version = model->version;
      rec.sampler_draws = d.sampler_draws;
      rec.shard = shard_index_;
      rec.batch_size = static_cast<int32_t>(batch.size());
      rec.sample_rows = d.sample_rows;
      rec.rounds = d.rounds;
      rec.early_stop_round = d.early_stop_round;
      rec.prefix_hits = d.prefix_hits;
      rec.fallbacks = d.fallbacks;
      rec.fallback_column = d.fallback_column;
      rec.dead = d.dead ? 1 : 0;
      rec.ci_half_width = d.ci_half_width;
      rec.selectivity = selectivities[i];
      rec.region_key = d.region_key;
      rec.corrector_mult = d.corrector_multiplier;
      rec.queue_wait_s = waits[i];
      rec.exec_s = per_query_exec;
      rec.total_s = waits[i] + per_query_exec;
      const uint64_t seq = query_log.Append(rec);
      metrics_.queue_wait_seconds.Record(waits[i], seq);
      metrics_.query_total_seconds.Record(rec.total_s, seq);
      if (options_.slow_query_log_s > 0.0 &&
          rec.total_s >= options_.slow_query_log_s) {
        std::fprintf(
            stderr,
            "iam_serve slow query: seq=%llu shard=%d batch=%d "
            "total_ms=%.3f wait_ms=%.3f exec_ms=%.3f draws=%llu rounds=%d "
            "early_stop=%d prefix_hits=%d fallbacks=%d sel=%.6g\n",
            static_cast<unsigned long long>(seq), shard_index_,
            rec.batch_size, rec.total_s * 1e3, rec.queue_wait_s * 1e3,
            rec.exec_s * 1e3,
            static_cast<unsigned long long>(rec.sampler_draws), rec.rounds,
            rec.early_stop_round, rec.prefix_hits, rec.fallbacks,
            rec.selectivity);
      }
    }

    // Callbacks run on the worker thread, outside every lock: they post
    // completions to the event loop (or wake a blocking Estimate waiter) and
    // must be free to take their own locks.
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].done(
          Response{Status::Ok(), false, selectivities[i], model->version});
    }
  }
}

void MicroBatcher::DrainAndStop() {
  stop_flag_.store(true, std::memory_order_release);
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // join_mu_ makes the drain idempotent and safe to race (Shutdown and the
  // destructor can both land here): exactly one caller joins.
  util::MutexLock join(join_mu_);
  if (worker_.joinable()) worker_.join();
}

}  // namespace iam::serve
