#ifndef IAM_SERVE_BATCHER_H_
#define IAM_SERVE_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>

#include "query/query.h"
#include "serve/model_registry.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace iam::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace iam::obs

namespace iam::serve {

struct BatcherOptions {
  // Flush when this many requests have coalesced (or the queue is full,
  // when queue_capacity is smaller)...
  int max_batch = 32;
  // ...or when the oldest queued request has waited this long, whichever
  // comes first. The classic dynamic micro-batching trade: larger batches
  // amortize the model's per-batch cost (thread-pool fan-out, shared
  // scratch), the deadline bounds the latency a lonely request can pay.
  double max_delay_s = 2e-3;
  // Admission watermark per shard: a request arriving while this many are
  // already queued is fast-rejected (kOverloaded) — or spilled to a less
  // loaded sibling shard by ShardSet — instead of queued, which keeps the
  // latency of *accepted* requests bounded when offered load exceeds
  // capacity.
  int queue_capacity = 512;
  // > 0 logs every query whose end-to-end latency (queue wait + amortized
  // execution) meets the threshold to stderr, one line per query with its
  // query-log sequence id and sampler diagnostics (serve_cli --slow-ms).
  double slow_query_log_s = 0.0;
};

// Process-wide serving totals, resolved once from the global registry
// (DESIGN.md §12 idiom). Per-shard series live in ShardMetrics.
struct ServeMetrics {
  obs::Counter& accepted;
  obs::Counter& rejected;
  obs::Counter& spilled;  // admitted on a sibling after the home shard filled
  obs::Counter& batches;

  static ServeMetrics& Get();
};

// The per-shard instrumentation: the queue-depth gauge and the batching
// histograms carry a `shard` label so an operator can see one hot shard
// behind a flat total. Series of one family share the Prometheus # TYPE
// header and merge deterministically in snapshots (name-sorted; see
// DESIGN.md §12).
struct ShardMetrics {
  obs::Counter& accepted;
  obs::Gauge& queue_depth;
  obs::Histogram& batch_size;
  obs::Histogram& queue_wait_seconds;
  obs::Histogram& batch_exec_seconds;
  // Batch execution time amortized per query — the number the pooled
  // cross-query sampler moves: coalescing now compounds with sampling
  // instead of only saving queueing overhead.
  obs::Histogram& query_exec_seconds;
  // End-to-end per-query latency (queue wait + amortized execution), the
  // distribution the query-log records reconstruct exactly; carries
  // query-log exemplars so a tail bucket links to concrete records.
  obs::Histogram& query_total_seconds;

  static ShardMetrics Get(int shard);
};

// One dynamic micro-batching shard: callers submit queries with a completion
// callback, a single worker thread coalesces up to max_batch (or until the
// oldest request hits max_delay) and flushes one Estimator::EstimateBatch
// per micro-batch against the shard's cached model snapshot. The snapshot
// refreshes only when ModelRegistry::current_version() moved (one relaxed
// load per flush), so a hot-swap takes effect at the next flush — never
// mid-batch — and shard workers never contend on the registry mutex in
// steady state.
//
// Note on determinism: EstimateBatch seeds each query's sampler from its
// index within the batch, so an estimate under dynamic batching depends on
// the batch composition — i.e. on arrival timing. Every such estimate equals
// some fixed-batch estimate of the same model; a solo request (batch of one)
// reproduces Estimator::Estimate bit-exactly.
class MicroBatcher {
 public:
  MicroBatcher(ModelRegistry& registry, BatcherOptions options,
               int shard_index = 0);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  struct Response {
    Status status;  // non-OK only when the batcher is already stopped
    bool overloaded = false;
    double selectivity = 0.0;
    uint64_t model_version = 0;
  };

  // Invoked exactly once per admitted request, from the worker thread, after
  // the request's batch flushed (or inline from DrainAndStop's final drain).
  using Callback = std::function<void(const Response&)>;

  // Non-blocking admission: queues the query and returns true — the callback
  // fires exactly once, later, from the worker thread. Returns false when
  // the queue is at capacity or the batcher is draining; in that case the
  // callback is never invoked AND the arguments are left untouched (rvalue
  // refs are only moved from on admission), so the caller can re-route the
  // same query to a sibling shard or reject it.
  bool TryQueue(query::Query&& query, Callback&& done) IAM_EXCLUDES(mu_);

  // Blocking convenience wrapper over TryQueue (library callers and tests):
  // coalesces the query into the next micro-batch and waits for its flush,
  // or fast-rejects with overloaded=true when the queue is at capacity.
  Response Estimate(const query::Query& q) IAM_EXCLUDES(mu_);

  // Stops admission, flushes everything already queued (in max_batch-sized
  // batches, callbacks included), and joins the worker. Idempotent; called
  // by the destructor.
  void DrainAndStop() IAM_EXCLUDES(mu_);

  // Queue depth as one relaxed atomic load — cheap enough for sibling shards
  // and the event loop to poll on every admission decision.
  int ApproxQueueDepth() const {
    return depth_.load(std::memory_order_relaxed);
  }

  bool stopped() const { return stop_flag_.load(std::memory_order_acquire); }

  int shard_index() const { return shard_index_; }
  const BatcherOptions& options() const { return options_; }

 private:
  struct Request {
    query::Query query;
    Callback done;
    Stopwatch queued;  // running since enqueue; read at dequeue
  };

  void WorkerLoop() IAM_EXCLUDES(mu_);

  ModelRegistry& registry_;
  const BatcherOptions options_;
  const int shard_index_;
  ServeMetrics& totals_;
  ShardMetrics metrics_;

  mutable util::Mutex mu_{util::LockRank::kBatcherQueue};
  std::condition_variable work_cv_;  // worker: arrivals / stop
  std::deque<Request> queue_ IAM_GUARDED_BY(mu_);
  bool stop_ IAM_GUARDED_BY(mu_) = false;
  std::atomic<int> depth_{0};
  std::atomic<bool> stop_flag_{false};

  // Serializes the DrainAndStop join.
  util::Mutex join_mu_{util::LockRank::kBatcherJoin};
  std::thread worker_;   // started last, joined by DrainAndStop
};

}  // namespace iam::serve

#endif  // IAM_SERVE_BATCHER_H_
