#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "query/parser.h"
#include "serve/batcher.h"
#include "serve/demo.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/shards.h"
#include "util/mutex.h"
#include "util/stopwatch.h"

namespace iam::serve {
namespace {

// One small trained model shared by every batcher test in this binary
// (training dominates the suite's runtime; the tests only need *a* model).
ModelRegistry& SharedRegistry() {
  static ModelRegistry registry(TrainDemoEstimator(1200, 11), "");
  return registry;
}

query::Query DemoQuery() {
  const auto parsed =
      query::ParsePredicates(SharedRegistry().Current()->schema,
                             "latitude >= 35 AND longitude <= -100");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

// --- Wire protocol. ---------------------------------------------------------

TEST(ProtocolTest, FrameRoundTrip) {
  const std::string binary{"\x00\x01\xff payload", 11};
  for (const Frame frame : {Frame{FrameType::kEstimate, "latitude >= 35"},
                            Frame{FrameType::kMetrics, ""},
                            Frame{FrameType::kEstimateOk, binary}}) {
    const std::string encoded = EncodeFrame(frame);
    Frame decoded;
    const Result<size_t> consumed = DecodeFrame(encoded, &decoded);
    ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
    EXPECT_EQ(*consumed, encoded.size());
    EXPECT_EQ(decoded.type, frame.type);
    EXPECT_EQ(decoded.payload, frame.payload);
  }
}

TEST(ProtocolTest, BackToBackFramesDecodeInOrder) {
  const std::string stream = EncodeFrame({FrameType::kEstimate, "a"}) +
                             EncodeFrame({FrameType::kShutdown, ""});
  Frame first;
  const Result<size_t> used = DecodeFrame(stream, &first);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(first.type, FrameType::kEstimate);
  Frame second;
  const Result<size_t> rest =
      DecodeFrame(std::string_view(stream).substr(*used), &second);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(second.type, FrameType::kShutdown);
  EXPECT_EQ(*used + *rest, stream.size());
}

TEST(ProtocolTest, IncompleteBufferAsksForMore) {
  const std::string encoded =
      EncodeFrame({FrameType::kEstimate, "latitude >= 35"});
  for (size_t len = 0; len < encoded.size(); ++len) {
    Frame frame;
    const Result<size_t> consumed =
        DecodeFrame(std::string_view(encoded).substr(0, len), &frame);
    ASSERT_TRUE(consumed.ok()) << "prefix " << len;
    EXPECT_EQ(*consumed, 0u) << "prefix " << len;
  }
}

TEST(ProtocolTest, MalformedHeadersRejected) {
  // Length 0 cannot even hold the type byte.
  const std::string zero{"\x00\x00\x00\x00", 4};
  Frame frame;
  EXPECT_FALSE(DecodeFrame(zero, &frame).ok());

  // A length announcing more than kMaxPayloadBytes is a desynchronized or
  // hostile stream, not a frame to wait for.
  uint32_t huge = kMaxPayloadBytes + 2;
  std::string oversized(4, '\0');
  std::memcpy(oversized.data(), &huge, 4);
  EXPECT_FALSE(DecodeFrame(oversized, &frame).ok());
}

TEST(ProtocolTest, EstimatePayloadRoundTrip) {
  const double selectivities[] = {0.0, 1.0, 1e-17, 0.123456789012345678};
  for (const double s : selectivities) {
    const std::string payload = EncodeEstimatePayload(s, 42);
    double sel = -1.0;
    uint64_t version = 0;
    ASSERT_TRUE(DecodeEstimatePayload(payload, &sel, &version).ok());
    EXPECT_EQ(sel, s);  // bit-exact
    EXPECT_EQ(version, 42u);
  }
  double sel = 0.0;
  uint64_t version = 0;
  EXPECT_FALSE(DecodeEstimatePayload("short", &sel, &version).ok());
}

// --- Model registry. --------------------------------------------------------

TEST(ModelRegistryTest, SwapBumpsVersionAndKeepsOldSnapshotAlive) {
  ModelRegistry registry(TrainDemoEstimator(1200, 11), "first");
  const std::shared_ptr<LoadedModel> first = registry.Current();
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->source, "first");

  const uint64_t v2 = registry.Swap(TrainDemoEstimator(1200, 12), "second");
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(registry.Current()->version, 2u);

  // The snapshot taken before the swap is still the old generation and still
  // answers queries — this is what lets in-flight batches drain.
  EXPECT_EQ(first->version, 1u);
  const auto q = query::ParsePredicates(first->schema, "latitude >= 40");
  ASSERT_TRUE(q.ok());
  const double estimate = first->estimator->Estimate(*q);
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, 1.0);
}

TEST(ModelRegistryTest, FailedSwapFromFileKeepsServing) {
  ModelRegistry& registry = SharedRegistry();
  const uint64_t version = registry.Current()->version;
  const auto swapped = registry.SwapFromFile("/nonexistent/model.iam");
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(registry.Current()->version, version);
}

// The swap path comes off the wire: an endless file must fail on its header
// (bad magic after eight bytes) rather than be read to the end.
TEST(ModelRegistryTest, SwapFromEndlessFileFailsFast) {
  ModelRegistry& registry = SharedRegistry();
  const uint64_t version = registry.Current()->version;
  const auto swapped = registry.SwapFromFile("/dev/zero");
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kIoError);
  EXPECT_EQ(registry.Current()->version, version);
}

// --- Micro-batcher. ---------------------------------------------------------

TEST(MicroBatcherTest, SoloRequestMatchesDirectEstimate) {
  const query::Query q = DemoQuery();
  // A batch of one is seeded exactly like Estimate(); the serving path must
  // be bit-identical to the library path for a lone request.
  const double direct = SharedRegistry().Current()->estimator->Estimate(q);

  MicroBatcher batcher(SharedRegistry(), BatcherOptions{});
  const MicroBatcher::Response response = batcher.Estimate(q);
  batcher.DrainAndStop();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.overloaded);
  EXPECT_EQ(response.selectivity, direct);
  EXPECT_EQ(response.model_version, SharedRegistry().Current()->version);
}

// Acceptance check (ISSUE 9): a served query's QueryLog record reconciles
// exactly with the iam_sampler_samples_total delta it caused — the ring's
// per-query attribution and the aggregate counter are two views of the same
// draws, and a batch of one pins the delta to a single record.
TEST(MicroBatcherTest, SoloRequestQueryLogReconcilesWithSamplerCounters) {
  const query::Query q = DemoQuery();
  obs::QueryLog& log = obs::QueryLog::Global();
  obs::Counter& sampler_total =
      obs::MetricRegistry::Global().GetCounter("iam_sampler_samples_total");
  const uint64_t appended_before = log.Appended();
  const uint64_t log_draws_before = log.TotalDraws();
  const uint64_t sampler_before = sampler_total.Total();

  MicroBatcher batcher(SharedRegistry(), BatcherOptions{});
  const MicroBatcher::Response response = batcher.Estimate(q);
  batcher.DrainAndStop();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_FALSE(response.overloaded);

  ASSERT_EQ(log.Appended(), appended_before + 1);
  obs::QueryLogFilter last1;
  last1.last_n = 1;
  const std::vector<obs::QueryRecord> records = log.Snapshot(last1);
  ASSERT_EQ(records.size(), 1u);
  const obs::QueryRecord& rec = records[0];
  EXPECT_EQ(rec.seq, log.Appended());
  EXPECT_EQ(rec.shard, 0);
  EXPECT_EQ(rec.batch_size, 1);
  EXPECT_EQ(rec.model_version, SharedRegistry().Current()->version);
  EXPECT_EQ(rec.dead, 0);
  EXPECT_EQ(rec.selectivity, response.selectivity);
  EXPECT_GE(rec.rounds, 1);
  EXPECT_GE(rec.queue_wait_s, 0.0);
  EXPECT_GT(rec.exec_s, 0.0);
  EXPECT_DOUBLE_EQ(rec.total_s, rec.queue_wait_s + rec.exec_s);

  // Exact reconciliation: record == counter delta == ring aggregate delta.
  const uint64_t sampler_delta = sampler_total.Total() - sampler_before;
  EXPECT_GT(rec.sampler_draws, 0u);
  EXPECT_EQ(rec.sampler_draws, sampler_delta);
  EXPECT_EQ(log.TotalDraws() - log_draws_before, sampler_delta);
}

TEST(MicroBatcherTest, CoalescesConcurrentRequests) {
  constexpr int kClients = 8;
  BatcherOptions options;
  options.max_batch = kClients;
  options.max_delay_s = 0.2;  // long enough for all clients to queue up
  MicroBatcher batcher(SharedRegistry(), options);

  const query::Query q = DemoQuery();
  const uint64_t batches_before = ServeMetrics::Get().batches.Total();
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      const MicroBatcher::Response r = batcher.Estimate(q);
      if (!r.status.ok() || r.overloaded) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  batcher.DrainAndStop();

  EXPECT_EQ(failures.load(), 0);
  // All kClients answered in fewer than kClients flushes — i.e. they shared
  // micro-batches. (Exactly one flush in the common case; the bound stays
  // robust on a loaded machine.)
  const uint64_t batches = ServeMetrics::Get().batches.Total() - batches_before;
  EXPECT_GE(batches, 1u);
  EXPECT_LT(batches, static_cast<uint64_t>(kClients));
}

// A queue shorter than max_batch can never reach max_batch, so it must
// flush as soon as it is full rather than idle out max_delay while new
// arrivals are rejected.
TEST(MicroBatcherTest, FullQueueBelowMaxBatchFlushesWithoutWaitingOutDelay) {
  constexpr int kCapacity = 4;
  BatcherOptions options;
  options.queue_capacity = kCapacity;
  options.max_batch = 32;
  options.max_delay_s = 1.0;
  MicroBatcher batcher(SharedRegistry(), options);

  const uint64_t batches_before = ServeMetrics::Get().batches.Total();
  std::atomic<int> answered{0};
  Stopwatch watch;
  const auto done = [&answered](const MicroBatcher::Response& r) {
    if (r.status.ok() && !r.overloaded) answered.fetch_add(1);
  };
  for (int i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(batcher.TryQueue(DemoQuery(), MicroBatcher::Callback(done)));
  }
  while (answered.load() < kCapacity && watch.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed = watch.ElapsedSeconds();
  batcher.DrainAndStop();

  EXPECT_EQ(answered.load(), kCapacity);
  EXPECT_LT(elapsed, 0.5 * options.max_delay_s);
  // One flush of the full queue, not a delay-expired partial one.
  EXPECT_EQ(ServeMetrics::Get().batches.Total() - batches_before, 1u);
}

TEST(MicroBatcherTest, ZeroCapacityFastRejectsEverything) {
  BatcherOptions options;
  options.queue_capacity = 0;
  MicroBatcher batcher(SharedRegistry(), options);
  const MicroBatcher::Response response = batcher.Estimate(DemoQuery());
  EXPECT_TRUE(response.status.ok());
  EXPECT_TRUE(response.overloaded);
  batcher.DrainAndStop();
}

TEST(MicroBatcherTest, DrainStopsAdmissionAndIsIdempotent) {
  MicroBatcher batcher(SharedRegistry(), BatcherOptions{});
  batcher.DrainAndStop();
  batcher.DrainAndStop();  // second drain is a no-op
  const MicroBatcher::Response response = batcher.Estimate(DemoQuery());
  EXPECT_FALSE(response.status.ok());
}

// --- Shard set. -------------------------------------------------------------

// Collects async completions from ShardSet::Submit.
struct CallbackSink {
  util::Mutex mu;
  std::condition_variable cv;
  int ok = 0;
  int overloaded = 0;
  int failed = 0;

  MicroBatcher::Callback Make() {
    return [this](const MicroBatcher::Response& r) {
      util::MutexLock lock(mu);
      if (!r.status.ok()) {
        ++failed;
      } else if (r.overloaded) {
        ++overloaded;
      } else {
        ++ok;
      }
      cv.notify_all();
    };
  }

  void WaitForTotal(int n) {
    util::MutexLock lock(mu);
    while (ok + overloaded + failed < n) lock.Wait(cv);
  }
};

TEST(ShardedBatcherTest, AsyncCallbackMatchesDirectEstimate) {
  const query::Query q = DemoQuery();
  const double direct = SharedRegistry().Current()->estimator->Estimate(q);

  BatcherOptions options;
  options.max_delay_s = 1e-4;
  ShardSet set(SharedRegistry(), options, 2);
  util::Mutex mu;
  std::condition_variable cv;
  bool done = false;
  MicroBatcher::Response response;
  set.Submit(1, query::Query(q), [&](const MicroBatcher::Response& r) {
    util::MutexLock lock(mu);
    response = r;
    done = true;
    cv.notify_one();
  });
  {
    util::MutexLock lock(mu);
    while (!done) lock.Wait(cv);
  }
  set.DrainAndStop();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.overloaded);
  // A lone request is a batch of one on whichever shard admitted it, so the
  // sharded path stays bit-identical to the library's Estimate().
  EXPECT_EQ(response.selectivity, direct);
}

TEST(ShardedBatcherTest, SpillsToSiblingThenRejectsWhenAllFull) {
  BatcherOptions options;
  options.max_batch = 64;
  options.max_delay_s = 0.0;
  options.queue_capacity = 2;
  ShardSet set(SharedRegistry(), options, 2);
  EXPECT_FALSE(set.saturated());

  // Each shard's worker is held inside the callback of one plug request, so
  // admitted requests stay queued and admission fills deterministically.
  struct Gate {
    util::Mutex mu;
    std::condition_variable cv;
    int entered = 0;
    bool open = false;
  } gate;
  const auto plug = [&gate](const MicroBatcher::Response&) {
    util::MutexLock lock(gate.mu);
    ++gate.entered;
    gate.cv.notify_all();
    while (!gate.open) lock.Wait(gate.cv);
  };
  for (int shard = 0; shard < 2; ++shard) {
    set.Submit(shard, DemoQuery(), plug);
    util::MutexLock lock(gate.mu);
    while (gate.entered <= shard) lock.Wait(gate.cv);
  }

  const uint64_t spilled_before = ServeMetrics::Get().spilled.Total();
  CallbackSink sink;
  // All four name shard 0 as home: two land there, two spill to shard 1.
  for (int i = 0; i < 4; ++i) set.Submit(0, DemoQuery(), sink.Make());
  EXPECT_EQ(set.shard(0).ApproxQueueDepth(), 2);
  EXPECT_EQ(set.shard(1).ApproxQueueDepth(), 2);
  EXPECT_EQ(ServeMetrics::Get().spilled.Total() - spilled_before, 2u);

  // Every queue is at capacity: the shared overload signal trips and the
  // fifth submission rejects inline.
  EXPECT_TRUE(set.saturated());
  set.Submit(0, DemoQuery(), sink.Make());
  {
    util::MutexLock lock(sink.mu);
    EXPECT_EQ(sink.overloaded, 1);
  }

  // Releasing the workers and draining flushes both shards; every admitted
  // callback fires exactly once.
  {
    util::MutexLock lock(gate.mu);
    gate.open = true;
  }
  gate.cv.notify_all();
  set.DrainAndStop();
  sink.WaitForTotal(5);
  util::MutexLock lock(sink.mu);
  EXPECT_EQ(sink.ok, 4);
  EXPECT_EQ(sink.overloaded, 1);
  EXPECT_EQ(sink.failed, 0);
}

TEST(ShardedBatcherTest, StoppedSetFailsSubmissionsInline) {
  ShardSet set(SharedRegistry(), BatcherOptions{}, 2);
  set.DrainAndStop();
  CallbackSink sink;
  set.Submit(0, DemoQuery(), sink.Make());
  sink.WaitForTotal(1);
  util::MutexLock lock(sink.mu);
  EXPECT_EQ(sink.failed, 1);
}

TEST(ModelRegistryTest, ReplicasAreIndependentBitExactClones) {
  ModelRegistry registry(TrainDemoEstimator(1200, 11), "", 1, 3);
  EXPECT_EQ(registry.replicas(), 3);
  // Distinct instances (shard workers must not share a batch mutex)...
  EXPECT_NE(registry.Current(0).get(), registry.Current(1).get());
  EXPECT_NE(registry.Current(1).get(), registry.Current(2).get());
  // ...wrapping one generation: same version, shard index wraps.
  EXPECT_EQ(registry.Current(1)->version, registry.Current(0)->version);
  EXPECT_EQ(registry.Current(3).get(), registry.Current(0).get());

  // Every replica loads from the same serialized bytes (the in-memory donor
  // is discarded — a round trip rounds parameters), so a solo request
  // answers identically no matter which replica serves it.
  const auto q = query::ParsePredicates(registry.Current()->schema,
                                        "latitude >= 35 AND longitude <= -100");
  ASSERT_TRUE(q.ok());
  const double first = registry.Current(0)->estimator->Estimate(*q);
  EXPECT_EQ(registry.Current(1)->estimator->Estimate(*q), first);
  EXPECT_EQ(registry.Current(2)->estimator->Estimate(*q), first);
}

// Replicas clone through memory, not the filesystem: with TMPDIR naming a
// directory that does not exist, a two-replica registry still holds two
// distinct estimator instances (shards must not share one batch mutex).
TEST(ModelRegistryTest, ReplicasCloneWithoutATempDirectory) {
  const char* old_tmpdir = std::getenv("TMPDIR");
  const std::string saved = old_tmpdir != nullptr ? old_tmpdir : "";
  ::setenv("TMPDIR", "/nonexistent/iam-registry-tmpdir", 1);
  ModelRegistry registry(TrainDemoEstimator(1200, 11), "", 1, 2);
  if (old_tmpdir != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_NE(registry.Current(0)->estimator.get(),
            registry.Current(1)->estimator.get());
  EXPECT_EQ(registry.Current(1)->version, registry.Current(0)->version);
}

}  // namespace
}  // namespace iam::serve
