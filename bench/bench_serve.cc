// Serving-path benchmark (DESIGN.md §13/§15): an in-process EstimatorServer
// with open-loop loadgens over real loopback sockets.
//
//   bench_serve [--json BENCH_serve.json] [--quick]
//               [--connections N] [--pipeline D]
//
// Experiments:
//   1. QPS sweep at the default batcher config — accepted/rejected counts and
//      client-observed latency percentiles per offered rate. Offered load
//      beyond capacity shows admission control holding the accepted-request
//      p99 down while the reject rate absorbs the excess.
//   2. Batching ablation: the same offered load against max_batch=1 vs the
//      default — dynamic micro-batching must win on achieved throughput and
//      show a mean batch size > 1.
//   3. Hot-swap under load: swaps mid-burst; every accepted request succeeds
//      and answers with one of the two model versions.
//   4. Pooled sampler modes under serving load (applied to every replica).
//   5. Shard scaling: the pipelined loadgen sweeps offered load up to 100k
//      QPS against 1/2/4/8 batcher shards. Explicit reject rate per point;
//      achieved QPS must hold flat past saturation (graceful degradation,
//      not a cliff).
//   6. TCP_NODELAY ablation: pipelined responses with Nagle re-enabled on
//      the server sockets stall on the client's delayed ACKs; the p50 delta
//      is the measured effect.
//   8. Online adaptation (DESIGN.md §18): the demo distribution shifts under
//      a served model; query feedback drives the per-region corrector, the
//      append reservoir fills with shifted rows, and the drift trigger
//      retrains and hot-swaps. Committed bounds: zero failed requests,
//      post-retrain p90 q-error within 2x the pre-shift p90, and feedback
//      ingest under 2% on the served p50.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapt/controller.h"
#include "adapt/feedback.h"
#include "bench/bench_common.h"
#include "data/table.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "query/parser.h"
#include "query/query.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/quantiles.h"
#include "util/stopwatch.h"

namespace iam::bench {
namespace {

struct LoadResult {
  int accepted = 0;
  int rejected = 0;
  int failed = 0;
  double wall_seconds = 0.0;
  ErrorReport latency_ms;        // accepted requests only
  double achieved_qps = 0.0;     // accepted / wall
  double reject_rate = 0.0;      // rejected / issued
  double mean_batch_size = 0.0;  // from serve metrics deltas
};

struct MetricsSnapshot {
  double accepted = 0.0;
  double batches = 0.0;
};

MetricsSnapshot TakeSnapshot() {
  const serve::ServeMetrics& m = serve::ServeMetrics::Get();
  return {static_cast<double>(m.accepted.Total()),
          static_cast<double>(m.batches.Total())};
}

LoadResult FinishLoad(const std::vector<std::vector<double>>& latencies,
                      int accepted, int rejected, int failed,
                      double wall_seconds, const MetricsSnapshot& before) {
  LoadResult result;
  result.wall_seconds = wall_seconds;
  result.accepted = accepted;
  result.rejected = rejected;
  result.failed = failed;
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  result.latency_ms = MakeErrorReport(all);
  result.achieved_qps =
      result.wall_seconds > 0 ? result.accepted / result.wall_seconds : 0.0;
  const int issued = accepted + rejected + failed;
  result.reject_rate =
      issued > 0 ? static_cast<double>(rejected) / issued : 0.0;
  const MetricsSnapshot after = TakeSnapshot();
  const double batches = after.batches - before.batches;
  result.mean_batch_size =
      batches > 0 ? (after.accepted - before.accepted) / batches : 0.0;
  return result;
}

// Open-loop(ish) load: `threads` workers share one global schedule — request
// i is due at i/qps seconds — each worker owning the requests congruent to
// its index. Workers sleep until a request is due, so offered load tracks
// `qps` until the server saturates and the workers themselves fall behind.
LoadResult RunLoad(int port, const std::vector<std::string>& predicates,
                   int total_requests, double qps, int threads) {
  std::vector<std::vector<double>> latencies(threads);
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> failed{0};

  const MetricsSnapshot before = TakeSnapshot();
  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      serve::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failed.fetch_add((total_requests - w + threads - 1) / threads);
        return;
      }
      for (int i = w; i < total_requests; i += threads) {
        const double due = static_cast<double>(i) / qps;
        for (;;) {
          // Sleep the full remaining time (re-checking after each wake)
          // instead of polling: dozens of pacing threads spinning on short
          // sleeps would steal the CPU the server needs.
          const double remaining = due - wall.ElapsedSeconds();
          if (remaining <= 0.0) break;
          std::this_thread::sleep_for(
              std::chrono::duration<double>(remaining));
        }
        Stopwatch rtt;
        const auto reply = client.Estimate(
            predicates[static_cast<size_t>(i) % predicates.size()]);
        if (!reply.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (reply->overloaded) {
          rejected.fetch_add(1);
          continue;
        }
        accepted.fetch_add(1);
        latencies[static_cast<size_t>(w)].push_back(rtt.ElapsedMillis());
      }
    });
  }
  for (std::thread& t : workers) t.join();

  return FinishLoad(latencies, accepted.load(), rejected.load(),
                    failed.load(), wall.ElapsedSeconds(), before);
}

// Pipelined open-loop load: `connections` workers each keep up to `depth`
// estimate frames in flight on one connection (the SendEstimate /
// ReceiveEstimate split), sharing the same global schedule as RunLoad.
// Sends stay paced until the window fills; a full window blocks on a receive
// (the honest saturation behavior: the client cannot push more frames), and
// replies that arrive while a send is not yet due are drained opportunistically
// so the window keeps moving.
LoadResult RunPipelinedLoad(int port,
                            const std::vector<std::string>& predicates,
                            int total_requests, double qps, int connections,
                            int depth) {
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(connections));
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> failed{0};

  const MetricsSnapshot before = TakeSnapshot();
  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(connections));
  for (int w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      serve::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failed.fetch_add((total_requests - w + connections - 1) / connections);
        return;
      }
      std::deque<Stopwatch> inflight;  // send time of each outstanding frame
      bool dead = false;
      auto receive_one = [&] {
        const auto reply = client.ReceiveEstimate();
        const double ms = inflight.front().ElapsedMillis();
        inflight.pop_front();
        if (!reply.ok()) {
          failed.fetch_add(1);
          dead = true;
          return;
        }
        if (reply->overloaded) {
          rejected.fetch_add(1);
          return;
        }
        accepted.fetch_add(1);
        latencies[static_cast<size_t>(w)].push_back(ms);
      };
      for (int i = w; i < total_requests && !dead; i += connections) {
        const double due = static_cast<double>(i) / qps;
        while (!dead) {
          const double remaining = due - wall.ElapsedSeconds();
          if (remaining <= 0.0) break;
          if (inflight.empty()) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(remaining));
            continue;
          }
          // Wait for the next due time, but surface replies as they land.
          const int poll_ms = std::max(
              1, static_cast<int>(std::min(remaining * 1e3, 10.0)));
          const auto ready = client.ReplyReady(poll_ms);
          if (!ready.ok()) {
            dead = true;
          } else if (*ready) {
            receive_one();
          }
        }
        while (!dead && static_cast<int>(inflight.size()) >= depth) {
          receive_one();
        }
        if (dead) break;
        inflight.emplace_back();
        if (!client.SendEstimate(
                     predicates[static_cast<size_t>(i) % predicates.size()])
                 .ok()) {
          inflight.pop_back();
          failed.fetch_add(1);
          dead = true;
        }
      }
      while (!dead && !inflight.empty()) receive_one();
    });
  }
  for (std::thread& t : workers) t.join();
  return FinishLoad(latencies, accepted.load(), rejected.load(),
                    failed.load(), wall.ElapsedSeconds(), before);
}

std::string LoadResultJson(const LoadResult& r, double offered_qps) {
  std::ostringstream out;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"offered_qps\": %.6g, \"accepted\": %d, \"rejected\": %d, "
      "\"failed\": %d, \"achieved_qps\": %.6g, \"reject_rate\": %.6g, "
      "\"mean_batch_size\": %.6g, "
      "\"latency_ms\": {\"mean\": %.6g, \"median\": %.6g, \"p95\": %.6g, "
      "\"p99\": %.6g, \"max\": %.6g}}",
      offered_qps, r.accepted, r.rejected, r.failed, r.achieved_qps,
      r.reject_rate, r.mean_batch_size, r.latency_ms.mean,
      r.latency_ms.median, r.latency_ms.p95, r.latency_ms.p99,
      r.latency_ms.max);
  out << buf;
  return out.str();
}

void PrintLoadRow(const char* label, double offered_qps,
                  const LoadResult& r) {
  std::printf(
      "%-18s %8.0f %9d %9d %8.1f %8.2f %8.2f %8.2f %8.2f\n", label,
      offered_qps, r.accepted, r.rejected, r.achieved_qps, r.mean_batch_size,
      r.latency_ms.median, r.latency_ms.p95, r.latency_ms.p99);
}

}  // namespace
}  // namespace iam::bench

int main(int argc, char** argv) {
  using namespace iam;
  const std::string json_path = bench::JsonOutPath(&argc, argv);
  bool quick = false;
  int connections = 16;   // pipelined loadgen: concurrent connections
  int pipeline_depth = 32;  // in-flight frames per connection
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--pipeline") == 0 && i + 1 < argc) {
      pipeline_depth = std::atoi(argv[++i]);
    }
  }
  connections = std::max(connections, 1);
  pipeline_depth = std::max(pipeline_depth, 1);

  std::printf("training demo model...\n");
  std::unique_ptr<core::ArDensityEstimator> model =
      serve::TrainDemoEstimator();
  // Micro-batching's throughput win comes from fanning one EstimateBatch out
  // across the model's worker pool — a solo request can only ever use one
  // worker — so the served model gets several threads even when the bench
  // default (IAM_BENCH_THREADS) is the paper's serial setting.
  const int model_threads = std::max(bench::BenchThreads(), 4);
  // Enough replicas for the widest shard sweep below: every shard worker
  // flushes against its own estimator instance.
  constexpr int kMaxShards = 8;
  serve::ModelRegistry registry(std::move(model), "", model_threads,
                                kMaxShards);
  const std::vector<std::string> predicates = serve::DemoPredicates(256, 99);
  // More loadgen connections than queue slots, so offered load beyond
  // capacity actually overflows the queue instead of parking in the clients.
  const int kLoadThreads = 64;
  const int sweep_requests = quick ? 600 : 3000;

  // --- 1. QPS sweep, default batching. --------------------------------------
  serve::ServerOptions options;
  options.batcher.queue_capacity = 16;
  std::vector<std::string> sweep_rows;
  {
    serve::EstimatorServer server(registry, options);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf(
        "\n### Serving QPS sweep (max_batch=%d, max_delay=%.0fus, "
        "queue=%d)\n",
        options.batcher.max_batch, options.batcher.max_delay_s * 1e6,
        options.batcher.queue_capacity);
    std::printf("%-18s %8s %9s %9s %8s %8s %8s %8s %8s\n", "config",
                "offered", "accepted", "rejected", "qps", "batch", "p50ms",
                "p95ms", "p99ms");
    for (const double qps : {200.0, 1000.0, 5000.0, 20000.0}) {
      const bench::LoadResult r = bench::RunLoad(
          server.port(), predicates, sweep_requests, qps, kLoadThreads);
      bench::PrintLoadRow("sweep", qps, r);
      sweep_rows.push_back(bench::LoadResultJson(r, qps));
    }
    server.Shutdown();
  }

  // --- 2. Batching ablation: max_batch=1 vs default, same offered load. -----
  std::string ablation_json;
  {
    const double qps = 20000.0;
    serve::ServerOptions unbatched = options;
    unbatched.batcher.max_batch = 1;
    bench::LoadResult base, batched;
    {
      serve::EstimatorServer server(registry, unbatched);
      if (!server.Start().ok()) return 1;
      base = bench::RunLoad(server.port(), predicates, sweep_requests, qps,
                            kLoadThreads);
      server.Shutdown();
    }
    {
      serve::EstimatorServer server(registry, options);
      if (!server.Start().ok()) return 1;
      batched = bench::RunLoad(server.port(), predicates, sweep_requests, qps,
                               kLoadThreads);
      server.Shutdown();
    }
    std::printf("\n### Micro-batching ablation (offered %.0f qps)\n", qps);
    std::printf("%-18s %8s %9s %9s %8s %8s %8s %8s %8s\n", "config",
                "offered", "accepted", "rejected", "qps", "batch", "p50ms",
                "p95ms", "p99ms");
    bench::PrintLoadRow("max_batch=1", qps, base);
    bench::PrintLoadRow("dynamic", qps, batched);
    std::printf("micro-batching speedup: %.2fx throughput, mean batch %.2f\n",
                base.achieved_qps > 0
                    ? batched.achieved_qps / base.achieved_qps
                    : 0.0,
                batched.mean_batch_size);
    ablation_json = "{\"offered_qps\": 20000, \"max_batch_1\": " +
                    bench::LoadResultJson(base, qps) +
                    ", \"dynamic\": " + bench::LoadResultJson(batched, qps) +
                    "}";
  }

  // --- 3. Hot-swap under load. ----------------------------------------------
  std::string swap_json;
  {
    serve::EstimatorServer server(registry, options);
    if (!server.Start().ok()) return 1;
    const uint64_t version_before = registry.Current()->version;
    std::atomic<bool> done{false};
    std::thread swapper([&] {
      // Re-install a freshly trained generation mid-burst.
      std::unique_ptr<core::ArDensityEstimator> next =
          serve::TrainDemoEstimator(2000, 7);
      registry.Swap(std::move(next), "bench-swap");
      done.store(true);
    });
    const bench::LoadResult under_swap = bench::RunLoad(
        server.port(), predicates, sweep_requests, 1000.0, kLoadThreads);
    swapper.join();
    const uint64_t version_after = registry.Current()->version;
    server.Shutdown();
    std::printf("\n### Hot-swap under load\n");
    std::printf(
        "version %llu -> %llu; accepted %d, rejected %d, failed %d\n",
        static_cast<unsigned long long>(version_before),
        static_cast<unsigned long long>(version_after), under_swap.accepted,
        under_swap.rejected, under_swap.failed);
    if (under_swap.failed != 0) {
      std::fprintf(stderr, "FAIL: accepted requests were lost in the swap\n");
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"version_before\": %llu, \"version_after\": %llu, "
                  "\"accepted\": %d, \"rejected\": %d, \"failed\": %d}",
                  static_cast<unsigned long long>(version_before),
                  static_cast<unsigned long long>(version_after),
                  under_swap.accepted, under_swap.rejected, under_swap.failed);
    swap_json = buf;
  }

  // --- 4. Pooled sampler under serving load. --------------------------------
  // Same offered load, two sampler modes of the served model: the pooled
  // megabatch with prefix sharing at a fixed budget (the bit-exact default)
  // and the same with adaptive CI early stopping. The coalesced
  // micro-batches are exactly the megabatches the pooled sampler amortizes,
  // so batching and pooling compound here.
  std::string pooled_json;
  {
    // Flip the sampler mode of EVERY replica between runs — a sharded server
    // snapshots one replica per shard, so a mode set only on replica 0 would
    // silently benchmark a mixed-mode generation. The server is idle in
    // between, and set_adaptive_min_samples takes each estimator's batch
    // mutex, so even a straggling batch would serialize cleanly.
    const auto set_adaptive_all = [&registry](int adaptive) {
      for (int i = 0; i < registry.replicas(); ++i) {
        registry.Current(i)->estimator->set_adaptive_min_samples(adaptive);
      }
    };
    const double qps = 5000.0;
    struct ServeMode {
      const char* label;
      const char* key;
      int adaptive;
    };
    constexpr ServeMode kServeModes[] = {
        {"pooled", "pooled", 0}, {"pooled+adaptive", "pooled_adaptive", 32}};
    std::printf("\n### Pooled sampler under serving load (offered %.0f qps)\n",
                qps);
    std::printf("%-18s %8s %9s %9s %8s %8s %8s %8s %8s\n", "config",
                "offered", "accepted", "rejected", "qps", "batch", "p50ms",
                "p95ms", "p99ms");
    pooled_json = "{\"offered_qps\": 5000";
    for (const ServeMode& mode : kServeModes) {
      set_adaptive_all(mode.adaptive);
      serve::EstimatorServer server(registry, options);
      if (!server.Start().ok()) return 1;
      const bench::LoadResult r = bench::RunLoad(
          server.port(), predicates, sweep_requests, qps, kLoadThreads);
      server.Shutdown();
      bench::PrintLoadRow(mode.label, qps, r);
      pooled_json += std::string(", \"") + mode.key +
                     "\": " + bench::LoadResultJson(r, qps);
    }
    pooled_json += "}";
    set_adaptive_all(0);  // restore the default
  }

  // --- 5. Shard scaling: pipelined loadgen, offered up to 100k QPS. ---------
  // Each shard adds its own queue, worker thread and model replica. On a
  // multi-core host the workers flush in parallel; on a single-core host the
  // residual gain comes from N× aggregate admission capacity. Either way the
  // acceptance bar is graceful degradation: achieved QPS must hold flat from
  // saturation through 100k offered, with the excess absorbed as explicit
  // fast-rejects.
  std::string shards_json = "[";
  {
    const int shard_requests = quick ? 4000 : 20000;
    std::printf(
        "\n### Shard scaling, pipelined loadgen (%d connections x depth %d)\n",
        connections, pipeline_depth);
    std::printf("%-18s %8s %9s %9s %8s %8s %8s %8s %8s\n", "config",
                "offered", "accepted", "rejected", "qps", "batch", "p50ms",
                "p95ms", "p99ms");
    bool first_entry = true;
    for (const int shards : {1, 2, 4, 8}) {
      serve::ServerOptions sharded = options;
      sharded.num_shards = shards;
      serve::EstimatorServer server(registry, sharded);
      if (!server.Start().ok()) return 1;
      std::string points = "[";
      double saturated_qps = 0.0;
      double top_qps = 0.0;
      bool first_point = true;
      for (const double qps : {20000.0, 50000.0, 100000.0}) {
        const bench::LoadResult r =
            bench::RunPipelinedLoad(server.port(), predicates, shard_requests,
                                    qps, connections, pipeline_depth);
        char label[32];
        std::snprintf(label, sizeof(label), "shards=%d", shards);
        bench::PrintLoadRow(label, qps, r);
        if (!first_point) points += ", ";
        first_point = false;
        points += bench::LoadResultJson(r, qps);
        saturated_qps = std::max(saturated_qps, r.achieved_qps);
        top_qps = r.achieved_qps;
      }
      points += "]";
      if (saturated_qps > 0.0 && top_qps < 0.8 * saturated_qps) {
        std::fprintf(stderr,
                     "WARN: shards=%d achieved QPS dropped past saturation "
                     "(%.0f -> %.0f at 100k offered)\n",
                     shards, saturated_qps, top_qps);
      }
      if (!first_entry) shards_json += ", ";
      first_entry = false;
      shards_json += "{\"shards\": " + std::to_string(shards) +
                     ", \"connections\": " + std::to_string(connections) +
                     ", \"pipeline_depth\": " +
                     std::to_string(pipeline_depth) + ", \"points\": " +
                     points + "}";
      server.Shutdown();
    }
  }
  shards_json += "]";

  // --- 6. TCP_NODELAY ablation. ---------------------------------------------
  // Pipelined responses are where Nagle hurts: with several responses in
  // flight, a Nagled server socket holds the next small response until the
  // client's delayed ACK.
  std::string nodelay_json;
  {
    const double qps = 2000.0;
    const int ablation_requests = quick ? 1000 : 4000;
    bench::LoadResult nagled, nodelay;
    {
      serve::ServerOptions no_nodelay = options;
      no_nodelay.tcp_nodelay = false;
      serve::EstimatorServer server(registry, no_nodelay);
      if (!server.Start().ok()) return 1;
      nagled = bench::RunPipelinedLoad(server.port(), predicates,
                                       ablation_requests, qps, 4, 8);
      server.Shutdown();
    }
    {
      serve::EstimatorServer server(registry, options);
      if (!server.Start().ok()) return 1;
      nodelay = bench::RunPipelinedLoad(server.port(), predicates,
                                        ablation_requests, qps, 4, 8);
      server.Shutdown();
    }
    std::printf("\n### TCP_NODELAY ablation (pipelined, offered %.0f qps)\n",
                qps);
    std::printf("%-18s %8s %9s %9s %8s %8s %8s %8s %8s\n", "config",
                "offered", "accepted", "rejected", "qps", "batch", "p50ms",
                "p95ms", "p99ms");
    bench::PrintLoadRow("nagle", qps, nagled);
    bench::PrintLoadRow("nodelay", qps, nodelay);
    std::printf("nodelay p50 effect: %.2fms -> %.2fms\n",
                nagled.latency_ms.median, nodelay.latency_ms.median);
    nodelay_json = "{\"offered_qps\": 2000, \"nagle\": " +
                   bench::LoadResultJson(nagled, qps) + ", \"nodelay\": " +
                   bench::LoadResultJson(nodelay, qps) + "}";
  }

  // --- 7. Query-log reconciliation (DESIGN.md §17). -------------------------
  // The diagnostics ring is a second, per-query view of the same work the
  // aggregate counters sum: one record per accepted request, and the ring's
  // draw total must equal the iam_sampler_samples_total delta exactly. A
  // mismatch means lost records or misattributed draws, and fails the bench.
  std::string querylog_json;
  {
    obs::QueryLog& log = obs::QueryLog::Global();
    obs::Counter& sampler_total =
        obs::MetricRegistry::Global().GetCounter("iam_sampler_samples_total");
    const uint64_t accepted_before = serve::ServeMetrics::Get().accepted.Total();
    const uint64_t appended_before = log.Appended();
    const uint64_t ring_draws_before = log.TotalDraws();
    const uint64_t sampler_before = sampler_total.Total();

    serve::EstimatorServer server(registry, options);
    if (!server.Start().ok()) return 1;
    const bench::LoadResult r = bench::RunLoad(
        server.port(), predicates, sweep_requests, 2000.0, kLoadThreads);
    server.Shutdown();

    const uint64_t accepted =
        serve::ServeMetrics::Get().accepted.Total() - accepted_before;
    const uint64_t records = log.Appended() - appended_before;
    const uint64_t ring_draws = log.TotalDraws() - ring_draws_before;
    const uint64_t sampler_draws = sampler_total.Total() - sampler_before;
    const bool records_match = records == accepted;
    const bool draws_match = ring_draws == sampler_draws;
    std::printf("\n### Query-log reconciliation (offered 2000 qps)\n");
    std::printf(
        "accepted %llu, ring records %llu (%s); sampler draws %llu, "
        "ring draws %llu (%s)\n",
        static_cast<unsigned long long>(accepted),
        static_cast<unsigned long long>(records),
        records_match ? "match" : "MISMATCH",
        static_cast<unsigned long long>(sampler_draws),
        static_cast<unsigned long long>(ring_draws),
        draws_match ? "match" : "MISMATCH");
    if (!records_match || !draws_match || r.failed != 0) {
      std::fprintf(stderr,
                   "FAIL: query-log diagnostics do not reconcile with the "
                   "sampler counters\n");
      return 1;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"offered_qps\": 2000, \"accepted\": %llu, "
                  "\"ring_records\": %llu, \"records_match\": %s, "
                  "\"sampler_draws\": %llu, \"ring_draws\": %llu, "
                  "\"draws_match\": %s}",
                  static_cast<unsigned long long>(accepted),
                  static_cast<unsigned long long>(records),
                  records_match ? "true" : "false",
                  static_cast<unsigned long long>(sampler_draws),
                  static_cast<unsigned long long>(ring_draws),
                  draws_match ? "true" : "false");
    querylog_json = buf;
  }

  // --- 8. Online adaptation: shift -> feedback -> corrector -> retrain. -----
  // A fresh registry serves the demo model while the demo distribution
  // shifts under it (ground truth moves to ShiftedDemoTable, +1.5 on every
  // column). Inline feedback teaches the per-region corrector the shifted
  // ratios; appended shifted rows fill the reservoir; the windowed-p90 drift
  // trigger retrains from the reservoir and swaps the new generation in.
  std::string adapt_json;
  {
    serve::ModelRegistry adapt_registry(serve::TrainDemoEstimator(), "",
                                        model_threads, 2);
    adapt::AdaptOptions aopts;
    aopts.trigger_p90_qerror = 1.5;
    aopts.window = 64;
    aopts.min_window_fill = 16;
    // One feedback pass is 64 records, so a single pass cannot fire twice.
    aopts.min_feedback_between_retrains = 64;
    aopts.min_retrain_rows = 2048;
    aopts.retrain_epochs = 1;
    adapt::AdaptController controller(adapt_registry, aopts);
    serve::ServerOptions adapt_options = options;
    adapt_options.num_shards = 2;
    adapt_options.adapt = &controller;
    serve::EstimatorServer server(adapt_registry, adapt_options);
    if (!server.Start().ok()) return 1;

    // Ground truth before and after the shift, by full scan over a large
    // sample of each distribution. Seed 5 is the demo model's training seed:
    // MakeSynTwi's seed draws the cluster centers, so a different seed would
    // be a different distribution, not a bigger sample of this one.
    const data::Table base_table = serve::DemoTable(20000, 5);
    const data::Table shifted_table = serve::ShiftedDemoTable(20000, 5, 1.5);
    const size_t kFloorRows = base_table.num_rows();
    std::vector<std::string> adapt_preds;
    std::vector<double> truth_base, truth_shift;
    for (const std::string& text : serve::DemoPredicates(64, 7)) {
      const Result<query::Query> parsed =
          query::ParsePredicates(base_table, text);
      if (!parsed.ok()) continue;
      adapt_preds.push_back(text);
      truth_base.push_back(query::TrueSelectivity(base_table, *parsed));
      truth_shift.push_back(query::TrueSelectivity(shifted_table, *parsed));
    }

    int adapt_failed = 0;
    serve::Client probe;
    if (!probe.Connect("127.0.0.1", server.port()).ok()) return 1;
    const auto qerror_stage = [&](const std::vector<double>& truth) {
      std::vector<double> qs;
      for (size_t i = 0; i < adapt_preds.size(); ++i) {
        const auto reply = probe.Estimate(adapt_preds[i]);
        if (!reply.ok() || reply->overloaded) {
          ++adapt_failed;
          continue;
        }
        qs.push_back(query::QError(truth[i], reply->selectivity, kFloorRows));
      }
      return QuantileSummary(std::move(qs));
    };
    const auto feedback_pass = [&] {
      for (size_t i = 0; i < adapt_preds.size(); ++i) {
        adapt::FeedbackPayload fb;
        fb.actual = truth_shift[i];
        fb.predicates = adapt_preds[i];
        if (!probe.Feedback(adapt::EncodeFeedbackPayload(fb)).ok()) {
          ++adapt_failed;
        }
      }
      controller.Flush();
    };

    const QuantileSummary pre = qerror_stage(truth_base);
    const QuantileSummary at_shift = qerror_stage(truth_shift);

    // One feedback pass teaches the corrector the shifted ratios.
    feedback_pass();
    const QuantileSummary corrected = qerror_stage(truth_shift);

    // Stream shifted rows into the reservoir, then keep the feedback loop
    // running until the drift trigger retrains and swaps.
    const data::Table append_rows = serve::ShiftedDemoTable(8192, 5, 1.5);
    adapt::AppendPayload payload;
    payload.cols = append_rows.num_columns();
    payload.values.reserve(append_rows.num_rows() *
                           static_cast<size_t>(append_rows.num_columns()));
    for (size_t r = 0; r < append_rows.num_rows(); ++r) {
      for (int c = 0; c < append_rows.num_columns(); ++c) {
        payload.values.push_back(append_rows.column(c).values[r]);
      }
    }
    if (!probe.AppendData(adapt::EncodeAppendPayload(payload)).ok()) {
      ++adapt_failed;
    }
    controller.Flush();
    int passes = 0;
    while (controller.Retrains() == 0 && passes < 10) {
      feedback_pass();
      ++passes;
    }
    const uint64_t version_after = adapt_registry.Current()->version;
    server.Shutdown();
    if (controller.Retrains() == 0) {
      std::fprintf(stderr, "FAIL: drift trigger never fired a retrain\n");
      return 1;
    }
    const QuantileSummary retrained = [&] {
      // Fresh server on the swapped generation for the recovery read.
      serve::EstimatorServer after(adapt_registry, adapt_options);
      if (!after.Start().ok()) std::exit(1);
      serve::Client reader;
      if (!reader.Connect("127.0.0.1", after.port()).ok()) std::exit(1);
      std::vector<double> qs;
      for (size_t i = 0; i < adapt_preds.size(); ++i) {
        const auto reply = reader.Estimate(adapt_preds[i]);
        if (!reply.ok() || reply->overloaded) {
          ++adapt_failed;
          continue;
        }
        qs.push_back(
            query::QError(truth_shift[i], reply->selectivity, kFloorRows));
      }
      after.Shutdown();
      return QuantileSummary(std::move(qs));
    }();
    const double recovery_ratio =
        pre.Quantile(0.9) > 0 ? retrained.Quantile(0.9) / pre.Quantile(0.9)
                              : 0.0;

    // Feedback-ingest overhead on the served p50: the same offered load with
    // and without a concurrent seq-form feedback stream (~100 records/s, a
    // 10% feedback:query ratio), on a trigger-disabled controller so no
    // retrain perturbs the measurement. Offered load sits at half the
    // sweep's saturation point: at the knee, any added frame amplifies
    // through queueing and the number reads as congestion, not ingest cost.
    // Ingest shifts the whole latency curve, so the min p50 across
    // alternating reps reads that shift under the scheduler noise that
    // dominates any single rep.
    double base_p50 = 0.0, with_p50 = 0.0;
    {
      adapt::AdaptOptions ingest_opts;
      ingest_opts.trigger_p90_qerror = 0.0;
      adapt::AdaptController ingest(adapt_registry, ingest_opts);
      serve::ServerOptions ingest_server_opts = options;
      ingest_server_opts.adapt = &ingest;
      serve::EstimatorServer ingest_server(adapt_registry, ingest_server_opts);
      if (!ingest_server.Start().ok()) return 1;
      const double qps = 1000.0;
      std::vector<double> base_p50s, with_p50s;
      // Paired arms: BOTH run the identical feeder thread, connection and
      // wake cadence; only the with-arm actually sends the frames. The
      // extra runnable thread alone shifts p50 on an oversubscribed host,
      // so it must be present in both arms for the delta to read the
      // ingest path and nothing else.
      const auto run_arm = [&](bool send_feedback) {
        std::atomic<bool> stop_feedback{false};
        std::thread feeder([&] {
          serve::Client fc;
          if (!fc.Connect("127.0.0.1", ingest_server.port()).ok()) return;
          while (!stop_feedback.load(std::memory_order_relaxed)) {
            // Feed back against the most recent query-log record — the
            // cheap ingest path (seq lookup, no inline estimate).
            const uint64_t seq = obs::QueryLog::Global().Appended();
            if (send_feedback && seq > 0) {
              adapt::FeedbackPayload fb;
              fb.seq = seq;
              fb.actual = 0.5;
              (void)fc.Feedback(adapt::EncodeFeedbackPayload(fb));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        });
        const bench::LoadResult r = bench::RunLoad(
            ingest_server.port(), predicates, sweep_requests, qps,
            kLoadThreads);
        stop_feedback.store(true, std::memory_order_relaxed);
        feeder.join();
        return r;
      };
      // Alternate which mode runs first so slow machine-wide drift (thermal,
      // background load) cancels instead of biasing one mode.
      for (int rep = 0; rep < 4; ++rep) {
        bench::LoadResult base, with;
        if (rep % 2 == 0) {
          base = run_arm(/*send_feedback=*/false);
          with = run_arm(/*send_feedback=*/true);
        } else {
          with = run_arm(/*send_feedback=*/true);
          base = run_arm(/*send_feedback=*/false);
        }
        adapt_failed += base.failed + with.failed;
        base_p50s.push_back(base.latency_ms.median);
        with_p50s.push_back(with.latency_ms.median);
      }
      ingest_server.Shutdown();
      base_p50 = *std::min_element(base_p50s.begin(), base_p50s.end());
      with_p50 = *std::min_element(with_p50s.begin(), with_p50s.end());
    }
    const double overhead_pct =
        base_p50 > 0 ? (with_p50 - base_p50) / base_p50 * 100.0 : 0.0;

    std::printf("\n### Online adaptation (shift +1.5, %zu queries)\n",
                adapt_preds.size());
    std::printf(
        "q-error p50/p90: pre-shift %.3f/%.3f, at shift %.3f/%.3f, "
        "corrected %.3f/%.3f, retrained %.3f/%.3f\n",
        pre.Median(), pre.Quantile(0.9), at_shift.Median(),
        at_shift.Quantile(0.9), corrected.Median(), corrected.Quantile(0.9),
        retrained.Median(), retrained.Quantile(0.9));
    std::printf(
        "retrains %llu (model v%llu), recovery ratio %.3f, failed %d, "
        "feedback-ingest p50 %.3fms -> %.3fms (%.2f%%)\n",
        static_cast<unsigned long long>(controller.Retrains()),
        static_cast<unsigned long long>(version_after), recovery_ratio,
        adapt_failed, base_p50, with_p50, overhead_pct);
    if (adapt_failed != 0) {
      std::fprintf(stderr, "FAIL: requests failed during adaptation\n");
      return 1;
    }
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"queries\": %zu, \"shift\": 1.5, "
        "\"qerror_p50_preshift\": %.6g, \"qerror_p90_preshift\": %.6g, "
        "\"qerror_p50_shift\": %.6g, \"qerror_p90_shift\": %.6g, "
        "\"qerror_p50_corrected\": %.6g, \"qerror_p90_corrected\": %.6g, "
        "\"qerror_p50_retrained\": %.6g, \"qerror_p90_retrained\": %.6g, "
        "\"recovery_ratio\": %.6g, \"retrains\": %llu, "
        "\"model_version_after\": %llu, \"failed\": %d, "
        "\"ingest_base_p50_ms\": %.6g, \"ingest_feedback_p50_ms\": %.6g, "
        "\"feedback_overhead_pct\": %.6g}",
        adapt_preds.size(), pre.Median(), pre.Quantile(0.9),
        at_shift.Median(), at_shift.Quantile(0.9), corrected.Median(),
        corrected.Quantile(0.9), retrained.Median(), retrained.Quantile(0.9),
        recovery_ratio,
        static_cast<unsigned long long>(controller.Retrains()),
        static_cast<unsigned long long>(version_after), adapt_failed,
        base_p50, with_p50, overhead_pct);
    adapt_json = buf;
  }

  if (!json_path.empty()) {
    std::string sweep = "[";
    for (size_t i = 0; i < sweep_rows.size(); ++i) {
      if (i > 0) sweep += ", ";
      sweep += sweep_rows[i];
    }
    sweep += "]";
    bool ok = bench::MergeJsonSection(json_path, "serve_sweep", sweep);
    ok = bench::MergeJsonSection(json_path, "serve_batching", ablation_json) &&
         ok;
    ok = bench::MergeJsonSection(json_path, "serve_hot_swap", swap_json) && ok;
    ok = bench::MergeJsonSection(json_path, "serve_pooled", pooled_json) && ok;
    ok = bench::MergeJsonSection(json_path, "serve_shards", shards_json) && ok;
    ok = bench::MergeJsonSection(json_path, "serve_nodelay", nodelay_json) &&
         ok;
    ok = bench::MergeJsonSection(json_path, "serve_querylog", querylog_json) &&
         ok;
    ok = bench::MergeJsonSection(json_path, "serve_adapt", adapt_json) && ok;
    ok = bench::MergeMetricsIntoJson(json_path) && ok;
    if (!ok) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nresults written to %s\n", json_path.c_str());
  }
  return 0;
}
