// End-to-end tests of the estimator service over real loopback sockets.
// Everything here carries the ctest label "net" (see tests/CMakeLists.txt):
// the quick sanitizer gates exclude it, the default configs and the TSan
// serve gate run it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/controller.h"
#include "adapt/corrector.h"
#include "adapt/feedback.h"
#include "core/ar_density_estimator.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "query/parser.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/stopwatch.h"

namespace iam::serve {
namespace {

constexpr char kPredicate[] = "latitude >= 35 AND longitude <= -100";

ModelRegistry& SharedRegistry() {
  static ModelRegistry registry(TrainDemoEstimator(1200, 11), "");
  return registry;
}

Client ConnectedClient(const EstimatorServer& server) {
  Client client;
  const Status connected = client.Connect("127.0.0.1", server.port());
  EXPECT_TRUE(connected.ok()) << connected.ToString();
  return client;
}

// Raw client socket for the wire-level tests (arbitrary byte chunking, frames
// the Client class would never send). rcvbuf_bytes > 0 shrinks SO_RCVBUF
// before connecting, which pins the advertised window small — the lever that
// forces the server into short writes.
int RawConnect(int port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void SendAll(int fd, const char* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    sent += static_cast<size_t>(w);
  }
}

uint64_t GlobalCounterValue(const std::string& name) {
  for (const auto& [counter_name, value] :
       obs::MetricRegistry::Global().Snapshot().counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

TEST(ServeEndToEndTest, EstimateMatchesDirectCall) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);

  const auto parsed =
      query::ParsePredicates(SharedRegistry().Current()->schema, kPredicate);
  ASSERT_TRUE(parsed.ok());
  const double direct =
      SharedRegistry().Current()->estimator->Estimate(*parsed);

  const auto reply = client.Estimate(kPredicate);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->overloaded);
  // A lone request forms a batch of one, which is seeded exactly like the
  // library's Estimate(): the wire adds no numeric drift.
  EXPECT_EQ(reply->selectivity, direct);
  EXPECT_EQ(reply->model_version, SharedRegistry().Current()->version);
  server.Shutdown();
}

TEST(ServeEndToEndTest, ParseErrorReturnsTypedError) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);

  const auto reply = client.Estimate("no_such_column = 1");
  EXPECT_FALSE(reply.ok());
  // The connection survives a bad request.
  const auto ok_reply = client.Estimate(kPredicate);
  EXPECT_TRUE(ok_reply.ok()) << ok_reply.status().ToString();
  server.Shutdown();
}

TEST(ServeEndToEndTest, MetricsFrameExportsPrometheus) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);
  ASSERT_TRUE(client.Estimate(kPredicate).ok());

  const auto text = client.Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE iam_serve_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("iam_serve_batch_size"), std::string::npos);
  server.Shutdown();
}

// --- kQueryLog wire surface (DESIGN.md §17). --------------------------------

TEST(ServeQueryLogTest, WireFrameReturnsRecordsAndHonorsFilters) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);

  obs::QueryLog& log = obs::QueryLog::Global();
  const uint64_t appended_before = log.Appended();
  constexpr int kQueries = 3;
  for (int i = 0; i < kQueries; ++i) {
    const auto reply = client.Estimate(kPredicate);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_FALSE(reply->overloaded);
  }
  const uint64_t appended = appended_before + kQueries;
  ASSERT_EQ(log.Appended(), appended);

  // Unfiltered pull: every buffered record, plus the ring totals.
  const auto json = client.QueryLog();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->front(), '{');
  EXPECT_NE(json->find("\"records\":[{\"seq\":"), std::string::npos);
  EXPECT_NE(json->find("\"appended\":" + std::to_string(appended)),
            std::string::npos);
  EXPECT_NE(json->find("\"capacity\":"), std::string::npos);
  size_t record_count = 0;
  for (size_t pos = json->find("\"seq\":"); pos != std::string::npos;
       pos = json->find("\"seq\":", pos + 1)) {
    ++record_count;
  }
  EXPECT_EQ(record_count, std::min<uint64_t>(appended, log.capacity()));

  // last=1 returns exactly the newest record.
  const auto last1 = client.QueryLog("last=1");
  ASSERT_TRUE(last1.ok()) << last1.status().ToString();
  EXPECT_NE(last1->find("\"records\":[{\"seq\":" + std::to_string(appended)),
            std::string::npos)
      << *last1;
  EXPECT_EQ(last1->find("\"seq\":", last1->find("\"seq\":") + 1),
            std::string::npos);

  // An impossible latency floor filters everything out but keeps the shape.
  const auto none = client.QueryLog("min_ms=1e9");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_NE(none->find("\"records\":[]"), std::string::npos) << *none;
  server.Shutdown();
}

// Satellite S1: the kMetrics scrape publishes the event-loop and ring gauges
// refreshed in the same handler as the snapshot, so one scrape is one
// consistent view.
TEST(ServeQueryLogTest, MetricsScrapeIncludesLoopAndRingGauges) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);
  ASSERT_TRUE(client.Estimate(kPredicate).ok());

  const auto text = client.Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // The scraping connection itself is open while the handler runs.
  EXPECT_NE(text->find("iam_serve_open_connections 1\n"), std::string::npos);
  EXPECT_NE(text->find("iam_serve_queue_depth{shard=\"0\"} "),
            std::string::npos);
  EXPECT_NE(text->find("iam_querylog_appended "), std::string::npos);
  EXPECT_NE(text->find("iam_querylog_buffered "), std::string::npos);
  EXPECT_NE(text->find("iam_querylog_capacity 4096\n"), std::string::npos);
  EXPECT_NE(text->find("iam_serve_query_total_seconds_bucket{shard=\"0\","),
            std::string::npos);
  server.Shutdown();
}

TEST(ServeEndToEndTest, OverloadedServerFastRejects) {
  ServerOptions options;
  options.batcher.queue_capacity = 0;  // every request is one too many
  EstimatorServer server(SharedRegistry(), options);
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);
  const auto reply = client.Estimate(kPredicate);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->overloaded);
  server.Shutdown();
}

TEST(ServeEndToEndTest, SwapViaControlFrame) {
  // A private registry: this test moves the served version forward.
  ModelRegistry registry(TrainDemoEstimator(1200, 11), "");
  EstimatorServer server(registry, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);

  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "iam_serve_swap_model.iam").string();
  ASSERT_TRUE(registry.Current()->estimator->Save(path).ok());

  const auto version = client.Swap(path);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 2u);

  const auto bad = client.Swap("/nonexistent/model.iam");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(registry.Current()->version, 2u);  // failed swap kept serving

  const auto reply = client.Estimate(kPredicate);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->model_version, 2u);
  server.Shutdown();
  std::remove(path.c_str());
}

TEST(ServeEndToEndTest, ShutdownFrameRequestsDrain) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.shutdown_requested());
  Client client = ConnectedClient(server);
  ASSERT_TRUE(client.RequestShutdown().ok());
  EXPECT_TRUE(server.shutdown_requested());
  server.Shutdown();
  // Drained: the listener is gone and queued work was answered before the
  // batcher stopped.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());
}

// The concurrency test the TSan serve gate runs: clients hammer the server
// while the model is hot-swapped mid-burst. No accepted request may be lost,
// and every response must come from exactly one of the two generations.
TEST(ServeSwapTest, HotSwapUnderLoadLosesNothing) {
  ModelRegistry registry(TrainDemoEstimator(1200, 11), "");
  ServerOptions options;
  options.batcher.max_delay_s = 1e-4;  // many small batches -> many snapshots
  EstimatorServer server(registry, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  std::unique_ptr<core::ArDensityEstimator> next =
      TrainDemoEstimator(1200, 12);

  std::atomic<int> failures{0};
  std::atomic<int> started{0};
  std::atomic<bool> bad_version{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      started.fetch_add(1);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const auto reply = client.Estimate(kPredicate);
        if (!reply.ok() || reply->overloaded) {
          failures.fetch_add(1);
          continue;
        }
        if (reply->model_version != 1 && reply->model_version != 2) {
          bad_version.store(true);
        }
      }
    });
  }
  // Swap once the burst is in full flight.
  while (started.load() < kClients) std::this_thread::yield();
  const uint64_t v2 = registry.Swap(std::move(next), "swapped");
  EXPECT_EQ(v2, 2u);

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(bad_version.load());

  // After the swap every new request answers from the new generation.
  Client client = ConnectedClient(server);
  const auto reply = client.Estimate(kPredicate);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->model_version, 2u);
  server.Shutdown();
}

// --- Wire-level event-loop behavior. ----------------------------------------

// The incremental decoder must reassemble a frame arriving in any two chunks.
// Splitting one request at every byte boundary (with a pause so the loop
// observes the partial frame) covers header/payload splits exhaustively; the
// final dribble sends a frame one byte per send().
TEST(ServePipelineTest, FramesSurviveEveryByteBoundarySplit) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const auto parsed =
      query::ParsePredicates(SharedRegistry().Current()->schema, kPredicate);
  ASSERT_TRUE(parsed.ok());
  const double direct =
      SharedRegistry().Current()->estimator->Estimate(*parsed);

  const std::string wire = EncodeFrame({FrameType::kEstimate, kPredicate});
  const int fd = RawConnect(server.port());
  for (size_t split = 1; split < wire.size(); ++split) {
    SendAll(fd, wire.data(), split);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    SendAll(fd, wire.data() + split, wire.size() - split);
    Frame response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok()) << "split " << split;
    ASSERT_EQ(response.type, FrameType::kEstimateOk) << response.payload;
    double selectivity = -1.0;
    uint64_t version = 0;
    ASSERT_TRUE(
        DecodeEstimatePayload(response.payload, &selectivity, &version).ok());
    EXPECT_EQ(selectivity, direct) << "split " << split;
  }
  for (const char byte : wire) SendAll(fd, &byte, 1);
  Frame response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_EQ(response.type, FrameType::kEstimateOk);
  ::close(fd);
  server.Shutdown();
}

// Pipelining ordering contract: responses come back in submission order even
// when request kinds complete through different paths (shard worker, inline
// error, inline metrics). The unknown-type frames echo their type number, so
// each response is attributable to its request.
TEST(ServePipelineTest, InterleavedResponsesArriveInSubmissionOrder) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());

  std::string wire;
  AppendFrame(&wire, {FrameType::kEstimate, kPredicate});
  AppendFrame(&wire, {static_cast<FrameType>(42), ""});
  AppendFrame(&wire, {FrameType::kMetrics, ""});
  AppendFrame(&wire, {static_cast<FrameType>(43), ""});
  AppendFrame(&wire, {FrameType::kEstimate, kPredicate});
  SendAll(fd, wire.data(), wire.size());

  Frame responses[5];
  for (Frame& response : responses) {
    ASSERT_TRUE(ReadFrame(fd, &response).ok());
  }
  EXPECT_EQ(responses[0].type, FrameType::kEstimateOk);
  EXPECT_EQ(responses[1].type, FrameType::kError);
  EXPECT_NE(responses[1].payload.find("unknown frame type 42"),
            std::string::npos);
  EXPECT_EQ(responses[2].type, FrameType::kOk);
  EXPECT_NE(responses[2].payload.find("# TYPE"), std::string::npos);
  EXPECT_EQ(responses[3].type, FrameType::kError);
  EXPECT_NE(responses[3].payload.find("unknown frame type 43"),
            std::string::npos);
  EXPECT_EQ(responses[4].type, FrameType::kEstimateOk);
  ::close(fd);
  server.Shutdown();
}

// Short-write recovery: a client with a tiny receive buffer pipelines many
// kMetrics requests (~15 KB responses) without reading. The server's
// non-blocking sends hit EAGAIN, park on EPOLLOUT, and must resume cleanly —
// every response intact and in order once the client finally reads.
TEST(ServePipelineTest, ShortWritesOnResponsePathRecover) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/2048);

  // On loopback the server's send buffer autotunes up to the tcp_wmem
  // maximum (4 MB by default), so the responses must total well beyond that
  // before a send can hit EAGAIN.
  constexpr int kRequests = 512;
  std::string wire;
  for (int i = 0; i < kRequests; ++i) {
    AppendFrame(&wire, {FrameType::kMetrics, ""});
  }
  SendAll(fd, wire.data(), wire.size());
  // Let the server answer into the stalled socket until a send parks on
  // EPOLLOUT. Reading any earlier could drain the window as fast as the
  // server fills it.
  const Stopwatch waited;
  while (GlobalCounterValue("iam_serve_partial_writes_total") == 0 &&
         waited.ElapsedSeconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (int i = 0; i < kRequests; ++i) {
    Frame response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok()) << "response " << i;
    ASSERT_EQ(response.type, FrameType::kOk) << "response " << i;
    EXPECT_NE(response.payload.find("# TYPE"), std::string::npos);
  }
  // The stalled window forced at least one partial write.
  EXPECT_GT(GlobalCounterValue("iam_serve_partial_writes_total"), 0u);
  ::close(fd);
  server.Shutdown();
}

// --- Sharded serving. -------------------------------------------------------

TEST(ServeShardTest, SoloRequestsBitExactAcrossShards) {
  // One replica per shard: every shard worker owns a clone, and clones are
  // bit-faithful (serialize round trip), so a solo request answers
  // identically no matter which shard's connection carried it.
  ModelRegistry registry(TrainDemoEstimator(1200, 11), "", 1, 4);
  ServerOptions options;
  options.num_shards = 4;
  EstimatorServer server(registry, options);
  ASSERT_TRUE(server.Start().ok());

  const auto parsed =
      query::ParsePredicates(registry.Current()->schema, kPredicate);
  ASSERT_TRUE(parsed.ok());
  const double direct = registry.Current()->estimator->Estimate(*parsed);

  // Connections take home shards round-robin: eight connections cover every
  // shard twice.
  for (int c = 0; c < 8; ++c) {
    Client client = ConnectedClient(server);
    const auto reply = client.Estimate(kPredicate);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_FALSE(reply->overloaded);
    EXPECT_EQ(reply->selectivity, direct) << "connection " << c;
  }
  server.Shutdown();
}

// The multi-shard variant of the TSan-gated swap test: concurrent clients
// spread over two shards (two model replicas) while the generation swaps
// mid-burst. Zero lost requests, every answer from generation 1 or 2.
TEST(ServeSwapTest, HotSwapUnderLoadAcrossShardsLosesNothing) {
  ModelRegistry registry(TrainDemoEstimator(1200, 11), "", 1, 2);
  ServerOptions options;
  options.num_shards = 2;
  options.batcher.max_delay_s = 1e-4;
  EstimatorServer server(registry, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  std::unique_ptr<core::ArDensityEstimator> next =
      TrainDemoEstimator(1200, 12);

  std::atomic<int> failures{0};
  std::atomic<int> started{0};
  std::atomic<bool> bad_version{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      started.fetch_add(1);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const auto reply = client.Estimate(kPredicate);
        if (!reply.ok() || reply->overloaded) {
          failures.fetch_add(1);
          continue;
        }
        if (reply->model_version != 1 && reply->model_version != 2) {
          bad_version.store(true);
        }
      }
    });
  }
  while (started.load() < kClients) std::this_thread::yield();
  const uint64_t v2 = registry.Swap(std::move(next), "swapped");
  EXPECT_EQ(v2, 2u);

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(bad_version.load());
  server.Shutdown();
}

// Regressions promoted from fuzz/fuzz_frame_decoder.cc (DESIGN.md §16):
// malformed framing from a raw socket must close exactly that connection —
// cleanly, with no allocation driven by the adversarial header — while the
// server keeps serving everyone else. The mirror corpus inputs live in
// fuzz/corpus/frame_decoder/.

// Reads until the peer closes; returns the number of bytes drained.
size_t DrainUntilEof(int fd) {
  size_t drained = 0;
  char buffer[256];
  ssize_t r;
  while ((r = ::read(fd, buffer, sizeof(buffer))) > 0) {
    drained += static_cast<size_t>(r);
  }
  EXPECT_EQ(r, 0) << "expected orderly close, got error";
  return drained;
}

void ExpectStillServing(const EstimatorServer& server) {
  Client client = ConnectedClient(server);
  const auto reply = client.Estimate(kPredicate);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GE(reply->selectivity, 0.0);
}

TEST(AdversarialFrameRegressionTest, OversizedHeaderClosesConnection) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());
  // 0xffffffff declared frame length: the decoder must reject the header
  // outright rather than buffer toward 4 GiB.
  const std::string header(4, '\xff');
  SendAll(fd, header.data(), header.size());
  DrainUntilEof(fd);
  ::close(fd);
  ExpectStillServing(server);
  server.Shutdown();
}

TEST(AdversarialFrameRegressionTest, ZeroLengthFrameClosesConnection) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());
  const std::string header(4, '\0');
  SendAll(fd, header.data(), header.size());
  DrainUntilEof(fd);
  ::close(fd);
  ExpectStillServing(server);
  server.Shutdown();
}

TEST(AdversarialFrameRegressionTest, TruncatedFrameHangupLeavesServerUp) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());
  // A complete header promising 100 bytes, then only 10, then hangup: the
  // half-frame must be discarded with the connection, poisoning nothing.
  const std::string wire =
      EncodeFrame({FrameType::kEstimate, std::string(99, 'x')});
  SendAll(fd, wire.data(), 14);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ::close(fd);
  ExpectStillServing(server);
  server.Shutdown();
}

TEST(AdversarialFrameRegressionTest, GarbageAfterValidFrameKillsConnection) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());
  // A valid request followed by a malformed header in one burst. Malformed
  // framing is a protocol violation that kills the connection immediately —
  // buffered requests on it are dropped, not answered — but the rest of the
  // server must be untouched.
  std::string burst = EncodeFrame({FrameType::kEstimate, kPredicate});
  burst.append(4, '\xff');
  SendAll(fd, burst.data(), burst.size());
  DrainUntilEof(fd);
  ::close(fd);
  ExpectStillServing(server);
  server.Shutdown();
}

// --- Online adaptation over the wire (DESIGN.md §18). ------------------------

TEST(ServeAdaptTest, FeedbackWithoutAdaptationAnswersTypedError) {
  EstimatorServer server(SharedRegistry(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);
  const auto ack = client.Feedback("seq=1 actual=0.5");
  EXPECT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kInternal);
  // The connection survives; so does the append path's rejection.
  EXPECT_FALSE(client.AppendData("cols=2\n1,2\n").ok());
  EXPECT_TRUE(client.Estimate(kPredicate).ok());
  server.Shutdown();
}

TEST(ServeAdaptTest, FeedbackRoundTripUpdatesCorrector) {
  ModelRegistry registry(TrainDemoEstimator(800, 5), "");
  adapt::AdaptOptions adapt_options;
  adapt_options.trigger_p90_qerror = 0.0;  // corrector only
  adapt::AdaptController controller(registry, adapt_options);
  ServerOptions options;
  options.adapt = &controller;
  EstimatorServer server(registry, options);
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectedClient(server);

  // Serve one estimate, resolve its query-log record by sequence number,
  // then feed back a truth 4x the served value.
  const auto reply = client.Estimate(kPredicate);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const uint64_t seq = obs::QueryLog::Global().Appended();
  const auto rec = obs::QueryLog::Global().Find(seq);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->selectivity, reply->selectivity);

  const double actual = std::min(1.0, reply->selectivity * 4.0);
  const auto ack = client.Feedback("seq=" + std::to_string(seq) + " actual=" +
                                   std::to_string(actual));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(*ack, "queued");
  controller.Flush();
  EXPECT_EQ(controller.FeedbackProcessed(), 1u);
  EXPECT_GT(controller.corrector().MultiplierForRegion(rec->region_key), 1.0);

  // The corrected region now answers higher than the raw model did.
  const auto corrected = client.Estimate(kPredicate);
  ASSERT_TRUE(corrected.ok());
  EXPECT_GT(corrected->selectivity, reply->selectivity);

  // Inline feedback (no query-log reference) works on the same connection,
  // and the metrics scrape exports the adapt family in one snapshot.
  const auto inline_ack =
      client.Feedback("actual=0.5 where " + std::string(kPredicate));
  ASSERT_TRUE(inline_ack.ok()) << inline_ack.status().ToString();
  controller.Flush();
  EXPECT_EQ(controller.FeedbackProcessed(), 2u);
  const auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("iam_adapt_feedback_total"), std::string::npos);
  EXPECT_NE(metrics->find("iam_adapt_corrector_generation"),
            std::string::npos);
  server.Shutdown();
}

TEST(AdversarialFrameRegressionTest, TruncatedFeedbackFrameLeavesServerUp) {
  ModelRegistry registry(TrainDemoEstimator(800, 5), "");
  adapt::AdaptOptions adapt_options;
  adapt_options.trigger_p90_qerror = 0.0;
  adapt::AdaptController controller(registry, adapt_options);
  ServerOptions options;
  options.adapt = &controller;
  EstimatorServer server(registry, options);
  ASSERT_TRUE(server.Start().ok());

  // A kFeedback frame promising 60 payload bytes, truncated mid-payload.
  const int fd = RawConnect(server.port());
  const std::string wire =
      EncodeFrame({FrameType::kFeedback, std::string(59, 'a')});
  SendAll(fd, wire.data(), 12);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ::close(fd);
  ExpectStillServing(server);

  // A malformed-but-complete feedback payload answers kError and keeps the
  // connection; an oversized header on the same socket then kills it.
  const int fd2 = RawConnect(server.port());
  const std::string bad =
      EncodeFrame({FrameType::kFeedback, "actual=banana"});
  SendAll(fd2, bad.data(), bad.size());
  Frame response;
  ASSERT_TRUE(ReadFrame(fd2, &response).ok());
  EXPECT_EQ(response.type, FrameType::kError);
  const std::string oversized(4, '\xff');
  SendAll(fd2, oversized.data(), oversized.size());
  DrainUntilEof(fd2);
  ::close(fd2);
  ExpectStillServing(server);
  server.Shutdown();
}

TEST(ServeAdaptTest, CorrectorStateIsDeterministicAcrossShardCounts) {
  // Identical feedback sequences against identical models must produce
  // identical corrector state whatever the serving parallelism: corrector
  // updates are applied by one adaptation thread in arrival order, and
  // inline feedback estimates on replica 0, which every shard count loads
  // from the same serialized bytes.
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "iam_adapt_determinism_model.iam";
  ASSERT_TRUE(TrainDemoEstimator(800, 5)->Save(path.string()).ok());

  const std::vector<std::string> predicates = DemoPredicates(12, 41);
  std::vector<uint64_t> digests;
  for (const int shards : {1, 2, 8}) {
    auto loaded = core::ArDensityEstimator::Load(path.string());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ModelRegistry registry(std::move(loaded.value()), path.string(), 1,
                           shards);
    adapt::AdaptOptions adapt_options;
    adapt_options.trigger_p90_qerror = 0.0;
    adapt::AdaptController controller(registry, adapt_options);
    ServerOptions options;
    options.adapt = &controller;
    options.num_shards = shards;
    EstimatorServer server(registry, options);
    ASSERT_TRUE(server.Start().ok());
    Client client = ConnectedClient(server);
    for (size_t i = 0; i < predicates.size(); ++i) {
      adapt::FeedbackPayload feedback;
      feedback.actual = 0.05 + 0.07 * static_cast<double>(i % 8);
      feedback.predicates = predicates[i];
      const auto ack =
          client.Feedback(adapt::EncodeFeedbackPayload(feedback));
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    }
    controller.Flush();
    EXPECT_EQ(controller.FeedbackProcessed(), predicates.size());
    digests.push_back(controller.corrector().StateDigest());
    server.Shutdown();
  }
  std::error_code ec;
  fs::remove(path, ec);
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

// The adaptation analogue of HotSwapUnderLoadAcrossShardsLosesNothing, and
// the TSan serve gate's closed-loop race: pipelined estimate load across two
// shards while concurrent feedback drives the corrector and a deliberately
// low drift trigger forces a background retrain-and-swap mid-burst. Zero
// lost requests, and the corrector generation must land coherent with the
// registry version.
TEST(ServeAdaptTest, FeedbackRetrainSwapUnderLoadLosesNothing) {
  ModelRegistry registry(TrainDemoEstimator(800, 5), "", 1, 2);
  adapt::AdaptOptions adapt_options;
  adapt_options.trigger_p90_qerror = 1.5;
  adapt_options.window = 16;
  adapt_options.min_window_fill = 8;
  adapt_options.min_feedback_between_retrains = 8;
  adapt_options.min_retrain_rows = 256;
  adapt_options.retrain_epochs = 1;
  adapt::AdaptController controller(registry, adapt_options);
  ServerOptions options;
  options.adapt = &controller;
  options.num_shards = 2;
  options.batcher.max_delay_s = 1e-4;
  EstimatorServer server(registry, options);
  ASSERT_TRUE(server.Start().ok());

  // Seed the retrain reservoir over the wire.
  {
    Client client = ConnectedClient(server);
    const data::Table shifted = ShiftedDemoTable(512, 11, 1.5);
    adapt::AppendPayload append;
    append.cols = shifted.num_columns();
    for (size_t r = 0; r < shifted.num_rows(); ++r) {
      for (int c = 0; c < shifted.num_columns(); ++c) {
        append.values.push_back(shifted.value(r, c));
      }
    }
    const auto ack = client.AppendData(adapt::EncodeAppendPayload(append));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  }

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> load;
  load.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    load.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const auto reply = client.Estimate(kPredicate);
        if (!reply.ok() || reply->overloaded) failures.fetch_add(1);
      }
    });
  }
  // Feedback runs concurrently with the load: systematically wrong
  // estimates trip the drift trigger while estimates are in flight.
  std::thread feedback([&] {
    Client client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    const std::vector<std::string> predicates = DemoPredicates(24, 43);
    for (const std::string& text : predicates) {
      adapt::FeedbackPayload payload;
      payload.actual = 0.9;
      payload.predicates = text;
      const auto ack =
          client.Feedback(adapt::EncodeFeedbackPayload(payload));
      if (!ack.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : load) t.join();
  feedback.join();
  controller.Flush();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(controller.Retrains(), 1u);
  EXPECT_EQ(controller.RetrainFailures(), 0u);
  // Generation coherence across the swap: the corrector is tagged with the
  // generation currently serving.
  EXPECT_EQ(controller.corrector().generation(), registry.current_version());
  EXPECT_EQ(registry.Current()->source, "adapt-retrain");
  // And the post-swap server still answers.
  ExpectStillServing(server);
  server.Shutdown();
}

}  // namespace
}  // namespace iam::serve
