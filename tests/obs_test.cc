// Tests for the observability subsystem (DESIGN.md §12): metric registry
// semantics, histogram quantiles and merge algebra, the Prometheus / JSON
// writers, chrome://tracing export structure, and the acceptance contract
// that concurrent EstimateBatch produces identical semantic counter totals
// at any thread count.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ar_density_estimator.h"
#include "core/presets.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"
#include "util/stopwatch.h"

namespace iam::obs {
namespace {

TEST(CounterTest, AccumulatesAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Total(), uint64_t{kThreads} * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Total(), 0u);
}

TEST(RegistryTest, SameNameSameHandle) {
  MetricRegistry reg;
  Counter& a = reg.GetCounter("iam_test_total");
  Counter& b = reg.GetCounter("iam_test_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled = reg.GetCounter("iam_test_total", "column", "lat");
  EXPECT_NE(&a, &labeled);
  EXPECT_EQ(&labeled, &reg.GetCounter("iam_test_total", "column", "lat"));
  Gauge& g = reg.GetGauge("iam_test_gauge");
  EXPECT_EQ(&g, &reg.GetGauge("iam_test_gauge"));
  const std::vector<double> bounds = {1.0, 2.0};
  Histogram& h = reg.GetHistogram("iam_test_hist", bounds);
  EXPECT_EQ(&h, &reg.GetHistogram("iam_test_hist", bounds));
}

TEST(RegistryTest, SnapshotSortedAndResettable) {
  MetricRegistry reg;
  reg.GetCounter("iam_b_total").Add(2);
  reg.GetCounter("iam_a_total").Add(1);
  reg.GetGauge("iam_g").Set(3.5);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "iam_a_total");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "iam_b_total");
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.5);

  reg.ResetAll();
  snap = reg.Snapshot();
  EXPECT_EQ(snap.counters[0].second, 0u);
  EXPECT_EQ(snap.counters[1].second, 0u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.0);
}

TEST(RegistryTest, ResetAllClearsLabeledSeries) {
  MetricRegistry reg;
  reg.GetCounter("iam_r_total", "column", "lat").Add(5);
  reg.GetCounter("iam_r_total", "column", "lon").Add(7);
  const std::vector<double> bounds = {1.0};
  Histogram& h = reg.GetHistogram("iam_r_seconds", "shard", "0", bounds);
  h.Record(0.5, 42);  // stamp an exemplar so Reset must clear it too

  reg.ResetAll();
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].second, 0u);
  EXPECT_EQ(snap.counters[1].second, 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0u);
  EXPECT_TRUE(snap.histograms[0].exemplar_seq.empty());

  // Handles stay valid after the reset and keep accumulating.
  reg.GetCounter("iam_r_total", "column", "lat").Add(1);
  EXPECT_EQ(reg.GetCounter("iam_r_total", "column", "lat").Total(), 1u);
}

TEST(HistogramTest, BucketsAndQuantiles) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  Histogram h(bounds);
  // 100 values in (0, 10], none elsewhere: the median interpolates to the
  // middle of the first bucket (whose lower edge resolves to 0).
  for (int i = 0; i < 100; ++i) h.Record(5.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 500.0);
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 100u);
  EXPECT_NEAR(snap.Quantile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(snap.Mean(), 5.0, 1e-9);

  // Add 100 values in (20, 30]: p75 lands in the third bucket.
  for (int i = 0; i < 100; ++i) h.Record(25.0);
  snap = h.Snapshot();
  EXPECT_EQ(snap.count, 200u);
  const double p75 = snap.Quantile(0.75);
  EXPECT_GE(p75, 20.0);
  EXPECT_LE(p75, 30.0);
  // Overflow mass resolves to the last finite boundary.
  h.Record(1e9);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(1.0), 30.0);
}

HistogramSnapshot MakeSnap(const std::vector<uint64_t>& buckets, double sum) {
  HistogramSnapshot s;
  s.bounds = {1.0, 2.0, 3.0};
  s.bucket_counts = buckets;
  for (uint64_t b : buckets) s.count += b;
  s.sum = sum;
  return s;
}

TEST(HistogramTest, ExemplarLinksBucketsToNewestSeq) {
  const std::vector<double> bounds = {1.0, 10.0};
  Histogram h(bounds);
  // Plain Record never stamps an exemplar; the snapshot omits the vector.
  h.Record(0.5);
  EXPECT_TRUE(h.Snapshot().exemplar_seq.empty());

  h.Record(0.5, 7);   // bucket 0
  h.Record(5.0, 9);   // bucket 1
  h.Record(0.6, 11);  // bucket 0 again: newest seq wins
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.exemplar_seq.size(), 3u);
  EXPECT_EQ(snap.exemplar_seq[0], 11u);
  EXPECT_EQ(snap.exemplar_seq[1], 9u);
  EXPECT_EQ(snap.exemplar_seq[2], 0u);  // overflow bucket untouched
  EXPECT_EQ(snap.count, 4u);

  // Reset clears exemplars along with the counts.
  h.Reset();
  snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_TRUE(snap.exemplar_seq.empty());
}

TEST(HistogramTest, MergeTakesBucketWiseNewestExemplar) {
  HistogramSnapshot a = MakeSnap({1, 0, 0, 0}, 1.0);
  HistogramSnapshot b = MakeSnap({0, 1, 0, 0}, 2.0);
  a.exemplar_seq = {4, 9, 0, 0};
  b.exemplar_seq = {6, 2, 0, 0};
  a.Merge(b);
  ASSERT_EQ(a.exemplar_seq.size(), 4u);
  EXPECT_EQ(a.exemplar_seq[0], 6u);
  EXPECT_EQ(a.exemplar_seq[1], 9u);

  // An exemplar-free snapshot merges as all-zeros in either direction.
  HistogramSnapshot plain = MakeSnap({0, 0, 1, 0}, 3.0);
  a.Merge(plain);
  EXPECT_EQ(a.exemplar_seq[0], 6u);
  HistogramSnapshot plain2 = MakeSnap({0, 0, 1, 0}, 3.0);
  plain2.Merge(a);
  ASSERT_EQ(plain2.exemplar_seq.size(), 4u);
  EXPECT_EQ(plain2.exemplar_seq[1], 9u);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  // Exact small integers: bucket-wise adds and integer-valued sums are exact
  // in double, so associativity can be checked with operator== semantics.
  const HistogramSnapshot a = MakeSnap({1, 2, 3, 4}, 10.0);
  const HistogramSnapshot b = MakeSnap({5, 0, 7, 1}, 20.0);
  const HistogramSnapshot c = MakeSnap({2, 2, 2, 2}, 8.0);

  HistogramSnapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);

  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);

  HistogramSnapshot ba = b;
  ba.Merge(a);
  ba.Merge(c);

  for (const HistogramSnapshot* other : {&a_bc, &ba}) {
    EXPECT_EQ(ab_c.bucket_counts, other->bucket_counts);
    EXPECT_EQ(ab_c.count, other->count);
    EXPECT_DOUBLE_EQ(ab_c.sum, other->sum);
  }
  EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
}

TEST(ExportTest, PrometheusFormat) {
  MetricRegistry reg;
  reg.GetCounter("iam_x_total").Add(7);
  reg.GetCounter("iam_y_total", "column", "lat").Add(1);
  reg.GetCounter("iam_y_total", "column", "lon").Add(2);
  reg.GetGauge("iam_loss").Set(0.25);
  const std::vector<double> bounds = {1.0, 10.0};
  Histogram& h = reg.GetHistogram("iam_lat_seconds", bounds);
  h.Record(0.5);
  h.Record(5.0);
  h.Record(100.0);

  const std::string text = MetricsToPrometheus(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE iam_x_total counter\niam_x_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_y_total{column=\"lat\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("iam_y_total{column=\"lon\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iam_loss gauge\niam_loss 0.25\n"),
            std::string::npos);
  // Cumulative buckets plus +Inf / _sum / _count expansions.
  EXPECT_NE(text.find("iam_lat_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_lat_seconds_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_lat_seconds_count 3\n"), std::string::npos);
  // One # TYPE line per family: the labeled family is declared once.
  size_t type_y = 0;
  for (size_t pos = text.find("# TYPE iam_y_total"); pos != std::string::npos;
       pos = text.find("# TYPE iam_y_total", pos + 1)) {
    ++type_y;
  }
  EXPECT_EQ(type_y, 1u);
}

TEST(ExportTest, PrometheusLabeledHistograms) {
  MetricRegistry reg;
  const std::vector<double> bounds = {1.0, 10.0};
  reg.GetHistogram("iam_wait_seconds", "shard", "0", bounds).Record(0.5);
  Histogram& s1 = reg.GetHistogram("iam_wait_seconds", "shard", "1", bounds);
  s1.Record(5.0);
  s1.Record(100.0);

  const std::string text = MetricsToPrometheus(reg.Snapshot());
  // The `le` bucket label merges into the series' own label block; _sum and
  // _count keep the plain label block after the expanded family name.
  EXPECT_NE(text.find("iam_wait_seconds_bucket{shard=\"0\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_wait_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_wait_seconds_bucket{shard=\"1\",le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_wait_seconds_bucket{shard=\"1\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_wait_seconds_sum{shard=\"0\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("iam_wait_seconds_count{shard=\"1\"} 2\n"),
            std::string::npos);
  // One # TYPE header covers both shards, and no malformed name (a label
  // block before _bucket) leaks into the exposition.
  size_t type_lines = 0;
  for (size_t pos = text.find("# TYPE iam_wait_seconds histogram");
       pos != std::string::npos;
       pos = text.find("# TYPE iam_wait_seconds histogram", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_EQ(text.find("}_bucket"), std::string::npos);
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  MetricRegistry reg;
  // A label value containing both `"` and `\` must render with the
  // exposition-format escapes, not leak raw into the series name.
  reg.GetCounter("iam_esc_total", "column", R"(a"b\c)").Add(1);
  const std::string text = MetricsToPrometheus(reg.Snapshot());
  EXPECT_NE(text.find(std::string(R"(iam_esc_total{column="a\"b\\c"} 1)") +
                      "\n"),
            std::string::npos)
      << text;

  // The escaped series name round-trips through the JSON key escaping too.
  const std::string json = MetricsToJson(reg.Snapshot());
  EXPECT_NE(json.find(R"("iam_esc_total{column=\"a\\\"b\\\\c\"}":1)"),
            std::string::npos)
      << json;
}

TEST(ExportTest, JsonEmitsExemplarSeqWhenPresent) {
  MetricRegistry reg;
  const std::vector<double> bounds = {1.0, 10.0};
  Histogram& h = reg.GetHistogram("iam_e_seconds", bounds);
  h.Record(0.5);
  // Exemplar-free histograms keep the legacy JSON shape.
  EXPECT_EQ(MetricsToJson(reg.Snapshot()).find("exemplar_seq"),
            std::string::npos);

  h.Record(5.0, 17);
  const std::string json = MetricsToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"exemplar_seq\":[0,17,0]"), std::string::npos) << json;
}

TEST(ExportTest, JsonShape) {
  MetricRegistry reg;
  reg.GetCounter("iam_x_total").Add(3);
  reg.GetCounter("iam_y_total", "column", "lat").Add(1);
  reg.GetGauge("iam_loss").Set(1.5);
  const std::vector<double> bounds = {1.0};
  reg.GetHistogram("iam_h", bounds).Record(0.5);
  const std::string json = MetricsToJson(reg.Snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"iam_x_total\":3"), std::string::npos);
  // The quotes inside a labeled sample name are escaped in the JSON key.
  EXPECT_NE(json.find("\"iam_y_total{column=\\\"lat\\\"}\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"iam_loss\":1.5}"), std::string::npos);
  EXPECT_NE(json.find("\"iam_h\":{\"count\":1"), std::string::npos);
}

TEST(TraceTest, SpansRecordAndPhaseTableAggregates) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  {
    TraceSpan outer("obs_test.outer");
    { TraceSpan inner("obs_test.inner"); }
    { TraceSpan inner("obs_test.inner"); }
  }
  rec.SetEnabled(false);
  const std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 3u);
  int inner = 0, outer = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "obs_test.inner") ++inner;
    if (std::string(e.name) == "obs_test.outer") ++outer;
    EXPECT_GE(e.dur_us, 0.0);
  }
  EXPECT_EQ(inner, 2);
  EXPECT_EQ(outer, 1);

  const std::vector<PhaseStats> phases = rec.Phases();
  ASSERT_EQ(phases.size(), 2u);
  for (const PhaseStats& p : phases) {
    if (p.name == "obs_test.inner") EXPECT_EQ(p.count, 2u);
    if (p.name == "obs_test.outer") EXPECT_EQ(p.count, 1u);
  }
  const std::string table = rec.PhaseTable();
  EXPECT_NE(table.find("obs_test.inner"), std::string::npos);
  rec.Clear();
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(false);
  { TraceSpan span("obs_test.disabled"); }
  EXPECT_TRUE(rec.Events().empty());
}

TEST(TraceTest, SpanPauseExcludesBlockedTime) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  {
    TraceSpan span("obs_test.paused");
    span.Pause();
    // Busy-wait ~1ms of wall time while the span is paused.
    Stopwatch wall;
    while (wall.ElapsedMillis() < 1.0) {
    }
    span.Resume();
  }
  rec.SetEnabled(false);
  const std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 1u);
  // The paused millisecond must not show up in the duration.
  EXPECT_LT(events[0].dur_us, 900.0);
  rec.Clear();
}

// Acceptance check: the exported file is structurally valid chrome://tracing
// JSON — the top-level keys, one object per span, and the required fields on
// every event.
TEST(TraceTest, ChromeTracingExportStructure) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  { TraceSpan a("obs_test.export_a"); }
  { TraceSpan b("obs_test.export_b"); }
  rec.SetEnabled(false);

  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_trace_test.json")
          .string();
  ASSERT_TRUE(rec.WriteChromeTracingJson(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  rec.Clear();

  // Top-level structure.
  EXPECT_EQ(contents.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(contents.find('['), contents.rfind('['));
  ASSERT_GE(contents.size(), 2u);
  EXPECT_EQ(contents.substr(contents.size() - 2), "]}");

  // Balanced braces.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < contents.size(); ++i) {
    const char ch = contents[i];
    if (ch == '"' && (i == 0 || contents[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) continue;
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // One complete event object per span, each with the required fields.
  size_t events = 0;
  for (size_t pos = contents.find("{\"name\":"); pos != std::string::npos;
       pos = contents.find("{\"name\":", pos + 1)) {
    const size_t end = contents.find('}', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string event = contents.substr(pos, end - pos + 1);
    for (const char* key :
         {"\"cat\":", "\"ph\":\"X\"", "\"ts\":", "\"dur\":", "\"pid\":",
          "\"tid\":"}) {
      EXPECT_NE(event.find(key), std::string::npos) << event;
    }
    ++events;
  }
  EXPECT_EQ(events, 2u);
}

// --- Cross-thread-count determinism of the semantic counters. --------------

core::ArEstimatorOptions ObsModelOptions() {
  core::ArEstimatorOptions opts = core::IamDefaults(8);
  opts.made.hidden_sizes = {32, 32};
  opts.epochs = 1;
  opts.batch_size = 128;
  opts.progressive_samples = 64;
  opts.large_domain_threshold = 200;
  opts.num_threads = 1;
  return opts;
}

// The subset of counters whose totals are functions of (model, queries, seed)
// alone. Topology counters — pool chunks, per-context wt-cache misses, and
// every *_seconds histogram's timings — legitimately vary with the thread
// count and are excluded by construction.
std::map<std::string, uint64_t> SemanticCounterTotals() {
  const MetricsSnapshot snap = MetricRegistry::Global().Snapshot();
  const std::vector<std::string> prefixes = {
      "iam_sampler_", "iam_estimator_queries_total",
      "iam_estimator_batches_total", "iam_gmm_range_mass_evals_total",
      "iam_pool_jobs_total", "iam_pool_indices_total"};
  std::map<std::string, uint64_t> out;
  for (const auto& [name, total] : snap.counters) {
    for (const std::string& prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) {
        out[name] = total;
        break;
      }
    }
  }
  // Per-query latency observations: one Record per query at any thread count.
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name == "iam_estimator_query_seconds") {
      out["query_seconds.count"] = h.count;
    }
  }
  return out;
}

TEST(ObsDeterminismTest, ConcurrentEstimateBatchCountersThreadInvariant) {
  const data::Table table = data::MakeSynWisdm(3000, 77);
  core::ArDensityEstimator est(table, ObsModelOptions());
  est.TrainEpoch();

  std::vector<query::Query> qs;
  for (int i = 0; i < 12; ++i) {
    qs.push_back(query::Query{
        {{.column = 0, .lo = 25.0 + i, .hi = 40.0 + 2.0 * i}}});
  }
  // One always-empty query exercises the dead-query counter.
  qs.push_back(query::Query{{{.column = 0, .lo = 10.0, .hi = 5.0}}});

  std::map<std::string, uint64_t> baseline;
  std::vector<double> baseline_estimates;
  for (const int threads : {1, 2, 4}) {
    est.set_num_threads(threads);
    MetricRegistry::Global().ResetAll();

    // race_test-style: two concurrent callers of the same estimator; the
    // batch mutex serializes them, the registry sums their work.
    std::vector<double> r1, r2;
    std::thread other([&] { r2 = est.EstimateBatch(qs); });
    r1 = est.EstimateBatch(qs);
    other.join();

    const std::map<std::string, uint64_t> totals = SemanticCounterTotals();
    EXPECT_EQ(totals.at("iam_estimator_queries_total"), 2 * qs.size());
    EXPECT_EQ(totals.at("iam_sampler_dead_queries_total"), 2u);
    EXPECT_EQ(totals.at("query_seconds.count"), 2 * qs.size());
    EXPECT_EQ(r1, r2);
    if (threads == 1) {
      baseline = totals;
      baseline_estimates = r1;
    } else {
      EXPECT_EQ(totals, baseline) << "thread count " << threads;
      EXPECT_EQ(r1, baseline_estimates) << "thread count " << threads;
    }
  }
}

}  // namespace
}  // namespace iam::obs
