// Per-layer micro-timings for the traced run. Each calls one module's public
// functions on the workload's own model and inputs and times them from
// outside; nothing here is instrumented inside src/.

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ar/resmade.h"
#include "bucketize/domain_reducer.h"
#include "nn/adam.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "util/random.h"
#include "workloads.h"

namespace iam::perfbench {
namespace {

// Keeps a computed value alive so the optimizer cannot drop the timed work.
volatile double g_sink = 0.0;

// Seconds per call of `body`, repeated until `min_s` elapsed (at least
// `min_calls` calls).
template <typename Body>
double SecondsPerCall(double min_s, int min_calls, Body&& body) {
  const double t0 = NowS();
  int calls = 0;
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = NowS() - t0;
  } while (elapsed < min_s || calls < min_calls);
  return elapsed / calls;
}

void RandomFill(nn::Matrix& m, Rng& rng) {
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      m.at(r, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
}

// The ResMADE hidden-layer shapes common to every workload's model.
constexpr int kShapes[][2] = {{256, 128}, {128, 128}, {128, 256}};

void NnKernels(Report& report) {
  obs::TraceSpan span("perfbench.nn");
  Rng rng(7);
  for (const auto& shape : kShapes) {
    const int in = shape[0], out = shape[1];
    const std::string tag = std::to_string(in) + "x" + std::to_string(out);
    // Forward at the sampler's 256-row slice.
    constexpr int kRows = 256;
    nn::Matrix x(kRows, in), w(out, in), y, wt;
    RandomFill(x, rng);
    RandomFill(w, rng);
    const double fwd = SecondsPerCall(0.05, 5, [&] {
      nn::LinearForward(x, w, {}, y, wt);
      g_sink = g_sink + y.at(0, 0);
    });
    const double flops = 2.0 * kRows * in * out;
    // Bytes moved computed from tensor sizes: read x and w, write y.
    const double bytes = 4.0 * (kRows * in + in * out + kRows * out);
    report.Set("nn.linear_forward_gflops." + tag, flops / fwd * 1e-9);
    report.Set("nn.linear_forward_gbps." + tag, bytes / fwd * 1e-9);
    // Backward at the training batch size.
    constexpr int kBatch = 512;
    nn::Matrix xb(kBatch, in), dy(kBatch, out), dx, dw(out, in);
    std::vector<float> dbias(static_cast<size_t>(out));
    RandomFill(xb, rng);
    RandomFill(dy, rng);
    const double bwd = SecondsPerCall(0.05, 5, [&] {
      nn::LinearBackward(xb, w, dy, dx, dw, dbias);
      g_sink = g_sink + dx.at(0, 0);
    });
    report.Set("nn.linear_backward_gflops." + tag,
               2.0 * 2.0 * kBatch * in * out / bwd * 1e-9);
  }
}

void ArModel(core::ArDensityEstimator& model, Report& report) {
  obs::TraceSpan span("perfbench.ar");
  const ar::ResMade& made = model.made();
  const int cols = made.num_columns();
  Rng rng(11);
  // Conditionals on 256-row slices: inputs hold sampled values for the
  // columns before `col` and wildcards after, as in progressive sampling.
  constexpr int kRows = 256;
  ar::ResMade::Context ctx;
  nn::Matrix probs;
  double total_s = 0.0;
  for (int col = 0; col < cols; ++col) {
    std::vector<std::vector<int>> inputs(kRows, std::vector<int>(cols));
    for (auto& row : inputs) {
      for (int c = 0; c < cols; ++c) {
        row[c] = c < col ? static_cast<int>(rng.UniformInt(
                               static_cast<uint64_t>(made.domain_size(c))))
                         : made.wildcard_token(c);
      }
    }
    total_s += SecondsPerCall(0.02, 3, [&] {
      made.ConditionalDistribution(inputs, col, probs, ctx);
      g_sink = g_sink + probs.at(0, 0);
    });
  }
  report.Set("ar.conditional_us_per_row", total_s / cols / kRows * 1e6);

  // One training step on a private copy of the architecture (the served
  // weights are never touched).
  std::vector<int> domains;
  for (int c = 0; c < cols; ++c) domains.push_back(made.domain_size(c));
  ar::ResMade trainee(domains, model.options().made, 3);
  nn::Adam adam;
  trainee.RegisterParameters(adam);
  std::vector<std::vector<int>> batch(
      static_cast<size_t>(model.options().batch_size), std::vector<int>(cols));
  for (auto& row : batch) {
    for (int c = 0; c < cols; ++c) {
      row[c] = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(domains[c])));
    }
  }
  Rng train_rng(5);
  report.Set("ar.train_step_ms", 1e3 * SecondsPerCall(0.1, 3, [&] {
               g_sink = g_sink + trainee.TrainStep(batch, adam, train_rng);
             }));
}

void Reducers(const Setup& setup, Report& report) {
  obs::TraceSpan span("perfbench.bucketize");
  const core::ArDensityEstimator& model = setup.Model();
  const data::Table& table = setup.in.table;
  std::vector<std::pair<int, query::Predicate>> ranges;
  for (const query::Query& q : setup.in.queries) {
    for (const query::Predicate& p : q.predicates) {
      if (model.IsReduced(p.column)) ranges.emplace_back(p.column, p);
    }
  }
  if (ranges.empty()) return;
  size_t i = 0;
  report.Set("bucketize.range_mass_us", 1e6 * SecondsPerCall(0.05, 64, [&] {
               const auto& [col, p] = ranges[i++ % ranges.size()];
               g_sink = g_sink + model.reducer(col)->RangeMass(p.lo, p.hi)[0];
             }));
  const int col = ranges.front().first;
  const std::vector<double>& values = table.column(col).values;
  const bucketize::DomainReducer& reducer = *model.reducer(col);
  constexpr int kChunk = 4096;
  size_t at = 0;
  const double per_chunk = SecondsPerCall(0.05, 3, [&] {
    int sum = 0;
    for (int k = 0; k < kChunk; ++k) {
      sum += reducer.Assign(values[at++ % values.size()]);
    }
    g_sink = g_sink + sum;
  });
  report.Set("bucketize.assign_ns", per_chunk / kChunk * 1e9);
}

void QueryAndProtocol(const Setup& setup, Report& report) {
  obs::TraceSpan span("perfbench.query_protocol");
  const std::vector<std::string>& texts = setup.in.texts;
  size_t i = 0;
  report.Set("query.parse_us", 1e6 * SecondsPerCall(0.05, 64, [&] {
               const auto parsed = query::ParsePredicates(
                   setup.in.table, texts[i++ % texts.size()]);
               g_sink = g_sink + (parsed.ok() ? 1.0 : 0.0);
             }));
  std::vector<std::string> frames;
  for (const std::string& t : texts) {
    frames.push_back(serve::EncodeFrame({serve::FrameType::kEstimate, t}));
  }
  i = 0;
  report.Set("serve.protocol.encode_ns", 1e9 * SecondsPerCall(0.05, 64, [&] {
               const std::string bytes = serve::EncodeFrame(
                   {serve::FrameType::kEstimate, texts[i++ % texts.size()]});
               g_sink = g_sink + static_cast<double>(bytes.size());
             }));
  i = 0;
  report.Set("serve.protocol.decode_ns", 1e9 * SecondsPerCall(0.05, 64, [&] {
               serve::Frame frame;
               const auto used =
                   serve::DecodeFrame(frames[i++ % frames.size()], &frame);
               g_sink = g_sink + (used.ok() ? static_cast<double>(*used) : 0.0);
             }));
}

void Observability(Report& report) {
  obs::TraceSpan span("perfbench.obs");
  obs::QueryLog log(obs::QueryLog::kDefaultCapacity);
  obs::QueryRecord rec;
  rec.selectivity = 0.25;
  constexpr int kChunk = 1024;
  const double per_chunk = SecondsPerCall(0.05, 3, [&] {
    for (int k = 0; k < kChunk; ++k) log.Append(rec);
  });
  report.Set("obs.querylog_append_ns", per_chunk / kChunk * 1e9);
  report.Set("obs.scrape_ms", 1e3 * SecondsPerCall(0.05, 5, [&] {
               const std::string text = obs::MetricsToPrometheus(
                   obs::MetricRegistry::Global().Snapshot());
               g_sink = g_sink + static_cast<double>(text.size());
             }));
}

// Per-query cost of EstimateBatch at batch sizes 1, 32 and 128 over the same
// 128 queries, and the share of batch-128 estimates that differ bitwise from
// solo Estimate(q) (the batch-composition dependence of DESIGN.md §13).
void CoreBatchSizes(const Setup& setup, Report& report) {
  obs::TraceSpan span("perfbench.core_batch_sizes");
  core::ArDensityEstimator& model = setup.Model();
  const size_t n = std::min<size_t>(128, setup.in.queries.size());
  const std::span<const query::Query> qs(setup.in.queries.data(), n);
  std::vector<double> solo(n), b128;
  for (size_t batch : {size_t{1}, size_t{32}, size_t{128}}) {
    const double t0 = NowS();
    for (size_t b = 0; b < n; b += batch) {
      if (batch == 1) {
        solo[b] = model.Estimate(qs[b]);
      } else {
        const std::vector<double> est =
            model.EstimateBatch(qs.subspan(b, std::min(batch, n - b)));
        if (batch == 128) b128.insert(b128.end(), est.begin(), est.end());
      }
    }
    report.Set("core.estimate_ms_per_query.b" + std::to_string(batch),
               (NowS() - t0) * 1e3 / static_cast<double>(n));
  }
  size_t differ = 0;
  for (size_t i = 0; i < n; ++i) differ += b128[i] != solo[i] ? 1 : 0;
  report.Set("core.batch_variant_frac",
             static_cast<double>(differ) / static_cast<double>(n));
}

// MicroBatcher::Estimate at the low rate with no socket: a private shard on
// the served registry, one blocking caller every 10 ms.
void InProcessBatcher(Setup& setup, Report& report) {
  obs::TraceSpan span("perfbench.inproc_batcher");
  serve::MicroBatcher batcher(*setup.registry, serve::BatcherOptions{},
                              /*shard_index=*/1);
  std::vector<double> ms;
  for (size_t i = 0; i < 50; ++i) {
    const double t0 = NowS();
    const auto r =
        batcher.Estimate(setup.in.queries[i % setup.in.queries.size()]);
    ms.push_back((NowS() - t0) * 1e3);
    g_sink = g_sink + r.selectivity;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  batcher.DrainAndStop();
  report.SetSummary("serve.batcher.inproc_p50_ms.low", Quantile(ms, 0.5), ms);
  report.Set("serve.loop.overhead_ms.low",
             report.Get("serve.low_p50_ms") - Quantile(ms, 0.5));
}

// ModelRegistry::Swap of a freshly built model into a registry configured
// like the served one (one replica, pool of 2).
void RegistrySwap(const Setup& setup, Report& report) {
  obs::TraceSpan span("perfbench.registry_swap");
  const core::ArEstimatorOptions opts = setup.Model().options();
  auto make = [&] {
    return std::make_unique<core::ArDensityEstimator>(setup.in.table, opts);
  };
  serve::ModelRegistry registry(make(), "spare", opts.num_threads, 1);
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    auto model = make();
    const double t0 = NowS();
    registry.Swap(std::move(model), "spare");
    ms.push_back((NowS() - t0) * 1e3);
  }
  report.SetMedian("serve.registry.swap_ms", ms);
}

// Self time per span name: its duration minus the parts of it covered by
// spans nested inside it on the same thread.
std::map<std::string, double> SelfTimesMs() {
  std::vector<obs::TraceEvent> events = obs::TraceRecorder::Global().Events();
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;  // parents first
                   });
  std::map<std::string, double> self;
  struct Open {
    const obs::TraceEvent* e;
    double children_us;
  };
  std::vector<Open> stack;
  int tid = -1;
  auto close_until = [&](double ts) {
    while (!stack.empty() && (ts < 0.0 || stack.back().e->ts_us +
                                                  stack.back().e->dur_us <=
                                              ts)) {
      const Open top = stack.back();
      stack.pop_back();
      self[top.e->name] += (top.e->dur_us - top.children_us) * 1e-3;
      if (!stack.empty()) stack.back().children_us += top.e->dur_us;
    }
  };
  for (const obs::TraceEvent& e : events) {
    if (e.tid != tid) {
      close_until(-1.0);
      tid = e.tid;
    }
    close_until(e.ts_us);
    stack.push_back({&e, 0.0});
  }
  close_until(-1.0);
  return self;
}

}  // namespace

void MeasureLayers(Setup& setup, Report& report, Tally& tally) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  // Spans of the workload itself, read before the micro-timings add theirs.
  const std::map<std::string, double> self = SelfTimesMs();
  for (const char* name : {"core.estimate_batch", "estimator.batch",
                           "pool.parallel_for", "core.train_epoch",
                           "ar.train_step"}) {
    const auto it = self.find(name);
    report.Set(std::string("trace.") + name + ".self_ms",
               it == self.end() ? 0.0 : it->second);
  }
  for (const obs::PhaseStats& p : recorder.Phases()) {
    if (p.name == "core.train_epoch") {
      report.Set("core.train_epoch_s", p.MeanMs() * 1e-3);
    }
  }

  NnKernels(report);
  ArModel(setup.Model(), report);
  Reducers(setup, report);
  QueryAndProtocol(setup, report);
  Observability(report);
  CoreBatchSizes(setup, report);
  if (setup.registry) {
    InProcessBatcher(setup, report);
    RegistrySwap(setup, report);
  }

  // Tracing overhead and bit-exactness: the same batch-128 pass with the
  // recorder off and on, interleaved; the estimates must match bitwise.
  core::ArDensityEstimator& model = setup.Model();
  const size_t n = std::min<size_t>(256, setup.in.queries.size());
  const std::span<const query::Query> qs(setup.in.queries.data(), n);
  auto pass = [&](bool traced, std::vector<double>& out) {
    recorder.SetEnabled(traced);
    out.clear();
    const double t0 = NowS();
    for (size_t b = 0; b < n; b += 128) {
      const std::vector<double> est =
          model.EstimateBatch(qs.subspan(b, std::min<size_t>(128, n - b)));
      out.insert(out.end(), est.begin(), est.end());
    }
    return NowS() - t0;
  };
  std::vector<double> off_s, on_s, off_est, on_est;
  for (int rep = 0; rep < 5; ++rep) {
    off_s.push_back(pass(false, off_est));
    on_s.push_back(pass(true, on_est));
    ++tally.attempted;
    if (std::memcmp(off_est.data(), on_est.data(), n * sizeof(double)) != 0) {
      tally.Fail("estimates differ between traced and untraced passes");
    }
  }
  const double off = Quantile(off_s, 0.5);
  report.Set("trace.overhead_frac", (Quantile(on_s, 0.5) - off) / off);
}

}  // namespace iam::perfbench
