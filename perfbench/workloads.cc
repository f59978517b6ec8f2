#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cmath>
#include <string>
#include <utility>

#include "adapt/feedback.h"
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "query/workload.h"
#include "util/random.h"

namespace iam::perfbench {
namespace {

// Distinct queries per workload; served requests draw from this pool.
constexpr int kQueryPool = 1024;
// The serving configuration: serve_cli's defaults (1 shard, max_batch 32,
// 2 ms max_delay, queue 512) and a model pool of 2 threads. The batcher
// knobs are deliberately left at their defaults.
constexpr int kPoolThreads = 2;
constexpr int kConnections = 2;
// Offered rates of the open-loop phases. On a 4-core host this
// configuration serves about 1000 queries/s: `mid` is about 30% of that,
// `over` about 1.5x of it.
constexpr double kLowQps = 100.0;
constexpr double kMidQps = 300.0;
constexpr double kOverQps = 1500.0;
// Served runs cycle through the phases in rounds of about this length; a
// metric is the median of its per-round values.
constexpr double kRoundSeconds = 2.5;
// batch_higgs: solo Estimate(q) is timed on this many queries of the pool.
constexpr size_t kSoloQueries = 256;
// serve_wisdm's adaptation phase: the drifted table, how it is streamed in,
// and the feedback that fires the drift trigger.
constexpr size_t kShiftRows = 8192;
constexpr size_t kAppendRowsPerFrame = 1024;
constexpr double kShiftStddevs = 2.0;
// AdaptOptions::min_feedback_between_retrains: the trigger can first fire
// on this feedback, so sending exactly this many pins which one fires it.
constexpr int kFeedbackFrames = 64;
constexpr double kAdaptMaxSeconds = 40.0;
constexpr double kPostSwapSeconds = 2.0;

// The WISDM table drawn from another seed with every continuous column moved
// up by kShiftStddevs of its standard deviation in `base`.
data::Table ShiftedWisdm(const data::Table& base, uint64_t seed) {
  data::Table shifted = data::MakeSynWisdm(kShiftRows, seed);
  for (int c = 0; c < shifted.num_columns(); ++c) {
    if (shifted.column(c).type != data::ColumnType::kContinuous) continue;
    const std::vector<double>& v = base.column(c).values;
    double mean = 0.0, sq = 0.0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    for (double x : v) sq += (x - mean) * (x - mean);
    const double delta =
        kShiftStddevs * std::sqrt(sq / static_cast<double>(v.size()));
    for (double& x : shifted.mutable_column(c).values) x += delta;
  }
  return shifted;
}

Inputs MakeInputs(const RunOptions& run) {
  Inputs in;
  const bool higgs = run.workload == "batch_higgs";
  // The benches' fixed datasets (and so one trained model per workload):
  // the seed draws the query pool, the arrival schedule and the feedback.
  in.table = bench::MakeDataset(higgs ? "higgs" : "wisdm");
  Rng rng(run.seed * 0x9e3779b97f4a7c15ULL + 17);
  query::WorkloadOptions wopts;
  wopts.num_queries = kQueryPool;
  query::EvaluatedWorkload wl =
      query::GenerateEvaluatedWorkload(in.table, wopts, rng);
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    std::string text = query::ToString(in.table, wl.queries[i]);
    if (text.empty()) continue;  // constrains nothing: not expressible
    in.queries.push_back(wl.queries[i]);
    in.texts.push_back(std::move(text));
    in.truth.push_back(wl.true_selectivities[i]);
  }
  if (!higgs) {
    in.shifted = ShiftedWisdm(in.table, bench::kDataSeed + 11);
    for (const query::Query& q : in.queries) {
      in.shifted_truth.push_back(query::TrueSelectivity(in.shifted, q));
    }
  }
  return in;
}

// One open-loop phase: what the generator saw plus the batcher's histogram
// deltas over it. Merge() pools several rounds of the same phase.
struct PhaseResult {
  std::vector<double> latency_ms;  // accepted estimates, due -> receive
  std::vector<double> qerror;
  uint64_t sent = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  double late_max_ms = 0.0;
  double last_reply_s = 0.0;
  obs::HistogramSnapshot batch_size, queue_wait, query_exec;

  double Quantile(double q) const { return perfbench::Quantile(latency_ms, q); }
  double AcceptedQps() const {
    return Ratio(static_cast<double>(accepted), last_reply_s);
  }
  void ReadBatcher(const CounterDelta& d) {
    batch_size = d.Histogram("iam_serve_batch_size");
    queue_wait = d.Histogram("iam_serve_queue_wait_seconds");
    query_exec = d.Histogram("iam_serve_query_exec_seconds");
  }
  void Merge(const PhaseResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    qerror.insert(qerror.end(), o.qerror.begin(), o.qerror.end());
    sent += o.sent;
    accepted += o.accepted;
    rejected += o.rejected;
    late_max_ms = std::max(late_max_ms, o.late_max_ms);
    for (auto [into, from] : {std::pair{&batch_size, &o.batch_size},
                              std::pair{&queue_wait, &o.queue_wait},
                              std::pair{&query_exec, &o.query_exec}}) {
      if (into->bounds.empty()) {
        *into = *from;
      } else if (!from->bounds.empty()) {
        into->Merge(*from);
      }
    }
  }
};

std::vector<Send> PoissonEstimates(const Inputs& in, double qps,
                                   double seconds, int conn_count, Rng& rng) {
  std::vector<Send> schedule;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / qps;
    if (t >= seconds) break;
    Send s;
    s.due_s = t;
    s.conn = static_cast<int>(schedule.size() % conn_count);
    s.tag = static_cast<int>(rng.UniformInt(in.queries.size()));
    s.payload = in.texts[static_cast<size_t>(s.tag)];
    schedule.push_back(std::move(s));
  }
  return schedule;
}

// Checks one estimate reply; returns true when it was accepted and correct.
// `truth` selects the ground truth its q-error is taken against.
bool CheckEstimate(const Outcome& o, const Send& s, const Setup& setup,
                   const std::vector<double>& truth, size_t truth_rows,
                   bool allow_reject, PhaseResult& phase, Tally& tally) {
  ++tally.attempted;
  ++phase.sent;
  phase.late_max_ms = std::max(phase.late_max_ms, o.LateMs());
  if (!o.answered) {
    tally.Fail("estimate without a reply");
    return false;
  }
  phase.last_reply_s = std::max(phase.last_reply_s, o.recv_s);
  if (o.reply == serve::FrameType::kOverloaded) {
    ++phase.rejected;
    if (!allow_reject) tally.Fail("estimate rejected below capacity");
    return false;
  }
  if (o.reply != serve::FrameType::kEstimateOk || !o.decoded) {
    tally.Fail("estimate answered with an error");
    return false;
  }
  if (!std::isfinite(o.selectivity) || o.selectivity < 0.0 ||
      o.selectivity > 1.0) {
    tally.Fail("selectivity not finite or outside [0, 1]");
    return false;
  }
  if (o.model_version < 1 ||
      o.model_version > setup.registry->current_version()) {
    tally.Fail("reply carries a model version that does not exist");
    return false;
  }
  ++phase.accepted;
  phase.latency_ms.push_back(o.LatencyMs());
  phase.qerror.push_back(query::QError(truth[static_cast<size_t>(s.tag)],
                                       o.selectivity, truth_rows));
  return true;
}

PhaseResult RunEstimatePhase(OpenLoop& gen, const Setup& setup,
                             const std::vector<double>& truth,
                             size_t truth_rows, double qps, double seconds,
                             bool allow_reject, Rng& rng, Tally& tally) {
  obs::TraceSpan span("perfbench.serve_phase");
  const CounterDelta counters;
  PhaseResult phase;
  const std::vector<Send> schedule =
      PoissonEstimates(setup.in, qps, seconds, kConnections, rng);
  const std::vector<Outcome> outcomes = gen.Run(schedule, nullptr);
  CounterDelta after = counters;
  after.Refresh();
  phase.ReadBatcher(after);
  for (size_t i = 0; i < schedule.size(); ++i) {
    CheckEstimate(outcomes[i], schedule[i], setup, truth, truth_rows,
                  allow_reject, phase, tally);
  }
  return phase;
}

// Rounds of the three open-loop phases.
struct ServedRounds {
  std::vector<PhaseResult> low, mid, over;
};

void RunRounds(OpenLoop& gen, const Setup& setup,
               const std::vector<double>& truth, size_t truth_rows,
               double seconds, Rng& rng, Tally& tally, ServedRounds& rounds) {
  const int count = std::max(2, static_cast<int>(seconds / kRoundSeconds));
  const double round_s = seconds / count;
  for (int r = 0; r < count; ++r) {
    rounds.low.push_back(RunEstimatePhase(gen, setup, truth, truth_rows,
                                          kLowQps, 0.4 * round_s, false, rng,
                                          tally));
    rounds.mid.push_back(RunEstimatePhase(gen, setup, truth, truth_rows,
                                          kMidQps, 0.2 * round_s, false, rng,
                                          tally));
    rounds.over.push_back(RunEstimatePhase(gen, setup, truth, truth_rows,
                                           kOverQps, 0.4 * round_s, true, rng,
                                           tally));
  }
}

template <typename Stat>
double MedianOver(const std::vector<PhaseResult>& phases, Stat stat) {
  std::vector<double> values;
  for (const PhaseResult& p : phases) values.push_back(stat(p));
  return Quantile(values, 0.5);
}

PhaseResult Pooled(const std::vector<PhaseResult>& phases) {
  PhaseResult all;
  for (const PhaseResult& p : phases) all.Merge(p);
  return all;
}

// serve.batcher.* per-layer metrics of one phase, from the batcher's own
// histograms.
void BatcherLayerMetrics(const PhaseResult& phase, const std::string& tag,
                         bool with_latency_split, Report& report) {
  report.Set("serve.batcher.mean_batch." + tag, phase.batch_size.Mean());
  if (!with_latency_split) return;
  report.Set("serve.batcher.queue_wait_p50_ms." + tag,
             phase.queue_wait.count > 0 ? phase.queue_wait.Quantile(0.5) * 1e3
                                        : 0.0);
  report.Set("serve.batcher.exec_ms_per_query." + tag,
             phase.query_exec.Mean() * 1e3);
}

void ServedMetrics(const ServedRounds& rounds, Report& report) {
  const PhaseResult low = Pooled(rounds.low);
  const PhaseResult mid = Pooled(rounds.mid);
  const PhaseResult over = Pooled(rounds.over);
  auto p50 = [](const PhaseResult& p) { return p.Quantile(0.5); };
  auto p90 = [](const PhaseResult& p) { return p.Quantile(0.9); };
  report.SetSummary("serve.low_p50_ms", MedianOver(rounds.low, p50),
                    low.latency_ms);
  report.SetSummary("serve.low_p90_ms", MedianOver(rounds.low, p90),
                    low.latency_ms);
  report.SetSummary("serve.mid_p50_ms", MedianOver(rounds.mid, p50),
                    mid.latency_ms);
  report.SetSummary("serve.mid_p90_ms", MedianOver(rounds.mid, p90),
                    mid.latency_ms);
  std::vector<double> qps;
  for (const PhaseResult& p : rounds.over) qps.push_back(p.AcceptedQps());
  report.SetSummary("capacity_qps", Quantile(qps, 0.5), qps);
  // Per-layer: admission, the generator's own lateness, the batcher.
  report.Set("serve.admission.reject_frac.over",
             Ratio(static_cast<double>(over.rejected),
                   static_cast<double>(over.sent)));
  report.Set("loadgen.late_ms.max", std::max({low.late_max_ms,
                                              mid.late_max_ms,
                                              over.late_max_ms}));
  BatcherLayerMetrics(low, "low", true, report);
  BatcherLayerMetrics(mid, "mid", true, report);
  BatcherLayerMetrics(over, "over", false, report);
}

// Accuracy against exact scans. The geometric mean and the median are the
// gated metrics; the tail swings with which queries a seed draws, so it is
// printed for reading, not gated.
void QErrorMetrics(const std::vector<double>& qerrors, Report& report) {
  double log_sum = 0.0;
  for (double q : qerrors) log_sum += std::log(q);
  report.SetSummary("qerror_gmean",
                    std::exp(log_sum / static_cast<double>(qerrors.size())),
                    qerrors);
  report.SetSummary("qerror_p50", Quantile(qerrors, 0.5), qerrors);
  std::printf("q-error over %zu estimates: p50 %.4g p90 %.4g p95 %.4g "
              "p99 %.4g max %.4g\n",
              qerrors.size(), Quantile(qerrors, 0.5), Quantile(qerrors, 0.9),
              Quantile(qerrors, 0.95), Quantile(qerrors, 0.99),
              Quantile(qerrors, 1.0));
}

core::ArEstimatorOptions ServedModelOptions() {
  // The paper's architecture and inference settings at bench scale
  // (ResMADE 256-128-128-256, 30 GMM components, 256 progressive samples),
  // trained for fewer steps than the accuracy benches so that three
  // set-ups fit in one run.
  core::ArEstimatorOptions opts = bench::BenchIamOptions();
  opts.epochs = 2;
  opts.max_train_rows = 10000;
  opts.num_threads = kPoolThreads;
  return opts;
}

}  // namespace

core::ArDensityEstimator& Setup::Model() const {
  return registry ? *registry->Current()->estimator : *model;
}

std::unique_ptr<Setup> MakeSetup(const RunOptions& run) {
  obs::TraceSpan span("perfbench.setup");
  auto setup = std::make_unique<Setup>();
  setup->in = MakeInputs(run);
  auto model = std::make_unique<core::ArDensityEstimator>(
      setup->in.table, ServedModelOptions());
  model->Train();
  if (run.workload == "batch_higgs") {
    setup->model = std::move(model);
    return setup;
  }
  setup->registry = std::make_unique<serve::ModelRegistry>(
      std::move(model), "perfbench", kPoolThreads, /*replicas=*/1);
  // serve_cli's defaults, ephemeral port.
  setup->server = std::make_unique<serve::EstimatorServer>(
      *setup->registry, serve::ServerOptions{});
  const Status started = setup->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  return setup;
}

void RunServeWisdm(const RunOptions& run, Setup& setup, Report& report,
                   Tally& tally) {
  OpenLoop gen;
  if (!gen.Connect(setup.server->port(), kConnections).ok()) {
    tally.Fail("cannot connect to the server");
    return;
  }
  Rng rng(run.seed ^ 0x5eed5eedULL);
  ServedRounds rounds;
  RunRounds(gen, setup, setup.in.truth, setup.in.table.num_rows(),
            run.seconds, rng, tally, rounds);
  ServedMetrics(rounds, report);
  std::vector<double> qerrors;
  for (const auto* phases : {&rounds.low, &rounds.mid, &rounds.over}) {
    for (const PhaseResult& p : *phases) {
      qerrors.insert(qerrors.end(), p.qerror.begin(), p.qerror.end());
    }
  }
  QErrorMetrics(qerrors, report);
}

void RunBatchHiggs(const RunOptions& run, Setup& setup, Report& report,
                   Tally& tally) {
  core::ArDensityEstimator& model = setup.Model();
  const std::vector<query::Query>& qs = setup.in.queries;
  constexpr size_t kBatch = 128;
  const size_t solo_n = std::min(kSoloQueries, qs.size());
  const size_t batches = (qs.size() + kBatch - 1) / kBatch;

  // Closed loop, alternating two kinds of pass until the run's time is
  // used, and at least twice: EstimateBatch at batch 128 over the whole
  // query set, and solo Estimate(q) over its first kSoloQueries queries.
  // Each batch and each solo query is timed on every pass and counted by
  // its median over the passes. Every batch pass must reproduce the first
  // bitwise (same batch composition).
  std::vector<double> first(qs.size());
  std::vector<std::vector<double>> batch_ms(batches), solo_ms(solo_n);
  auto check = [&](double e) {
    ++tally.attempted;
    const bool ok = std::isfinite(e) && e >= 0.0 && e <= 1.0;
    if (!ok) tally.Fail("selectivity not finite or outside [0, 1]");
    return ok;
  };
  const double end = NowS() + run.seconds;
  for (int pass = 0; pass < 2 || NowS() < end; ++pass) {
    for (size_t b = 0; b < batches; ++b) {
      const size_t lo = b * kBatch, n = std::min(kBatch, qs.size() - lo);
      const double t0 = NowS();
      std::vector<double> est;
      {
        obs::TraceSpan span("perfbench.estimate_batch");
        est = model.EstimateBatch(std::span(qs).subspan(lo, n));
      }
      batch_ms[b].push_back((NowS() - t0) * 1e3);
      for (size_t i = 0; i < n; ++i) {
        if (!check(est[i])) continue;
        if (pass == 0) {
          first[lo + i] = est[i];
        } else if (est[i] != first[lo + i]) {
          tally.Fail("batch estimate changed between identical passes");
        }
      }
    }
    for (size_t i = 0; i < solo_n; ++i) {
      const double t0 = NowS();
      double e;
      {
        obs::TraceSpan span("perfbench.estimate_solo");
        e = model.Estimate(qs[i]);
      }
      solo_ms[i].push_back((NowS() - t0) * 1e3);
      check(e);
    }
  }
  auto medians = [](const std::vector<std::vector<double>>& per_item) {
    std::vector<double> out;
    for (const std::vector<double>& v : per_item) {
      out.push_back(Quantile(v, 0.5));
    }
    return out;
  };
  const std::vector<double> solo = medians(solo_ms);
  const std::vector<double> batch = medians(batch_ms);
  double pass_ms = 0.0;
  for (double ms : batch) pass_ms += ms;

  std::vector<double> qerrors;
  uint64_t digest = 14695981039346656037ULL;  // FNV-1a over the estimate bits
  for (size_t i = 0; i < qs.size(); ++i) {
    qerrors.push_back(
        query::QError(setup.in.truth[i], first[i], setup.in.table.num_rows()));
    digest = (digest ^ std::bit_cast<uint64_t>(first[i])) * 1099511628211ULL;
  }
  // Equal across traced and untraced runs of one seed.
  std::printf("batch estimates digest: %016llx\n",
              static_cast<unsigned long long>(digest));

  report.SetSummary("core.solo_p50_ms", Quantile(solo, 0.5), solo);
  report.SetSummary("core.solo_p90_ms", Quantile(solo, 0.9), solo);
  report.Set("capacity_qps",
             Ratio(static_cast<double>(qs.size()), pass_ms * 1e-3));
  QErrorMetrics(qerrors, report);
}

// The adaptation phase of serve_wisdm, after its rounds. The server is
// restarted with an AdaptController on the same registry. Connection 0 then
// carries low-rate estimates, and connection 1 the write stream: the drifted
// rows, then feedback against the drifted ground truth. The phase ends
// kPostSwapSeconds after the first reply from the retrained model.
void RunAdaptPhase(const RunOptions& run, Setup& setup, Report& report,
                   Tally& tally) {
  setup.server.reset();  // drains and joins the first server
  setup.controller = std::make_unique<adapt::AdaptController>(
      *setup.registry, adapt::AdaptOptions{});
  serve::ServerOptions options;
  options.adapt = setup.controller.get();
  setup.server =
      std::make_unique<serve::EstimatorServer>(*setup.registry, options);
  OpenLoop gen;
  if (!setup.server->Start().ok() ||
      !gen.Connect(setup.server->port(), kConnections).ok()) {
    tally.Fail("cannot restart the server with adaptation on");
    return;
  }
  const Inputs& in = setup.in;
  Rng rng(run.seed ^ 0xada97ULL);
  const CounterDelta counters;

  std::vector<Send> schedule =
      PoissonEstimates(in, kLowQps, kAdaptMaxSeconds, 1, rng);
  const int cols = in.shifted.num_columns();
  size_t append_frames = 0;
  for (size_t r0 = 0; r0 < in.shifted.num_rows();
       r0 += kAppendRowsPerFrame, ++append_frames) {
    adapt::AppendPayload append;
    append.cols = cols;
    const size_t r1 = std::min(in.shifted.num_rows(), r0 + kAppendRowsPerFrame);
    for (size_t r = r0; r < r1; ++r) {
      for (int c = 0; c < cols; ++c) {
        append.values.push_back(in.shifted.value(r, c));
      }
    }
    Send s;
    s.due_s = 0.05 + 0.02 * static_cast<double>(append_frames);
    s.conn = 1;
    s.type = serve::FrameType::kAppendData;
    s.payload = adapt::EncodeAppendPayload(append);
    schedule.push_back(std::move(s));
  }
  const double feedback_start =
      0.1 + 0.02 * static_cast<double>(append_frames);
  for (int i = 0; i < kFeedbackFrames; ++i) {
    const size_t q = rng.UniformInt(in.queries.size());
    adapt::FeedbackPayload fb;
    fb.actual = in.shifted_truth[q];
    fb.predicates = in.texts[q];
    Send s;
    s.due_s = feedback_start + 0.02 * i;
    s.conn = 1;
    s.type = serve::FrameType::kFeedback;
    s.payload = adapt::EncodeFeedbackPayload(fb);
    schedule.push_back(std::move(s));
  }
  std::stable_sort(
      schedule.begin(), schedule.end(),
      [](const Send& a, const Send& b) { return a.due_s < b.due_s; });

  double swap_seen_s = -1.0;
  auto on_reply = [&](size_t idx, const Outcome& o, double now) {
    if (swap_seen_s < 0.0 &&
        schedule[idx].type == serve::FrameType::kEstimate &&
        o.reply == serve::FrameType::kEstimateOk && o.model_version >= 2) {
      swap_seen_s = now;
    }
    return swap_seen_s >= 0.0 && now >= swap_seen_s + kPostSwapSeconds;
  };
  std::vector<Outcome> outcomes;
  {
    obs::TraceSpan span("perfbench.adapt_phase");
    outcomes = gen.Run(schedule, on_reply);
  }
  CounterDelta after = counters;
  after.Refresh();
  // The phase is cut into one-second windows by due time; like rounds, a
  // latency metric is the median of its per-window values.
  std::vector<PhaseResult> windows(1);
  std::vector<double> qerror_shift, qerror_swap, feedback_ms;
  double last_feedback_sent = 0.0, first_append_sent = -1.0,
         last_append_acked = 0.0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Send& s = schedule[i];
    const Outcome& o = outcomes[i];
    if (s.type == serve::FrameType::kFeedback && o.sent) {
      last_feedback_sent = std::max(last_feedback_sent, o.sent_s);
    }
  }
  std::vector<double> retrain_window_ms;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Send& s = schedule[i];
    const Outcome& o = outcomes[i];
    if (!o.sent) continue;  // past the stop point
    if (s.type == serve::FrameType::kEstimate) {
      const size_t w = static_cast<size_t>(s.due_s);
      if (w >= windows.size()) windows.resize(w + 1);
      if (CheckEstimate(o, s, setup, in.shifted_truth, in.shifted.num_rows(),
                        false, windows[w], tally)) {
        (o.model_version >= 2 ? qerror_swap : qerror_shift)
            .push_back(windows[w].qerror.back());
        if (s.due_s >= last_feedback_sent && s.due_s <= swap_seen_s) {
          retrain_window_ms.push_back(o.LatencyMs());
        }
      }
      continue;
    }
    ++tally.attempted;
    if (!o.answered || o.reply != serve::FrameType::kOk) {
      tally.Fail("write frame not acknowledged");
      continue;
    }
    if (s.type == serve::FrameType::kFeedback) {
      feedback_ms.push_back(o.LatencyMs());
    } else {
      if (first_append_sent < 0.0) first_append_sent = o.sent_s;
      last_append_acked = std::max(last_append_acked, o.recv_s);
    }
  }
  if (swap_seen_s < 0.0) {
    tally.Fail("the drift trigger never retrained and swapped");
  }
  setup.controller->Flush();
  if (setup.controller->Retrains() != 1 ||
      setup.controller->RetrainFailures() != 0) {
    tally.Fail("expected exactly one successful retrain");
  }
  after.Refresh();
  const double swaps = after.Counter("iam_serve_model_swaps_total");
  if (swaps != 1.0) tally.Fail("expected exactly one model swap");
  const double shift_p90 = Quantile(qerror_shift, 0.9);
  const double swap_p90 = Quantile(qerror_swap, 0.9);
  if (qerror_swap.empty() || !(swap_p90 < shift_p90)) {
    tally.Fail("post-swap q-error p90 is not below the post-shift p90");
  }
  std::printf("adapt: q-error p90 post-shift %.4g (n=%zu), post-swap %.4g "
              "(n=%zu), retrains %llu\n",
              shift_p90, qerror_shift.size(), swap_p90, qerror_swap.size(),
              static_cast<unsigned long long>(setup.controller->Retrains()));

  // Per-layer: reads beside the write stream (median over the windows),
  // the write path and the retrain.
  auto p50 = [](const PhaseResult& p) { return p.Quantile(0.5); };
  auto p90 = [](const PhaseResult& p) { return p.Quantile(0.9); };
  const PhaseResult writes = Pooled(windows);
  report.SetSummary("adapt.write_phase_p50_ms", MedianOver(windows, p50),
                    writes.latency_ms);
  report.SetSummary("adapt.write_phase_p90_ms", MedianOver(windows, p90),
                    writes.latency_ms);
  report.Set("adapt.retrain_s",
             swap_seen_s >= 0.0 ? swap_seen_s - last_feedback_sent : 0.0);
  report.SetSummary("adapt.retrain_window_p90_ms",
                    Quantile(retrain_window_ms, 0.9), retrain_window_ms);
  report.SetSummary("adapt.feedback_ack_p50_ms", Quantile(feedback_ms, 0.5),
                    feedback_ms);
  report.Set("adapt.append_rows_per_s",
             Ratio(static_cast<double>(in.shifted.num_rows()),
                   last_append_acked - first_append_sent));
  report.Set("adapt.retrains",
             static_cast<double>(setup.controller->Retrains()));
}

}  // namespace iam::perfbench
