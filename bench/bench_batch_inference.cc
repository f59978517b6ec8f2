// Reproduces Table 7: inference time with batch query processing on IMDB
// (ms per query at batch sizes 1 / 64 / 128) for MSCN, Neurocard and IAM.
//
// `--json <path>` mirrors both sections into a machine-readable file
// (BENCH_inference.json at the repo root) with the process metrics snapshot
// merged in, mirroring bench_kernels' BENCH_kernels.json.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/query_log.h"
#include "query/query.h"
#include "util/quantiles.h"
#include "util/stopwatch.h"

namespace iam::bench {
namespace {

struct Table7Row {
  std::string estimator;
  std::vector<double> ms_per_query;  // one per batch size
};

struct ScalingRow {
  std::string estimator;
  std::vector<double> ms_per_query;  // one per thread count
  bool bit_identical = true;         // vs the 1-thread estimates
};

struct PooledRow {
  std::string mode;
  double ms_per_query = 0.0;
  ErrorReport qerror;
};

struct QueryLogOverhead {
  double base_ms_per_query = 0.0;       // EstimateBatch, diagnostics discarded
  double diagnosed_ms_per_query = 0.0;  // EstimateBatchDiagnosed + ring append
  double overhead_pct = 0.0;
};

struct Results {
  std::vector<int> batch_sizes;
  std::vector<Table7Row> table7;
  std::vector<int> thread_counts;
  std::vector<ScalingRow> scaling;
  std::vector<PooledRow> pooled;
  QueryLogOverhead querylog;
};

Results Run() {
  Results results;
  std::printf("\n### Table 7: batch inference on IMDB (ms per query)\n");
  const ImdbBundle imdb = MakeImdb();
  Rng rng(kDataSeed + 305);
  const join::ExactWeightSampler sampler(imdb.schema);
  const data::Table join_sample = sampler.Sample(20000, rng);

  query::WorkloadOptions wopts;
  wopts.num_queries = 128;
  wopts.column_prob = 0.45;
  const auto test = query::GenerateEvaluatedWorkload(join_sample, wopts, rng);
  wopts.num_queries = 300;
  const auto train = query::GenerateEvaluatedWorkload(join_sample, wopts, rng);

  results.batch_sizes = {1, 64, 128};
  std::printf("%-10s %12s %12s %12s\n", "estimator", "batch=1", "batch=64",
              "batch=128");

  const std::vector<std::string> names = {"mscn", "neurocard", "iam"};
  for (const std::string& name : names) {
    auto est = MakeTrainedEstimator(name, join_sample, train, 0);
    Table7Row row{name, {}};
    std::printf("%-10s", name.c_str());
    for (int batch : results.batch_sizes) {
      Stopwatch watch;
      size_t processed = 0;
      for (size_t begin = 0; begin + batch <= test.queries.size();
           begin += batch) {
        est->EstimateBatch(
            {test.queries.data() + begin, static_cast<size_t>(batch)});
        processed += batch;
      }
      const double ms = watch.ElapsedMillis() / static_cast<double>(processed);
      row.ms_per_query.push_back(ms);
      std::printf(" %12.3f", ms);
      std::fflush(stdout);
    }
    results.table7.push_back(std::move(row));
    std::printf("\n");
  }

  // Thread scaling of the parallel EstimateBatch (batch = 128). The same
  // trained model is reused across thread counts via set_num_threads, and the
  // estimates are checked bit-identical to the 1-thread run — the contract
  // the per-query RNG seeding guarantees.
  std::printf("\n### Batch inference thread scaling (batch=128, ms/query)\n");
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "estimator", "1 thr",
              "2 thr", "4 thr", "8 thr", "speedup@4");
  results.thread_counts = {1, 2, 4, 8};
  for (const std::string& name : names) {
    auto est = MakeTrainedEstimator(name, join_sample, train, 0);
    ScalingRow row{name, {}, true};
    std::printf("%-10s", name.c_str());
    std::vector<double> serial_estimates;
    for (int threads : results.thread_counts) {
      est->set_num_threads(threads);
      Stopwatch watch;
      std::vector<double> estimates = est->EstimateBatch(test.queries);
      row.ms_per_query.push_back(watch.ElapsedMillis() /
                                 static_cast<double>(test.queries.size()));
      std::printf(" %10.3f", row.ms_per_query.back());
      std::fflush(stdout);
      if (threads == 1) {
        serial_estimates = std::move(estimates);
      } else if (estimates != serial_estimates) {
        row.bit_identical = false;
        std::printf(" [MISMATCH vs 1-thread!]");
      }
    }
    std::printf(" %9.2fx\n", row.ms_per_query[0] / row.ms_per_query[2]);
    results.scaling.push_back(std::move(row));
  }

  // Pooled cross-query sampler ablation (IAM, batch = 128, DESIGN.md §14):
  // the pooled megabatch with prefix sharing at a fixed budget (bit-identical
  // to the per-query reference sampler, checked by tests/
  // pooled_sampler_test.cc), then adaptive CI early stopping on top.
  // Adaptive reorders the RNG draw stream so it is approximate — the q-error
  // column shows it stays within the paper table's accuracy band.
  std::printf("\n### Pooled sampler ablation (IAM, batch=128, ms/query)\n");
  std::printf("%-16s %10s  %s\n", "mode", "ms/query", "q-error");
  core::ArDensityEstimator iam(join_sample, BenchIamOptions());
  iam.Train();
  iam.set_num_threads(BenchThreads());
  struct Mode {
    const char* name;
    int adaptive;
  };
  constexpr Mode kModes[] = {{"pooled+prefix", 0}, {"adaptive", 32}};
  constexpr int kReps = 3;
  for (const Mode& mode : kModes) {
    iam.set_adaptive_min_samples(mode.adaptive);
    std::vector<double> estimates = iam.EstimateBatch(test.queries);  // warm
    Stopwatch watch;
    for (int rep = 0; rep < kReps; ++rep) iam.EstimateBatch(test.queries);
    PooledRow row;
    row.mode = mode.name;
    row.ms_per_query =
        watch.ElapsedMillis() /
        static_cast<double>(kReps * test.queries.size());
    std::vector<double> errors;
    errors.reserve(estimates.size());
    for (size_t i = 0; i < estimates.size(); ++i) {
      errors.push_back(query::QError(test.true_selectivities[i], estimates[i],
                                     join_sample.num_rows()));
    }
    row.qerror = MakeErrorReport(errors);
    std::printf("%-16s %10.3f  %s\n", mode.name, row.ms_per_query,
                FormatErrorReport(row.qerror).c_str());
    results.pooled.push_back(std::move(row));
  }

  // Always-on query-log overhead (DESIGN.md §17, acceptance bound <= 2%):
  // what serving adds on top of the pooled batch-128 estimate — the
  // per-query diagnostics copy-out plus one seqlock ring append per query.
  // The sampler-side accumulation itself runs in both arms (EstimateBatch
  // delegates to the diagnosed path), so this isolates the serving delta.
  // Min-of-reps per arm keeps scheduler noise out of the committed number.
  std::printf("\n### Query-log overhead (pooled adaptive, batch=128)\n");
  iam.set_adaptive_min_samples(32);
  constexpr int kOverheadReps = 5;
  const double n_queries = static_cast<double>(test.queries.size());
  iam.EstimateBatch(test.queries);  // warm
  double base_ms = 0.0;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    Stopwatch watch;
    iam.EstimateBatch(test.queries);
    const double ms = watch.ElapsedMillis() / n_queries;
    if (rep == 0 || ms < base_ms) base_ms = ms;
  }
  std::vector<estimator::QueryDiagnostics> diags(test.queries.size());
  obs::QueryLog ring;  // private ring, same capacity as the serving global
  double diag_ms = 0.0;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    Stopwatch watch;
    const std::vector<double> estimates =
        iam.EstimateBatchDiagnosed(test.queries, diags);
    for (size_t i = 0; i < estimates.size(); ++i) {
      const estimator::QueryDiagnostics& d = diags[i];
      obs::QueryRecord rec;
      rec.model_version = 1;
      rec.sampler_draws = d.sampler_draws;
      rec.batch_size = static_cast<int32_t>(test.queries.size());
      rec.sample_rows = d.sample_rows;
      rec.rounds = d.rounds;
      rec.early_stop_round = d.early_stop_round;
      rec.prefix_hits = d.prefix_hits;
      rec.fallbacks = d.fallbacks;
      rec.fallback_column = d.fallback_column;
      rec.dead = d.dead ? 1 : 0;
      rec.ci_half_width = d.ci_half_width;
      rec.selectivity = estimates[i];
      rec.exec_s = 0.0;
      rec.total_s = 0.0;
      ring.Append(rec);
    }
    const double ms = watch.ElapsedMillis() / n_queries;
    if (rep == 0 || ms < diag_ms) diag_ms = ms;
  }
  results.querylog.base_ms_per_query = base_ms;
  results.querylog.diagnosed_ms_per_query = diag_ms;
  results.querylog.overhead_pct = (diag_ms - base_ms) / base_ms * 100.0;
  std::printf("%-16s %10.3f ms/query\n", "base", base_ms);
  std::printf("%-16s %10.3f ms/query\n", "diagnosed+ring", diag_ms);
  std::printf("overhead: %.3f%% (bound: 2%%)\n",
              results.querylog.overhead_pct);
  return results;
}

void AppendMsArray(std::string& out, const std::vector<double>& ms) {
  out += "[";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", ms[i]);
    if (i > 0) out += ",";
    out += buf;
  }
  out += "]";
}

void AppendIntArray(std::string& out, const std::vector<int>& xs) {
  out += "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(xs[i]);
  }
  out += "]";
}

bool WriteJson(const Results& results, const std::string& path) {
  std::string out = "{\n  \"table7\": {\"batch_sizes\": ";
  AppendIntArray(out, results.batch_sizes);
  out += ", \"rows\": [";
  for (size_t i = 0; i < results.table7.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\n    {\"estimator\": \"" + results.table7[i].estimator +
           "\", \"ms_per_query\": ";
    AppendMsArray(out, results.table7[i].ms_per_query);
    out += "}";
  }
  out += "\n  ]},\n  \"thread_scaling\": {\"batch_size\": 128, \"threads\": ";
  AppendIntArray(out, results.thread_counts);
  out += ", \"rows\": [";
  for (size_t i = 0; i < results.scaling.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\n    {\"estimator\": \"" + results.scaling[i].estimator +
           "\", \"ms_per_query\": ";
    AppendMsArray(out, results.scaling[i].ms_per_query);
    out += ", \"bit_identical\": ";
    out += results.scaling[i].bit_identical ? "true" : "false";
    out += "}";
  }
  out += "\n  ]},\n  \"pooled_sampler\": {\"estimator\": \"iam\", "
         "\"batch_size\": 128, \"rows\": [";
  for (size_t i = 0; i < results.pooled.size(); ++i) {
    const PooledRow& row = results.pooled[i];
    if (i > 0) out += ", ";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\n    {\"mode\": \"%s\", \"ms_per_query\": %.6g, "
                  "\"qerror\": {\"mean\": %.6g, \"median\": %.6g, "
                  "\"p95\": %.6g, \"p99\": %.6g, \"max\": %.6g}}",
                  row.mode.c_str(), row.ms_per_query, row.qerror.mean,
                  row.qerror.median, row.qerror.p95, row.qerror.p99,
                  row.qerror.max);
    out += buf;
  }
  out += "\n  ]},\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"querylog_overhead\": {\"batch_size\": 128, "
                  "\"mode\": \"adaptive\", \"base_ms_per_query\": %.6g, "
                  "\"diagnosed_ms_per_query\": %.6g, "
                  "\"overhead_pct\": %.6g}\n}\n",
                  results.querylog.base_ms_per_query,
                  results.querylog.diagnosed_ms_per_query,
                  results.querylog.overhead_pct);
    out += buf;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << out;
  return file.good();
}

}  // namespace
}  // namespace iam::bench

int main(int argc, char** argv) {
  const std::string json_path = iam::bench::JsonOutPath(&argc, argv);
  const iam::bench::Results results = iam::bench::Run();
  if (!json_path.empty()) {
    if (!iam::bench::WriteJson(results, json_path) ||
        !iam::bench::MergeMetricsIntoJson(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nresults written to %s\n", json_path.c_str());
  }
  return 0;
}
