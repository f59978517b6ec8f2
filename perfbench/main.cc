// iam_perf: the repository's benchmark binary. One process sets up one
// workload from a seed, measures it for a fixed time, checks every answer
// and prints its metrics; see README.md for the workloads and metrics.
//
//   iam_perf --workload <serve_wisdm|batch_higgs> --seed <n> --seconds <s>
//            --trace <0|1>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is non-zero when an output check failed.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "workloads.h"

namespace iam::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. Every workload reports every end-to-end metric;
// README.md gives what each one measures on each workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"capacity_qps", "1/s"},
    {"qerror_gmean", "ratio"}, {"qerror_p50", "ratio"},
    {"model_bytes", "bytes"},  {"peak_rss_mb", "MiB"},
};

// Layers a workload does not exercise report 0.
constexpr MetricSpec kPerLayer[] = {
    {"serve.batcher.mean_batch.low", "queries"},
    {"serve.batcher.mean_batch.mid", "queries"},
    {"serve.batcher.mean_batch.over", "queries"},
    {"serve.batcher.queue_wait_p50_ms.low", "ms"},
    {"serve.batcher.queue_wait_p50_ms.mid", "ms"},
    {"serve.batcher.exec_ms_per_query.low", "ms"},
    {"serve.batcher.exec_ms_per_query.mid", "ms"},
    {"serve.low_p50_ms", "ms"},
    {"serve.low_p90_ms", "ms"},
    {"serve.mid_p50_ms", "ms"},
    {"serve.mid_p90_ms", "ms"},
    {"serve.batcher.inproc_p50_ms.low", "ms"},
    {"serve.loop.overhead_ms.low", "ms"},
    {"serve.protocol.encode_ns", "ns"},
    {"serve.protocol.decode_ns", "ns"},
    {"serve.admission.reject_frac.over", "ratio"},
    {"serve.registry.swap_ms", "ms"},
    {"loadgen.late_ms.max", "ms"},
    {"query.parse_us", "us"},
    {"core.solo_p50_ms", "ms"},
    {"core.solo_p90_ms", "ms"},
    {"core.estimate_ms_per_query.b1", "ms"},
    {"core.estimate_ms_per_query.b32", "ms"},
    {"core.estimate_ms_per_query.b128", "ms"},
    {"core.samples_per_query", "rows"},
    {"core.gemm_rows_per_query", "rows"},
    {"core.prefix_hit_ratio", "ratio"},
    {"core.dead_query_frac", "ratio"},
    {"core.zero_mass_fallbacks", "count"},
    {"core.batch_variant_frac", "ratio"},
    {"core.train_epoch_s", "s"},
    {"ar.conditional_us_per_row", "us"},
    {"ar.train_step_ms", "ms"},
    {"nn.linear_forward_gflops.256x128", "GFLOP/s"},
    {"nn.linear_forward_gflops.128x128", "GFLOP/s"},
    {"nn.linear_forward_gflops.128x256", "GFLOP/s"},
    {"nn.linear_forward_gbps.256x128", "GB/s"},
    {"nn.linear_forward_gbps.128x128", "GB/s"},
    {"nn.linear_forward_gbps.128x256", "GB/s"},
    {"nn.linear_backward_gflops.256x128", "GFLOP/s"},
    {"nn.linear_backward_gflops.128x128", "GFLOP/s"},
    {"nn.linear_backward_gflops.128x256", "GFLOP/s"},
    {"bucketize.range_mass_us", "us"},
    {"bucketize.assign_ns", "ns"},
    {"obs.querylog_append_ns", "ns"},
    {"obs.scrape_ms", "ms"},
    {"adapt.append_rows_per_s", "1/s"},
    {"adapt.retrains", "count"},
    {"adapt.feedback_ack_p50_ms", "ms"},
    {"adapt.retrain_s", "s"},
    {"adapt.retrain_window_p90_ms", "ms"},
    {"adapt.write_phase_p50_ms", "ms"},
    {"adapt.write_phase_p90_ms", "ms"},
    {"trace.core.estimate_batch.self_ms", "ms"},
    {"trace.estimator.batch.self_ms", "ms"},
    {"trace.pool.parallel_for.self_ms", "ms"},
    {"trace.core.train_epoch.self_ms", "ms"},
    {"trace.ar.train_step.self_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

bool ParseArgs(int argc, char** argv, RunOptions& run) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, nullptr, 10);
      have[1] = true;
    } else if (flag == "--seconds") {
      run.seconds = std::atof(value);
      have[2] = run.seconds > 0.0;
    } else if (flag == "--trace") {
      run.trace = std::strcmp(value, "1") == 0;
      have[3] = run.trace || std::strcmp(value, "0") == 0;
    } else {
      return false;
    }
  }
  const bool known =
      run.workload == "serve_wisdm" || run.workload == "batch_higgs";
  return argc == 9 && known && have[0] && have[1] && have[2] && have[3];
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void PrintContext(const RunOptions& run) {
  double load[3] = {0.0, 0.0, 0.0};
  ::getloadavg(load, 3);
  std::printf(
      "context: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
      "loadavg=%.2f/%.2f/%.2f compiler=\"%s\" build_type=%s iam_native=%d\n",
      run.workload.c_str(), static_cast<unsigned long long>(run.seed),
      run.seconds, run.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN), load[0],
      load[1], load[2], __VERSION__, IAM_PERF_BUILD_TYPE, IAM_PERF_NATIVE);
}

// core.* ratios from the sampler counters over the measured workload.
void SamplerMetrics(const CounterDelta& d, Report& report) {
  const double queries = d.Counter("iam_sampler_queries_total");
  const double gemm = d.Counter("iam_sampler_gemm_rows_total");
  const double hits = d.Counter("iam_sampler_prefix_hits_total");
  report.Set("core.samples_per_query",
             Ratio(d.Counter("iam_sampler_samples_total"), queries));
  report.Set("core.gemm_rows_per_query", Ratio(gemm, queries));
  report.Set("core.prefix_hit_ratio", Ratio(hits, hits + gemm));
  report.Set("core.dead_query_frac",
             Ratio(d.Counter("iam_sampler_dead_queries_total"), queries));
  report.Set("core.zero_mass_fallbacks",
             d.Counter("iam_sampler_zero_mass_fallbacks_total"));
}

int Main(int argc, char** argv) {
  RunOptions run;
  if (!ParseArgs(argc, argv, run)) {
    std::fprintf(stderr,
                 "usage: iam_perf --workload <serve_wisdm|batch_higgs> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  PrintContext(run);
  std::fflush(stdout);
  obs::TraceRecorder::Global().SetEnabled(run.trace);

  const double t0 = NowS();
  std::unique_ptr<Setup> setup = MakeSetup(run);
  if (!setup) return 1;
  const double setup_s = NowS() - t0;

  Report report;
  Tally tally;
  report.Set("setup_s", setup_s);
  {
    const CounterDelta sampler;
    if (run.workload == "serve_wisdm") {
      RunServeWisdm(run, *setup, report, tally);
    } else {
      RunBatchHiggs(run, *setup, report, tally);
    }
    CounterDelta after = sampler;
    after.Refresh();
    SamplerMetrics(after, report);
  }
  report.Set("model_bytes", static_cast<double>(setup->Model().SizeBytes()));
  if (run.trace) MeasureLayers(*setup, report, tally);
  if (run.workload == "serve_wisdm") RunAdaptPhase(run, *setup, report, tally);
  report.Set("peak_rss_mb", PeakRssMb());
  setup.reset();  // stops the server and joins every thread it started

  std::printf("%-40s %14s %8s %8s %14s %14s %14s\n", "metric", "value", "unit",
              "n", "q1", "median", "q3");
  std::string json;
  for (const auto& specs : {std::span<const MetricSpec>(kEndToEnd),
                            std::span<const MetricSpec>(kPerLayer)}) {
    const bool printed = (specs.data() == kPerLayer) == run.trace;
    for (const MetricSpec& spec : specs) {
      const auto it = report.metrics().find(spec.name);
      Metric m;
      if (it != report.metrics().end()) {
        m = it->second;
      } else if (printed && specs.data() == kEndToEnd) {
        tally.Fail(std::string("metric not measured: ") + spec.name);
      }
      if (!printed) continue;
      if (!std::isfinite(m.value)) {
        tally.Fail(std::string("metric not finite: ") + spec.name);
        m.value = 0.0;
      }
      std::printf("%-40s %14.6g %8s %8zu %14.6g %14.6g %14.6g\n", spec.name,
                  m.value, spec.unit, m.n, m.q1, m.median, m.q3);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", spec.name, m.value, spec.unit);
      json += buf;
    }
  }
  for (const std::string& p : tally.problems) {
    std::printf("check failed: %s\n", p.c_str());
  }
  const bool correct = tally.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace iam::perfbench

int main(int argc, char** argv) { return iam::perfbench::Main(argc, argv); }
