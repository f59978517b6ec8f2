// Microbenchmarks (google-benchmark) of the numeric kernels everything else
// is built on: dense linear forward/backward, ResMADE conditionals, GMM
// assignment and range masses. Useful when tuning the substrate.

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "ar/resmade.h"
#include "bench/bench_common.h"
#include "bucketize/mixture_reducer.h"
#include "gmm/gmm1d.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/random.h"

namespace iam {
namespace {

// Reports the dense-GEMM arithmetic rate alongside items/s: flops is the
// per-iteration floating-point work (2*B*I*O for a forward pass).
void SetGflops(benchmark::State& state, int64_t flops) {
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(flops) * state.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_LinearForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int in = 256, out = 256;
  Rng rng(1);
  nn::Matrix x(batch, in), w(out, in), y, wt_scratch;
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = (float)rng.Gaussian();
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] = (float)rng.Gaussian();
  std::vector<float> bias(out, 0.1f);
  for (auto _ : state) {
    nn::LinearForward(x, w, bias, y, wt_scratch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * batch * in * out);
  SetGflops(state, 2LL * batch * in * out);
}
BENCHMARK(BM_LinearForward)->Arg(64)->Arg(256);

// The retained naive kernel, benchmarked for the fast/reference speedup
// ratio (the fuzz tests prove they compute identical results).
void BM_LinearForwardRef(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int in = 256, out = 256;
  Rng rng(1);
  nn::Matrix x(batch, in), w(out, in), y;
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = (float)rng.Gaussian();
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] = (float)rng.Gaussian();
  std::vector<float> bias(out, 0.1f);
  for (auto _ : state) {
    nn::LinearForwardRef(x, w, bias, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * batch * in * out);
  SetGflops(state, 2LL * batch * in * out);
}
BENCHMARK(BM_LinearForwardRef)->Arg(256);

void BM_LinearReluForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int in = 256, out = 256;
  Rng rng(1);
  nn::Matrix x(batch, in), w(out, in), y, wt_scratch;
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = (float)rng.Gaussian();
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] = (float)rng.Gaussian();
  std::vector<float> bias(out, 0.1f);
  for (auto _ : state) {
    nn::LinearReluForward(x, w, bias, y, wt_scratch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * batch * in * out);
  SetGflops(state, 2LL * batch * in * out);
}
BENCHMARK(BM_LinearReluForward)->Arg(64)->Arg(256);

// Pre-transposed weights — the eval-path steady state, where the per-call
// transpose has been hoisted into the workspace cache. Arguments: batch,
// outputs (in = 256). out = 30 is the paper's 30-component logit window,
// which is not a whole number of vector strips on any arm.
void BM_LinearForwardT(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int in = 256, out = static_cast<int>(state.range(1));
  Rng rng(1);
  nn::Matrix x(batch, in), w(out, in), wt, y;
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = (float)rng.Gaussian();
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] = (float)rng.Gaussian();
  nn::TransposeInto(w, wt);
  std::vector<float> bias(out, 0.1f);
  std::vector<int> all(in);
  for (int i = 0; i < in; ++i) all[i] = i;
  for (auto _ : state) {
    nn::LinearForwardT(x, all, wt.data(), out, out, bias, y,
                       /*fuse_relu=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * batch * in * out);
  SetGflops(state, 2LL * batch * in * out);
}
BENCHMARK(BM_LinearForwardT)
    ->Args({64, 256})
    ->Args({256, 256})
    ->Args({256, 30});

// First-layer shape: a wide one-hot encoding (~1.5% density) feeding the
// first hidden layer. items/s counts batch rows; gflops counts only the
// useful (nonzero) flops, so it is not comparable to the dense kernels.
void BM_SparseLinearForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int in = 1024, out = 256, nnz_per_row = 16;
  Rng rng(1);
  nn::Matrix w(out, in), wt, y;
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] = (float)rng.Gaussian();
  nn::TransposeInto(w, wt);
  std::vector<float> bias(out, 0.1f);
  nn::SparseRows sx;
  sx.Reset(in);
  for (int r = 0; r < batch; ++r) {
    // Strides in [1, 60] from a start below 60 keep the 16 lane indices
    // strictly increasing and below `in` (60 + 15 * 60 < 1024).
    int lane = static_cast<int>(rng.UniformInt(60));
    for (int k = 0; k < nnz_per_row; ++k) {
      sx.Push(lane, 1.0f);
      lane += 1 + static_cast<int>(rng.UniformInt(60));
    }
    sx.EndRow();
  }
  for (auto _ : state) {
    nn::SparseLinearForward(sx, wt, out, bias, y, /*fuse_relu=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  SetGflops(state, 2LL * batch * nnz_per_row * out);
}
BENCHMARK(BM_SparseLinearForward)->Arg(64)->Arg(256);

void BM_LinearBackward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int in = 256, out = 256;
  Rng rng(2);
  nn::Matrix x(batch, in), w(out, in), dy(batch, out), dx, dw(out, in);
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = (float)rng.Gaussian();
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] = (float)rng.Gaussian();
  for (size_t i = 0; i < dy.size(); ++i) dy.data()[i] = (float)rng.Gaussian();
  std::vector<float> dbias(out, 0.0f);
  for (auto _ : state) {
    dw.Zero();
    nn::LinearBackward(x, w, dy, dx, dw, dbias);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 4LL * batch * in * out);
  SetGflops(state, 4LL * batch * in * out);
}
BENCHMARK(BM_LinearBackward)->Arg(64)->Arg(256);

// Args: batch rows, target column. A column's conditional evaluates only the
// hidden units of degree <= column, so per-row cost grows from column 0 (a
// softmax of the bias) to the last column (the whole network).
void BM_ResMadeConditional(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int col = static_cast<int>(state.range(1));
  ar::ResMadeConfig config;
  ar::ResMade made({30, 18, 30, 30, 51}, config, 3);
  std::vector<std::vector<int>> inputs(batch, {5, 7, 2, 0, 0});
  nn::Matrix probs;
  ar::ResMade::Context ctx;  // reused across iterations, as estimators do
  for (auto _ : state) {
    made.ConditionalDistribution(inputs, col, probs, ctx);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ResMadeConditional)->ArgsProduct({{64, 256}, {0, 1, 2, 3, 4}});

// The HIGGS shape of the paper configuration: 7 GMM-reduced columns of 30
// components, 256-128-128-256 hidden units. Rows hold sampled values for the
// columns before `col` and wildcards after, as in progressive sampling.
struct HiggsConditional {
  static constexpr int kColumns = 7;
  ar::ResMade made{std::vector<int>(kColumns, 30), ar::ResMadeConfig{}, 3};
  std::vector<int> rows;

  HiggsConditional(int batch, int col) {
    Rng rng(7);
    for (int r = 0; r < batch; ++r) {
      for (int c = 0; c < kColumns; ++c) {
        rows.push_back(c < col ? static_cast<int>(rng.UniformInt(30))
                               : made.wildcard_token(c));
      }
    }
  }
  ar::EncodedView view() const {
    return {rows.data(), static_cast<int>(rows.size()) / kColumns, kColumns};
  }
};

// Args: batch rows, target column. The full evaluation of column `col`:
// every hidden unit of degree <= col.
void BM_ResMadeConditionalHiggs(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int col = static_cast<int>(state.range(1));
  const HiggsConditional model(batch, col);
  nn::Matrix probs;
  ar::ResMade::Context ctx;
  for (auto _ : state) {
    model.made.ConditionalDistribution(model.view(), col, 0, {}, probs, ctx);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ResMadeConditionalHiggs)
    ->ArgsProduct({{256}, {1, 2, 3, 4, 5, 6}});

// The same conditional carried from column col - 1, as the sampler runs it:
// each row copies its units of degree <= col - 1 from its parent row and
// computes only the degree-col slab. The parent call is untimed.
void BM_ResMadeConditionalCarried(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int col = static_cast<int>(state.range(1));
  const HiggsConditional model(batch, col);
  std::vector<int> parent_of(batch);
  for (int r = 0; r < batch; ++r) parent_of[r] = r;
  nn::Matrix probs;
  ar::ResMade::Context ctx;
  for (auto _ : state) {
    state.PauseTiming();
    model.made.ConditionalDistribution(model.view(), col - 1, 0, {}, probs,
                                       ctx);
    state.ResumeTiming();
    model.made.ConditionalDistribution(model.view(), col, col - 1, parent_of,
                                       probs, ctx);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ResMadeConditionalCarried)
    ->ArgsProduct({{256}, {1, 2, 3, 4, 5, 6}});

void BM_GmmAssign(benchmark::State& state) {
  gmm::Gmm1D gmm(30);
  Rng rng(4);
  std::vector<double> data(10000);
  for (double& x : data) x = rng.Gaussian(0.0, 5.0);
  gmm.InitFromData(data, rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmm.Assign(data[i++ % data.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GmmAssign);

void BM_RangeMassExact(benchmark::State& state) {
  gmm::Gmm1D gmm(30);
  Rng rng(5);
  std::vector<double> data(10000);
  for (double& x : data) x = rng.Gaussian(0.0, 5.0);
  gmm.InitFromData(data, rng);
  const bucketize::GmmReducer reducer(std::move(gmm));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reducer.RangeMass(-2.0, 3.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeMassExact);

void BM_GmmSgdStep(benchmark::State& state) {
  gmm::Gmm1D gmm(30);
  Rng rng(6);
  std::vector<double> data(512);
  for (double& x : data) x = rng.Gaussian(0.0, 5.0);
  gmm.InitFromData(data, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmm.SgdStep(data));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_GmmSgdStep);

}  // namespace
}  // namespace iam

// BENCHMARK_MAIN plus a `--json <path>` flag: mirrors the results into a
// machine-readable file (google-benchmark's JSON format) for tracking the
// kernel datapoints over time, e.g. BENCH_kernels.json at the repo root.
int main(int argc, char** argv) {
  const std::string json_path = iam::bench::JsonOutPath(&argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, format_flag = "--benchmark_out_format=json";
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The kernels above run through the instrumented paths (pool, AR model,
  // GMM); fold their metric totals into the same results file.
  if (!json_path.empty() && !iam::bench::MergeMetricsIntoJson(json_path)) {
    std::fprintf(stderr, "failed to merge metrics into %s\n",
                 json_path.c_str());
    return 1;
  }
  return 0;
}
