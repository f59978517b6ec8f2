#ifndef IAM_PERFBENCH_WORKLOADS_H_
#define IAM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/controller.h"
#include "common.h"
#include "core/ar_density_estimator.h"
#include "data/table.h"
#include "query/query.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace iam::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Everything one workload draws from the seed, plus ground truth by exact
// scan. The program under test only ever sees these generated inputs.
struct Inputs {
  data::Table table;
  std::vector<query::Query> queries;
  std::vector<std::string> texts;  // wire form of each query
  std::vector<double> truth;       // exact selectivity on `table`
  // serve_wisdm: the drifted data its adaptation phase appends and gives
  // feedback on, and each query's exact selectivity on it.
  data::Table shifted;
  std::vector<double> shifted_truth;
};

// One set-up: inputs, a trained model and, for serve_wisdm, the registry
// and a started server (restarted with an adaptation controller for the
// last phase). Members are declared so destruction runs server ->
// controller -> registry.
struct Setup {
  Inputs in;
  std::unique_ptr<core::ArDensityEstimator> model;  // batch_higgs only
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<adapt::AdaptController> controller;
  std::unique_ptr<serve::EstimatorServer> server;

  // The model being measured (registry replica 0 when served).
  core::ArDensityEstimator& Model() const;
};

// Running tally of the frames and estimates a run attempted and the ones
// that failed an output check.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // failed checks, printed before JSON

  void Fail(const std::string& what, uint64_t count = 1) {
    failed += count;
    if (problems.size() < 20) problems.push_back(what);
  }
};

// Builds the inputs, trains the paper-configured model (see README.md) and,
// for serve_wisdm, starts the server. Null when it cannot start.
std::unique_ptr<Setup> MakeSetup(const RunOptions& run);

// Each workload runs its measured phases on `setup`, fills its metrics and
// counts attempts and failures.
void RunServeWisdm(const RunOptions& run, Setup& setup, Report& report,
                   Tally& tally);
void RunBatchHiggs(const RunOptions& run, Setup& setup, Report& report,
                   Tally& tally);
// serve_wisdm's last phase: restarts the server with an AdaptController,
// streams drifted rows and feedback beside low-rate estimates until one
// retrain and swap, and checks the result.
void RunAdaptPhase(const RunOptions& run, Setup& setup, Report& report,
                   Tally& tally);

// Traced run only: micro-timings of each layer's public functions on the
// workload's own model and inputs, plus trace self-times and overhead.
void MeasureLayers(Setup& setup, Report& report, Tally& tally);

}  // namespace iam::perfbench

#endif  // IAM_PERFBENCH_WORKLOADS_H_
