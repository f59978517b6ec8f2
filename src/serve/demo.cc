#include "serve/demo.h"

#include <utility>

#include "core/presets.h"
#include "data/synthetic.h"
#include "query/parser.h"
#include "query/workload.h"
#include "util/random.h"

namespace iam::serve {

std::unique_ptr<core::ArDensityEstimator> TrainDemoEstimator(size_t rows,
                                                             uint64_t seed) {
  const data::Table twi = data::MakeSynTwi(rows, seed);
  core::ArEstimatorOptions opts = core::IamDefaults(6);
  opts.made.hidden_sizes = {32, 32};
  opts.epochs = 1;
  opts.large_domain_threshold = 200;
  opts.progressive_samples = 64;
  auto model = std::make_unique<core::ArDensityEstimator>(twi, opts);
  model->Train();
  return model;
}

data::Table DemoTable(size_t rows, uint64_t seed) {
  return data::MakeSynTwi(rows, seed);
}

data::Table ShiftedDemoTable(size_t rows, uint64_t seed, double shift) {
  data::Table table = data::MakeSynTwi(rows, seed);
  for (int c = 0; c < table.num_columns(); ++c) {
    for (double& v : table.mutable_column(c).values) v += shift;
  }
  return table;
}

std::vector<std::string> DemoPredicates(int count, uint64_t seed) {
  // A small table with the demo schema is enough for the generator; the
  // bounds it draws stay inside the demo model's value range.
  const data::Table twi = data::MakeSynTwi(512, 17);
  query::WorkloadOptions options;
  options.num_queries = count;
  Rng rng(seed);
  const std::vector<query::Query> queries =
      query::GenerateWorkload(twi, options, rng);
  std::vector<std::string> rendered;
  rendered.reserve(queries.size());
  for (const query::Query& q : queries) {
    rendered.push_back(query::ToString(twi, q));
  }
  return rendered;
}

}  // namespace iam::serve
