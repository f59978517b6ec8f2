#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "ar/resmade.h"
#include "nn/adam.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "util/random.h"

namespace iam::ar {

// The dense reference oracle for the eval path: every column's logits over
// the full masked network, layer by layer with LinearForwardRef over the
// dense training encoding — no degree plan, no transposed cache, no sparse
// input, no truncation.
struct ResMadeTestPeer {
  static nn::Matrix ReferenceLogits(const ResMade& made,
                                    const std::vector<std::vector<int>>& rows) {
    nn::Matrix x;
    made.EncodeInput(rows, x);
    std::vector<nn::Matrix> act(made.hidden_.size());
    const nn::Matrix* current = &x;
    for (size_t i = 0; i < made.hidden_.size(); ++i) {
      nn::Matrix pre;
      nn::LinearForwardRef(*current, made.hidden_[i].weight().value,
                           Bias(made.hidden_[i]), pre);
      nn::ReluForward(pre, act[i]);
      if (made.residual_flags_[i]) {
        for (size_t k = 0; k < act[i].size(); ++k) {
          act[i].data()[k] += current->data()[k];
        }
      }
      current = &act[i];
    }
    nn::Matrix logits;
    nn::LinearForwardRef(*current, made.output_.weight().value,
                         Bias(made.output_), logits);
    return logits;
  }

  // Column `col`'s block of the output bias: its logits when no hidden unit
  // can feed it.
  static std::vector<float> OutputBias(const ResMade& made, int col) {
    const std::span<const float> bias = Bias(made.output_);
    const int off = made.encodings_[col].logit_offset;
    return {bias.begin() + off, bias.begin() + off + made.domain_size(col)};
  }

  static int LogitOffset(const ResMade& made, int col) {
    return made.encodings_[col].logit_offset;
  }

 private:
  static std::span<const float> Bias(const nn::MaskedLinear& layer) {
    return {layer.bias().value.data(),
            static_cast<size_t>(layer.out_features())};
  }
};

namespace {

ResMadeConfig TinyConfig() {
  ResMadeConfig config;
  config.hidden_sizes = {32, 32};
  config.wildcard_prob = 0.2;
  return config;
}

TEST(ResMadeTest, WildcardTokenIsDomainSize) {
  ResMade made({3, 4}, TinyConfig(), 1);
  EXPECT_EQ(made.wildcard_token(0), 3);
  EXPECT_EQ(made.wildcard_token(1), 4);
}

// The autoregressive property: P(A_i | ...) must not depend on the values of
// columns >= i.
TEST(ResMadeTest, AutoregressiveMasking) {
  ResMade made({3, 4, 5}, TinyConfig(), 2);
  nn::Matrix p1, p2;
  // Column 1's conditional given column 0 = 2; columns 1, 2 vary wildly.
  made.ConditionalDistribution({{2, 0, 0}}, 1, p1);
  made.ConditionalDistribution({{2, 3, 4}}, 1, p2);
  ASSERT_EQ(p1.cols(), 4);
  for (int j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(p1.at(0, j), p2.at(0, j)) << "col 1 leaked later columns";
  }
  // Column 0's marginal must ignore everything.
  made.ConditionalDistribution({{0, 0, 0}}, 0, p1);
  made.ConditionalDistribution({{2, 3, 4}}, 0, p2);
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(p1.at(0, j), p2.at(0, j));
}

TEST(ResMadeTest, ConditionalsAreDistributions) {
  ResMade made({3, 4, 5}, TinyConfig(), 3);
  nn::Matrix p;
  made.ConditionalDistribution({{1, 2, 0}, {0, 0, 0}}, 2, p);
  ASSERT_EQ(p.rows(), 2);
  ASSERT_EQ(p.cols(), 5);
  for (int r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (int j = 0; j < 5; ++j) {
      EXPECT_GE(p.at(r, j), 0.0f);
      sum += p.at(r, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(ResMadeTest, FullJointSumsToOne) {
  ResMade made({2, 3}, TinyConfig(), 4);
  double total = 0.0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 3; ++b) {
      total += std::exp(made.LogProb({a, b}));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-5);
}

// Train on a strongly correlated two-column distribution and check the model
// recovers the dependence (this is the cross-entropy training loop test).
TEST(ResMadeTest, LearnsCorrelatedDistribution) {
  Rng rng(11);
  // P(a) uniform over {0,1,2}; b = a with prob 0.9, else uniform other.
  std::vector<std::vector<int>> data;
  for (int i = 0; i < 4000; ++i) {
    const int a = static_cast<int>(rng.UniformInt(3));
    int b = a;
    if (rng.Uniform() > 0.9) b = static_cast<int>(rng.UniformInt(3));
    data.push_back({a, b});
  }

  ResMadeConfig config = TinyConfig();
  config.wildcard_prob = 0.0;  // pure density estimation for this test
  ResMade made({3, 3}, config, 5);
  nn::Adam adam;
  made.RegisterParameters(adam);

  Rng train_rng(12);
  double loss = 0.0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    for (size_t begin = 0; begin < data.size(); begin += 256) {
      const size_t end = std::min(data.size(), begin + 256);
      std::vector<std::vector<int>> batch(data.begin() + begin,
                                          data.begin() + end);
      loss = made.TrainStep(batch, adam, train_rng);
    }
  }
  // Entropy of the true distribution ~ log 3 + H(0.9-ish noise) ≈ 1.6 nats.
  EXPECT_LT(loss, 1.9);

  nn::Matrix p;
  made.ConditionalDistribution({{2, 0}}, 1, p);
  // Given a=2, b=2 should dominate.
  EXPECT_GT(p.at(0, 2), 0.7f);
  EXPECT_LT(p.at(0, 0), 0.2f);
}

TEST(ResMadeTest, WildcardInputMarginalizes) {
  Rng rng(21);
  // a uniform {0,1}; b = a (deterministic). Train with wildcard masking, then
  // P(b | a=wildcard) should be near the marginal {0.5, 0.5}.
  std::vector<std::vector<int>> data;
  for (int i = 0; i < 3000; ++i) {
    const int a = static_cast<int>(rng.UniformInt(2));
    data.push_back({a, a});
  }
  ResMadeConfig config = TinyConfig();
  config.wildcard_prob = 0.3;
  ResMade made({2, 2}, config, 6);
  nn::Adam adam;
  made.RegisterParameters(adam);
  Rng train_rng(22);
  for (int epoch = 0; epoch < 25; ++epoch) {
    for (size_t begin = 0; begin < data.size(); begin += 256) {
      const size_t end = std::min(data.size(), begin + 256);
      std::vector<std::vector<int>> batch(data.begin() + begin,
                                          data.begin() + end);
      made.TrainStep(batch, adam, train_rng);
    }
  }
  nn::Matrix p;
  made.ConditionalDistribution({{made.wildcard_token(0), 0}}, 1, p);
  EXPECT_NEAR(p.at(0, 0), 0.5, 0.1);
  // And conditioning still works.
  made.ConditionalDistribution({{1, 0}}, 1, p);
  EXPECT_GT(p.at(0, 1), 0.85f);
}

TEST(ResMadeTest, EmbeddingPathForLargeDomains) {
  ResMadeConfig config = TinyConfig();
  config.one_hot_max_domain = 8;  // force the embedding path
  config.embedding_dim = 4;
  ResMade made({100, 5}, config, 7);
  nn::Matrix p;
  made.ConditionalDistribution({{57, 0}}, 1, p);
  ASSERT_EQ(p.cols(), 5);
  double sum = 0.0;
  for (int j = 0; j < 5; ++j) sum += p.at(0, j);
  EXPECT_NEAR(sum, 1.0, 1e-5);

  // Parameter count includes the embedding table (101 x 4).
  EXPECT_GT(made.ParameterCount(), 101u * 4u);
}

TEST(ResMadeTest, ResidualConfigStillAutoregressive) {
  ResMadeConfig config;
  config.hidden_sizes = {64, 32, 32, 64};  // residual between the 32s
  config.residual = true;
  ResMade made({4, 4, 4, 4}, config, 8);
  nn::Matrix p1, p2;
  made.ConditionalDistribution({{1, 2, 0, 0}}, 2, p1);
  made.ConditionalDistribution({{1, 2, 3, 3}}, 2, p2);
  for (int j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(p1.at(0, j), p2.at(0, j));
}

TEST(ResMadeTest, SerializeRoundTripPreservesDistribution) {
  Rng rng(41);
  ResMadeConfig config = TinyConfig();
  config.one_hot_max_domain = 8;  // exercise the embedding path too
  config.embedding_dim = 4;
  ResMade made({20, 3, 5}, config, 10);
  nn::Adam adam;
  made.RegisterParameters(adam);
  Rng train_rng(42);
  std::vector<std::vector<int>> batch;
  for (int i = 0; i < 256; ++i) {
    batch.push_back({static_cast<int>(rng.UniformInt(20)),
                     static_cast<int>(rng.UniformInt(3)),
                     static_cast<int>(rng.UniformInt(5))});
  }
  for (int step = 0; step < 20; ++step) made.TrainStep(batch, adam, train_rng);

  std::stringstream stream;
  made.Serialize(stream);
  auto loaded = ResMade::Deserialize(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_columns(), 3);
  EXPECT_EQ((*loaded)->ParameterCount(), made.ParameterCount());
  for (const std::vector<int>& tuple :
       {std::vector<int>{0, 0, 0}, {19, 2, 4}, {7, 1, 3}}) {
    EXPECT_DOUBLE_EQ((*loaded)->LogProb(tuple), made.LogProb(tuple));
  }
}

// A Context carries a per-workspace transposed-weight cache keyed by the
// model's weight version. Reusing a context across a TrainStep must pick up
// the new weights, not the stale transposed copies.
TEST(ResMadeTest, ReusedContextSeesRetrainedWeights) {
  Rng rng(51);
  ResMade made({5, 6}, TinyConfig(), 12);
  nn::Adam adam;
  made.RegisterParameters(adam);

  ResMade::Context reused;
  nn::Matrix before;
  made.ConditionalDistribution({{2, 0}}, 1, before, reused);  // warm cache

  std::vector<std::vector<int>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({static_cast<int>(rng.UniformInt(5)),
                     static_cast<int>(rng.UniformInt(6))});
  }
  Rng train_rng(52);
  for (int step = 0; step < 5; ++step) made.TrainStep(batch, adam, train_rng);

  nn::Matrix stale_or_fresh, fresh;
  made.ConditionalDistribution({{2, 0}}, 1, stale_or_fresh, reused);
  ResMade::Context clean;
  made.ConditionalDistribution({{2, 0}}, 1, fresh, clean);
  ASSERT_EQ(stale_or_fresh.cols(), 6);
  bool moved = false;
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(stale_or_fresh.at(0, j), fresh.at(0, j))
        << "reused context served stale transposed weights";
    moved = moved || stale_or_fresh.at(0, j) != before.at(0, j);
  }
  EXPECT_TRUE(moved) << "training did not change the conditional; the "
                        "invalidation check would be vacuous";
}

// Weight versions come from a process-global counter, so a context warmed on
// one model instance must also be detected as stale when reused on a
// different instance (here: a deserialized clone that then trains).
TEST(ResMadeTest, ReusedContextAcrossDeserializeIsInvalidated) {
  Rng rng(53);
  ResMade made({5, 6}, TinyConfig(), 13);

  ResMade::Context reused;
  nn::Matrix p;
  made.ConditionalDistribution({{3, 0}}, 1, p, reused);  // warm on `made`

  std::stringstream stream;
  made.Serialize(stream);
  auto loaded = ResMade::Deserialize(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Same weights, different instance: must still agree with a fresh context.
  nn::Matrix via_reused, via_clean;
  (*loaded)->ConditionalDistribution({{3, 0}}, 1, via_reused, reused);
  ResMade::Context clean;
  (*loaded)->ConditionalDistribution({{3, 0}}, 1, via_clean, clean);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(via_reused.at(0, j), via_clean.at(0, j));
  }

  // Now train the clone; the context warmed on its weights must refresh.
  nn::Adam adam;
  (*loaded)->RegisterParameters(adam);
  std::vector<std::vector<int>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({static_cast<int>(rng.UniformInt(5)),
                     static_cast<int>(rng.UniformInt(6))});
  }
  Rng train_rng(54);
  for (int step = 0; step < 5; ++step) {
    (*loaded)->TrainStep(batch, adam, train_rng);
  }
  (*loaded)->ConditionalDistribution({{3, 0}}, 1, via_reused, reused);
  (*loaded)->ConditionalDistribution({{3, 0}}, 1, via_clean, clean);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(via_reused.at(0, j), via_clean.at(0, j))
        << "context survived Deserialize with stale weights";
  }
}

TEST(ResMadeTest, DeserializeRejectsGarbage) {
  std::stringstream stream;
  stream << "junk";
  EXPECT_FALSE(ResMade::Deserialize(stream).ok());
}

TEST(ResMadeTest, TrainingReducesLoss) {
  Rng rng(31);
  std::vector<std::vector<int>> data;
  for (int i = 0; i < 2000; ++i) {
    const int a = rng.Uniform() < 0.8 ? 0 : 1;
    const int b = a == 0 ? static_cast<int>(rng.UniformInt(2))
                         : 2 + static_cast<int>(rng.UniformInt(2));
    data.push_back({a, b});
  }
  ResMade made({2, 4}, TinyConfig(), 9);
  nn::Adam adam;
  made.RegisterParameters(adam);
  Rng train_rng(32);
  const double first = made.TrainStep(data, adam, train_rng);
  double last = first;
  for (int step = 0; step < 60; ++step) {
    last = made.TrainStep(data, adam, train_rng);
  }
  EXPECT_LT(last, first);
}

// Property sweep: the autoregressive invariants must hold across
// architectures — varying depth, width, residual wiring, and the one-hot vs
// embedding input encoding.
//
// gtest folds a byte dump of each ArchCase into the test's name, so the case
// holds no pointer (a heap or string address differs from run to run) and no
// padding: its bytes, and with them the test names, are fixed by its values.
struct ArchCase {
  std::array<int, 8> hidden;  // hidden layer widths; unused slots are 0
  int residual;               // 0 or 1; an int so no padding follows it
  int one_hot_max;
};
static_assert(std::has_unique_object_representations_v<ArchCase>);

std::vector<int> HiddenSizes(const ArchCase& arch) {
  std::vector<int> sizes;
  for (int width : arch.hidden) {
    if (width > 0) sizes.push_back(width);
  }
  return sizes;
}

constexpr const char* kArchLabels[] = {"single_layer", "residual_pair",
                                       "paper_arch", "embedded_inputs",
                                       "mixed_width_no_residual"};

class ResMadeArchTest : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ResMadeArchTest, AutoregressiveAndNormalizedEverywhere) {
  const ArchCase& arch = GetParam();
  ResMadeConfig config;
  config.hidden_sizes = HiddenSizes(arch);
  config.residual = arch.residual != 0;
  config.one_hot_max_domain = arch.one_hot_max;
  config.embedding_dim = 8;
  ResMade made({6, 40, 4, 9}, config, 77);

  Rng rng(78);
  nn::Matrix p1, p2;
  for (int col = 0; col < 4; ++col) {
    // Two inputs agreeing on columns < col and differing after.
    std::vector<int> a = {1, 17, 2, 3};
    std::vector<int> b = a;
    for (int c = col; c < 4; ++c) {
      b[c] = static_cast<int>(rng.UniformInt(made.domain_size(c)));
    }
    made.ConditionalDistribution({a}, col, p1);
    made.ConditionalDistribution({b}, col, p2);
    double sum = 0.0;
    for (int j = 0; j < made.domain_size(col); ++j) {
      EXPECT_FLOAT_EQ(p1.at(0, j), p2.at(0, j))
          << "col " << col << " leaked a later column";
      EXPECT_GE(p1.at(0, j), 0.0f);
      sum += p1.at(0, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5) << "col " << col;
  }
}

TEST_P(ResMadeArchTest, OneTrainStepRuns) {
  const ArchCase& arch = GetParam();
  ResMadeConfig config;
  config.hidden_sizes = HiddenSizes(arch);
  config.residual = arch.residual != 0;
  config.one_hot_max_domain = arch.one_hot_max;
  config.embedding_dim = 8;
  ResMade made({6, 40, 4, 9}, config, 79);
  nn::Adam adam;
  made.RegisterParameters(adam);
  Rng rng(80);
  std::vector<std::vector<int>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({static_cast<int>(rng.UniformInt(6)),
                     static_cast<int>(rng.UniformInt(40)),
                     static_cast<int>(rng.UniformInt(4)),
                     static_cast<int>(rng.UniformInt(9))});
  }
  const double loss = made.TrainStep(batch, adam, rng);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ResMadeArchTest,
    ::testing::Values(
        ArchCase{{32}, 0, 96}, ArchCase{{64, 64}, 1, 96},
        ArchCase{{256, 128, 128, 256}, 1, 96}, ArchCase{{32, 32}, 1, 8},
        ArchCase{{48, 24, 48}, 0, 16}),
    [](const auto& info) { return kArchLabels[info.index]; });

// Bitwise oracle for the degree-truncated eval path: for every column,
// ConditionalDistribution must equal the softmax of the dense reference
// logits (ResMadeTestPeer) bit for bit — skipping masked units, masked
// inputs and the lanes of later columns only drops exact-zero terms
// (DESIGN.md §10). The layouts cover one-hot and embedded inputs, a
// NeuroCard-style factorized layout, residual wiring on and off, and hidden
// widths that are not multiples of 8 or of n-1, or are below n-1.
struct OracleCase {
  std::vector<int> domains;
  std::vector<int> hidden;
  bool residual;
  int one_hot_max;
  const char* label;
};

// Names the case by its label (the default printer dumps raw bytes,
// pointers included, into the test names).
void PrintTo(const OracleCase& layout, std::ostream* os) { *os << layout.label; }

class ResMadeOracleTest : public ::testing::TestWithParam<OracleCase> {};

// Expected float equality: bitwise, on every kernel arm (DESIGN.md §10).
void ExpectSameProb(float got, float want, const std::string& where) {
  EXPECT_EQ(got, want) << where;
}

void ExpectMatchesReference(const ResMade& made,
                            const std::vector<std::vector<int>>& rows,
                            const std::string& label) {
  const nn::Matrix logits = ResMadeTestPeer::ReferenceLogits(made, rows);
  const int n = made.num_columns();
  // One context across all columns and both entry points, as the sampler
  // reuses it; a flat copy of the rows feeds the EncodedView overload.
  ResMade::Context ctx;
  std::vector<double> softmax_scratch;
  std::vector<int> flat;
  for (const std::vector<int>& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const EncodedView view{flat.data(), static_cast<int>(rows.size()), n};
  for (int col = 0; col < n; ++col) {
    const int dom = made.domain_size(col);
    const int off = ResMadeTestPeer::LogitOffset(made, col);
    nn::Matrix slice(logits.rows(), dom), want, got, got_view;
    for (int r = 0; r < logits.rows(); ++r) {
      for (int j = 0; j < dom; ++j) slice.at(r, j) = logits.at(r, off + j);
    }
    nn::SoftmaxRows(slice, want, softmax_scratch);
    made.ConditionalDistribution(rows, col, got, ctx);
    made.ConditionalDistribution(view, col, /*parent_col=*/0, {}, got_view,
                                 ctx);
    ASSERT_EQ(got.rows(), want.rows()) << label;
    ASSERT_EQ(got.cols(), dom) << label;
    for (int r = 0; r < want.rows(); ++r) {
      for (int j = 0; j < dom; ++j) {
        const std::string where = label + " col " + std::to_string(col) +
                                  " row " + std::to_string(r) + " value " +
                                  std::to_string(j);
        ExpectSameProb(got.at(r, j), want.at(r, j), where);
        EXPECT_EQ(got_view.at(r, j), got.at(r, j)) << where;
      }
    }
  }

  // Column 0 reads no hidden unit: its conditional is softmax(bias).
  const std::vector<float> bias = ResMadeTestPeer::OutputBias(made, 0);
  nn::Matrix bias_row(1, made.domain_size(0)), want0, got0;
  for (int j = 0; j < made.domain_size(0); ++j) bias_row.at(0, j) = bias[j];
  nn::SoftmaxRows(bias_row, want0, softmax_scratch);
  made.ConditionalDistribution(rows, 0, got0, ctx);
  for (int r = 0; r < got0.rows(); ++r) {
    for (int j = 0; j < made.domain_size(0); ++j) {
      EXPECT_EQ(got0.at(r, j), want0.at(0, j)) << label << " column 0";
    }
  }
}

// Random rows, each value drawn from the domain plus the wildcard token.
std::vector<std::vector<int>> RandomRows(const ResMade& made, int count,
                                         Rng& rng) {
  std::vector<std::vector<int>> rows(count);
  for (std::vector<int>& row : rows) {
    for (int c = 0; c < made.num_columns(); ++c) {
      row.push_back(static_cast<int>(rng.UniformInt(made.domain_size(c) + 1)));
    }
  }
  return rows;
}

TEST_P(ResMadeOracleTest, ConditionalsMatchDenseReferenceBitwise) {
  const OracleCase& layout = GetParam();
  ResMadeConfig config;
  config.hidden_sizes = layout.hidden;
  config.residual = layout.residual;
  config.one_hot_max_domain = layout.one_hot_max;
  config.embedding_dim = 6;
  ResMade made(layout.domains, config, 91);
  Rng rng(92);
  // 13 rows: three full 4-row blocks plus a remainder row; 1 row alone.
  const std::vector<std::vector<int>> rows = RandomRows(made, 13, rng);
  const std::vector<std::vector<int>> single = RandomRows(made, 1, rng);
  ExpectMatchesReference(made, rows, std::string(layout.label) + " untrained");
  ExpectMatchesReference(made, single,
                         std::string(layout.label) + " untrained single");

  // Training moves every bias and unmasked weight off its initial value.
  nn::Adam adam;
  made.RegisterParameters(adam);
  for (int step = 0; step < 8; ++step) {
    std::vector<std::vector<int>> batch = RandomRows(made, 64, rng);
    for (std::vector<int>& row : batch) {
      for (int c = 0; c < made.num_columns(); ++c) {
        row[c] = std::min(row[c], made.domain_size(c) - 1);  // no wildcards
      }
    }
    made.TrainStep(batch, adam, rng);
  }
  ExpectMatchesReference(made, rows, std::string(layout.label) + " trained");
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ResMadeOracleTest,
    ::testing::Values(
        // n - 1 = 4; 37 and 19 are multiples of neither 8 nor 4.
        OracleCase{{6, 40, 4, 9, 3}, {37, 19, 19, 37}, true, 96,
                   "one_hot_residual"},
        OracleCase{{6, 40, 4, 9, 3}, {37, 19, 19, 37}, false, 96,
                   "one_hot_no_residual"},
        OracleCase{{6, 40, 4, 9, 3}, {21, 21}, true, 8, "embedded_inputs"},
        // Two columns factorized NeuroCard-style into a high sub-column
        // and an embedded 256-value low sub-column, around plain columns.
        OracleCase{{12, 256, 7, 4, 256, 5}, {45, 45, 30}, true, 96,
                   "factorized"},
        // n - 1 = 6 with 5-unit layers: degree 6 never occurs.
        OracleCase{{3, 5, 4, 6, 2, 7, 3}, {5, 5}, true, 96,
                   "width_below_n_minus_1"},
        OracleCase{{30, 18, 30, 30, 51}, {256, 128, 128, 256}, true, 96,
                   "paper_arch"}),
    [](const auto& info) { return info.param.label; });

// --- The carry: ConditionalDistribution with a parent column. -------------

// One step of a carried column chain: `rows` evaluated for `col`, each row
// carrying its hidden units of degree <= parent_col from row parent_of[r]
// of the previous step.
struct CarryStep {
  std::vector<int> flat;  // rows, row-major
  std::vector<int> parent_of;
  int rows = 0;
};

// The children of `parent` after `parent_col`: every parent row
// gets 0-3 children (so some parents are skipped, and rows move both up
// and down), copies of it with parent_col's value drawn, the columns
// after it wildcard or drawn (gaps as in the sampler, or values the next
// conditional must not depend on).
CarryStep Children(const ResMade& made, const CarryStep& parent,
                   int parent_col, Rng& rng) {
  const int n = made.num_columns();
  CarryStep step;
  for (int u = 0; u < parent.rows; ++u) {
    const int kids = static_cast<int>(rng.UniformInt(4));
    for (int k = 0; k < kids; ++k) {
      std::vector<int> row(parent.flat.begin() + u * n,
                           parent.flat.begin() + (u + 1) * n);
      row[parent_col] =
          static_cast<int>(rng.UniformInt(made.domain_size(parent_col)));
      for (int c = parent_col + 1; c < n; ++c) {
        row[c] = rng.Uniform() < 0.5 ? made.wildcard_token(c)
                                     : static_cast<int>(rng.UniformInt(
                                           made.domain_size(c) + 1));
      }
      step.flat.insert(step.flat.end(), row.begin(), row.end());
      step.parent_of.push_back(u);
      ++step.rows;
    }
  }
  return step;
}

// Runs the chain cols[0] < cols[1] < ... on one context, each step carried
// from the one before, and checks every step's conditionals bit for bit
// against the full evaluation (parent_col = 0) of the same rows on a fresh
// context.
void ExpectCarryMatchesFull(const ResMade& made, const std::vector<int>& cols,
                            int first_rows, Rng& rng,
                            const std::string& label) {
  const int n = made.num_columns();
  CarryStep step;
  step.rows = first_rows;
  for (int r = 0; r < first_rows; ++r) {
    for (int c = 0; c < n; ++c) {
      step.flat.push_back(c < cols[0] ? static_cast<int>(rng.UniformInt(
                                            made.domain_size(c)))
                                      : made.wildcard_token(c));
    }
  }
  ResMade::Context carried;
  for (size_t t = 0; t < cols.size(); ++t) {
    const int col = cols[t];
    const int parent_col = t == 0 ? 0 : cols[t - 1];
    if (t > 0) {
      step = Children(made, step, parent_col, rng);
      if (step.rows == 0) return;  // every parent childless: chain ends
    }
    const EncodedView view{step.flat.data(), step.rows, n};
    nn::Matrix got, want;
    made.ConditionalDistribution(view, col, parent_col, step.parent_of, got,
                                 carried);
    ResMade::Context fresh;
    made.ConditionalDistribution(view, col, /*parent_col=*/0, {}, want, fresh);
    const std::string where = label + " col " + std::to_string(col) +
                              " after " + std::to_string(parent_col) + ", " +
                              std::to_string(step.rows) + " rows";
    ASSERT_EQ(got.rows(), want.rows()) << where;
    ASSERT_EQ(got.cols(), want.cols()) << where;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
              0)
        << where;
  }
}

TEST(ResMadeCarryTest, CarriedConditionalsMatchFullEvaluationBitwise) {
  struct CarryCase {
    std::vector<int> domains;
    std::vector<int> hidden;
    bool residual;
    int one_hot_max;
    const char* label;
  };
  const std::vector<CarryCase> cases = {
      {{6, 40, 4, 9, 3, 7, 5}, {37, 19, 19, 37}, true, 96, "one_hot_residual"},
      {{6, 40, 4, 9, 3, 7, 5}, {37, 19, 19, 37}, false, 96,
       "one_hot_no_residual"},
      {{6, 40, 4, 9, 3, 7, 5}, {21, 21}, true, 8, "embedded_inputs"},
      {{30, 30, 30, 30, 30, 30, 30}, {256, 128, 128, 256}, true, 96,
       "higgs_shape"},
  };
  // Consecutive columns, gaps of wildcard columns, and chains that start
  // past column 1.
  const std::vector<std::vector<int>> chains = {
      {1, 2, 3, 4, 5, 6}, {1, 3, 6}, {2, 5}, {1, 6}, {4, 5, 6}};
  for (const CarryCase& layout : cases) {
    ResMadeConfig config;
    config.hidden_sizes = layout.hidden;
    config.residual = layout.residual;
    config.one_hot_max_domain = layout.one_hot_max;
    config.embedding_dim = 6;
    ResMade made(layout.domains, config, 93);
    Rng rng(94);
    // Training moves every bias and unmasked weight off its initial value.
    nn::Adam adam;
    made.RegisterParameters(adam);
    for (int step = 0; step < 4; ++step) {
      std::vector<std::vector<int>> batch = RandomRows(made, 64, rng);
      for (std::vector<int>& row : batch) {
        for (int c = 0; c < made.num_columns(); ++c) {
          row[c] = std::min(row[c], made.domain_size(c) - 1);
        }
      }
      made.TrainStep(batch, adam, rng);
    }
    // First-step row counts: 1 row, and counts that leave 4-row-block
    // remainders; the children counts vary around them.
    for (const std::vector<int>& chain : chains) {
      for (const int first_rows : {1, 5, 11}) {
        ExpectCarryMatchesFull(made, chain, first_rows, rng,
                               std::string(layout.label));
      }
    }
  }
}

TEST(ResMadeCarryTest, ManyChildrenOfOneParent) {
  ResMade made({5, 9, 7, 6}, TinyConfig(), 95);
  Rng rng(96);
  // One parent row for column 1; 13 children for column 3 (three full
  // 4-row blocks and a remainder), all copying row 0.
  const int n = made.num_columns();
  std::vector<int> parent = {3, made.wildcard_token(1), made.wildcard_token(2),
                             made.wildcard_token(3)};
  ResMade::Context ctx;
  nn::Matrix probs;
  made.ConditionalDistribution({parent.data(), 1, n}, 1, 0, {}, probs, ctx);
  std::vector<int> children;
  for (int k = 0; k < 13; ++k) {
    children.insert(children.end(),
                    {3, static_cast<int>(rng.UniformInt(9)),
                     static_cast<int>(rng.UniformInt(8)), k % 7});
  }
  const EncodedView view{children.data(), 13, n};
  nn::Matrix got, want;
  made.ConditionalDistribution(view, 3, 1, std::vector<int>(13, 0), got, ctx);
  ResMade::Context fresh;
  made.ConditionalDistribution(view, 3, 0, {}, want, fresh);
  ASSERT_EQ(got.rows(), 13);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0);
}

TEST(ResMadeCarryTest, RejectsACarryWithoutItsParentCall) {
  ResMade made({5, 9, 7, 6}, TinyConfig(), 97);
  const int n = made.num_columns();
  std::vector<int> row = {1, 2, made.wildcard_token(2), made.wildcard_token(3)};
  const EncodedView view{row.data(), 1, n};
  ResMade::Context ctx;
  nn::Matrix probs;
  made.ConditionalDistribution(view, 2, 0, {}, probs, ctx);
  // The context holds column 2's units, not column 1's.
  EXPECT_DEATH(made.ConditionalDistribution(view, 3, 1, std::vector<int>{0},
                                            probs, ctx),
               "parent call");
  // A parent index past the previous call's rows.
  EXPECT_DEATH(made.ConditionalDistribution(view, 3, 2, std::vector<int>{1},
                                            probs, ctx),
               "");
}

}  // namespace
}  // namespace iam::ar
