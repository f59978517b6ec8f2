#include "nn/kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernel_arms.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace iam::nn {
namespace {

using internal::KernelArm;

// The tiled kernels accumulate in the same index order as the reference, on
// every arm, so results must match bitwise. See DESIGN.md §10.
void ExpectSameMatrix(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < want.rows(); ++r) {
    for (int c = 0; c < want.cols(); ++c) {
      EXPECT_EQ(got.at(r, c), want.at(r, c))
          << "at (" << r << ", " << c << ")";
    }
  }
}

void ExpectSameSpan(std::span<const float> got, std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "at " << i;
  }
}

// The public entry points, which run the arm internal::ChosenArm() picked.
const KernelArm kPublic = {"public",         &LinearForward,
                           &LinearReluForward, &LinearForwardT,
                           &SparseLinearForward, &LinearBackward};

void FillRandom(Matrix& m, Rng& rng) {
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      m.at(r, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
}

std::vector<float> RandomBias(int out, Rng& rng) {
  std::vector<float> bias(out);
  for (float& b : bias) b = static_cast<float>(rng.Uniform(-0.5, 0.5));
  return bias;
}

std::vector<int> AllInputs(int in) {
  std::vector<int> all(in);
  for (int i = 0; i < in; ++i) all[i] = i;
  return all;
}

// Shapes chosen to exercise every remainder path of the tiled kernels: the
// 8-wide strips, the 4-wide strips, the scalar remainder, the one-row batch
// remainder of the 4-row blocks, the small-batch tile (batch < 8 skips the
// transpose), and degenerate widths.
const int kBatches[] = {1, 2, 3, 5, 8, 17, 64};
const int kWidths[] = {1, 2, 3, 5, 7, 16, 17, 33, 64, 100};

TEST(KernelsTest, MatrixStorageIsCacheLineAligned) {
  for (int n : {1, 3, 64, 1000}) {
    Matrix m(n, n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % Matrix::kAlignment, 0u);
    m.ResizeUninitialized(2 * n, n + 1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % Matrix::kAlignment, 0u);
  }
}

void CheckLinearForwardMatchesReferenceAcrossShapes(const KernelArm& k) {
  Rng rng(0x5eed1);
  for (int batch : kBatches) {
    for (int in : kWidths) {
      for (int out : kWidths) {
        Matrix x(batch, in), w(out, in);
        FillRandom(x, rng);
        FillRandom(w, rng);
        const std::vector<float> bias = RandomBias(out, rng);

        Matrix want, got, wt_scratch;
        LinearForwardRef(x, w, bias, want);
        k.linear_forward(x, w, bias, got, wt_scratch);
        ExpectSameMatrix(got, want);

        // Empty bias path.
        LinearForwardRef(x, w, {}, want);
        k.linear_forward(x, w, {}, got, wt_scratch);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

void CheckFusedReluMatchesReferenceThenRelu(const KernelArm& k) {
  Rng rng(0x5eed2);
  for (int batch : {1, 3, 17}) {
    for (int in : kWidths) {
      for (int out : kWidths) {
        Matrix x(batch, in), w(out, in);
        FillRandom(x, rng);
        FillRandom(w, rng);
        const std::vector<float> bias = RandomBias(out, rng);

        Matrix want;
        LinearForwardRef(x, w, bias, want);
        for (int r = 0; r < want.rows(); ++r) {
          for (int c = 0; c < want.cols(); ++c) {
            // Matches ReluForward semantics: non-positive (and NaN) -> 0.
            if (!(want.at(r, c) > 0.0f)) want.at(r, c) = 0.0f;
          }
        }
        Matrix got, wt_scratch;
        k.linear_relu_forward(x, w, bias, got, wt_scratch);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

void CheckTransposedKernelsMatchReference(const KernelArm& k) {
  Rng rng(0x5eed3);
  for (int batch : {1, 5, 32}) {
    for (int in : {1, 7, 33, 100}) {
      for (int out : {1, 7, 33, 100}) {
        Matrix x(batch, in), w(out, in), wt;
        FillRandom(x, rng);
        FillRandom(w, rng);
        TransposeInto(w, wt);
        ASSERT_EQ(wt.rows(), in);
        ASSERT_EQ(wt.cols(), out);
        const std::vector<float> bias = RandomBias(out, rng);

        const std::vector<int> all = AllInputs(in);
        Matrix want, got;
        LinearForwardRef(x, w, bias, want);
        k.linear_forward_t(x, all, wt.data(), out, out, bias, got,
                       /*fuse_relu=*/false);
        ExpectSameMatrix(got, want);

        for (int r = 0; r < want.rows(); ++r) {
          for (int c = 0; c < want.cols(); ++c) {
            if (!(want.at(r, c) > 0.0f)) want.at(r, c) = 0.0f;
          }
        }
        k.linear_forward_t(x, all, wt.data(), out, out, bias, got,
                       /*fuse_relu=*/true);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

void CheckForwardTSliceMatchesColumnWindowOfFullProduct(const KernelArm& k) {
  Rng rng(0x5eed4);
  const int batch = 9, in = 37, out = 71;
  Matrix x(batch, in), w(out, in), wt;
  FillRandom(x, rng);
  FillRandom(w, rng);
  TransposeInto(w, wt);
  const std::vector<float> bias = RandomBias(out, rng);

  Matrix full;
  LinearForwardRef(x, w, bias, full);

  for (const auto& [col0, width] : {std::pair{0, 1},
                                   std::pair{0, out},
                                   std::pair{13, 5},
                                   std::pair{out - 1, 1},
                                   std::pair{out - 17, 17}}) {
    Matrix got;
    k.linear_forward_t(x, AllInputs(in), wt.data() + col0, wt.cols(), width,
                   std::span<const float>(bias).subspan(col0, width), got,
                   /*fuse_relu=*/false);
    ASSERT_EQ(got.rows(), batch);
    ASSERT_EQ(got.cols(), width);
    for (int r = 0; r < batch; ++r) {
      for (int c = 0; c < width; ++c) {
        EXPECT_EQ(got.at(r, c), full.at(r, col0 + c));
      }
    }
  }
}

// The eval path's truncated products: random kept-input lists (any subset,
// in any order, empty included) and output prefixes of a wider transposed
// matrix, over batches 1..9 so every remainder of the 4-row blocks runs.
// The oracle is the reference kernel over the gathered inputs and the
// prefix's weights, which adds the same terms in the same order.
void CheckKeptListKernelMatchesReferenceOnGatheredInputs(const KernelArm& k) {
  Rng rng(0x5eed7);
  for (int trial = 0; trial < 300; ++trial) {
    const int batch = 1 + static_cast<int>(rng.UniformInt(9));
    const int in = 1 + static_cast<int>(rng.UniformInt(100));
    const int width = 1 + static_cast<int>(rng.UniformInt(100));
    const int out = static_cast<int>(rng.UniformInt(width + 1));
    std::vector<int> kept;
    const double density = rng.Uniform();
    for (int i = 0; i < in; ++i) {
      if (rng.Uniform() < density) kept.push_back(i);
    }
    if (trial % 2 == 1) {  // list order need not be ascending
      for (size_t j = kept.size(); j > 1; --j) {
        std::swap(kept[j - 1], kept[rng.UniformInt(j)]);
      }
    }
    const int nk = static_cast<int>(kept.size());

    Matrix x(batch, in), w(width, in), wt;
    FillRandom(x, rng);
    FillRandom(w, rng);
    TransposeInto(w, wt);
    const std::vector<float> bias = RandomBias(out, rng);
    const bool relu = trial % 3 == 0;

    Matrix xk(batch, nk), wk(out, nk), want;
    for (int j = 0; j < nk; ++j) {
      for (int b = 0; b < batch; ++b) xk.at(b, j) = x.at(b, kept[j]);
      for (int o = 0; o < out; ++o) wk.at(o, j) = w.at(o, kept[j]);
    }
    LinearForwardRef(xk, wk, bias, want);
    if (relu) {
      for (int r = 0; r < want.rows(); ++r) {
        for (int c = 0; c < want.cols(); ++c) {
          if (!(want.at(r, c) > 0.0f)) want.at(r, c) = 0.0f;
        }
      }
    }
    Matrix got;
    k.linear_forward_t(x, kept, wt.data(), width, out, bias, got, relu);
    ExpectSameMatrix(got, want);
  }
}

void CheckSparseForwardMatchesDenseOnSparseInput(const KernelArm& k) {
  Rng rng(0x5eed5);
  for (int batch : {1, 4, 19}) {
    for (int in : {8, 37, 120}) {
      for (int out : {1, 30, 65}) {
        // Build a sparse batch (~10% density, strictly increasing indices)
        // and its dense expansion.
        SparseRows sx;
        sx.Reset(in);
        Matrix x(batch, in);
        x.Zero();
        for (int r = 0; r < batch; ++r) {
          for (int i = 0; i < in; ++i) {
            if (rng.Uniform() < 0.1) {
              const float v =
                  rng.Uniform() < 0.7
                      ? 1.0f  // one-hot lanes dominate the real encoding
                      : static_cast<float>(rng.Uniform(-1.0, 1.0));
              sx.Push(i, v);
              x.at(r, i) = v;
            }
          }
          sx.EndRow();
        }

        Matrix w(out, in), wt;
        FillRandom(w, rng);
        TransposeInto(w, wt);
        const std::vector<float> bias = RandomBias(out, rng);

        Matrix want, got;
        LinearForwardRef(x, w, bias, want);
        k.sparse_linear_forward(sx, wt, out, bias, got, /*fuse_relu=*/false);
        ExpectSameMatrix(got, want);

        for (int r = 0; r < want.rows(); ++r) {
          for (int c = 0; c < want.cols(); ++c) {
            if (!(want.at(r, c) > 0.0f)) want.at(r, c) = 0.0f;
          }
        }
        k.sparse_linear_forward(sx, wt, out, bias, got, /*fuse_relu=*/true);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

void CheckSparseForwardHandlesAllEmptyRows(const KernelArm& k) {
  SparseRows sx;
  sx.Reset(16);
  for (int r = 0; r < 3; ++r) sx.EndRow();
  Matrix wt(16, 5);
  std::vector<float> bias = {1.0f, -2.0f, 0.5f, 0.0f, 3.0f};
  Matrix y;
  k.sparse_linear_forward(sx, wt, 5, bias, y, /*fuse_relu=*/false);
  ASSERT_EQ(y.rows(), 3);
  ASSERT_EQ(y.cols(), 5);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) EXPECT_EQ(y.at(r, c), bias[c]);
  }
}

void CheckLinearBackwardMatchesReferenceWithZeroRows(const KernelArm& k) {
  Rng rng(0x5eed6);
  for (int batch : kBatches) {
    for (int in : {1, 5, 33, 64}) {
      for (int out : {1, 5, 33, 64}) {
        Matrix x(batch, in), w(out, in), dy(batch, out);
        FillRandom(x, rng);
        FillRandom(w, rng);
        FillRandom(dy, rng);
        // ~half the gradient entries are exact zeros (the masked-ReLU
        // pattern the dy == 0 skip is tuned for), including full zero rows.
        for (int r = 0; r < batch; ++r) {
          const bool whole_row = rng.Uniform() < 0.25;
          for (int c = 0; c < out; ++c) {
            if (whole_row || rng.Uniform() < 0.5) dy.at(r, c) = 0.0f;
          }
        }

        Matrix dx_want, dw_want(out, in), dx_got, dw_got(out, in);
        FillRandom(dw_want, rng);  // both sides accumulate on identical
        dw_got = dw_want;          // nonzero starting gradients
        std::vector<float> dbias_want = RandomBias(out, rng);
        std::vector<float> dbias_got = dbias_want;

        LinearBackwardRef(x, w, dy, dx_want, dw_want, dbias_want);
        k.linear_backward(x, w, dy, dx_got, dw_got, dbias_got);
        ExpectSameMatrix(dx_got, dx_want);
        ExpectSameMatrix(dw_got, dw_want);
        ExpectSameSpan(dbias_got, dbias_want);
      }
    }
  }
}

TEST(KernelsTest, LinearForwardMatchesReferenceAcrossShapes) {
  CheckLinearForwardMatchesReferenceAcrossShapes(kPublic);
}
TEST(KernelsTest, FusedReluMatchesReferenceThenRelu) {
  CheckFusedReluMatchesReferenceThenRelu(kPublic);
}
TEST(KernelsTest, TransposedKernelsMatchReference) {
  CheckTransposedKernelsMatchReference(kPublic);
}
TEST(KernelsTest, ForwardTSliceMatchesColumnWindowOfFullProduct) {
  CheckForwardTSliceMatchesColumnWindowOfFullProduct(kPublic);
}
TEST(KernelsTest, KeptListKernelMatchesReferenceOnGatheredInputs) {
  CheckKeptListKernelMatchesReferenceOnGatheredInputs(kPublic);
}
TEST(KernelsTest, SparseForwardMatchesDenseOnSparseInput) {
  CheckSparseForwardMatchesDenseOnSparseInput(kPublic);
}
TEST(KernelsTest, SparseForwardHandlesAllEmptyRows) {
  CheckSparseForwardHandlesAllEmptyRows(kPublic);
}
TEST(KernelsTest, LinearBackwardMatchesReferenceWithZeroRows) {
  CheckLinearBackwardMatchesReferenceWithZeroRows(kPublic);
}

// Bitwise equality, -0.0f against +0.0f included.
void ExpectSameBits(const Matrix& got, const Matrix& want,
                    const std::string& where) {
  ASSERT_EQ(got.rows(), want.rows()) << where;
  ASSERT_EQ(got.cols(), want.cols()) << where;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0)
      << where;
}

// The hidden layers of the paper-configured ResMADE (256-128-128-256, so
// in × out of 256×128, 128×128 and 128×256) run as the sampler runs them:
// for each target column, the input units of degree at most the column in
// ascending index, and the degree-sorted prefix of the outputs; then a
// 30-logit window at a nonzero offset of a wider output layer, and the
// training forward and backward at the full shapes. Every arm the CPU runs
// must give the portable arm's bits.
TEST(KernelsTest, AllArmsAgreeBitwiseAtResMadeShapes) {
  std::vector<const KernelArm*> arms;
  for (const char* isa : {"sse", "avx2", "avx512"}) {
    if (const KernelArm* arm = internal::FindArm(isa)) arms.push_back(arm);
  }
  ASSERT_FALSE(arms.empty());
  const KernelArm& base = *arms.front();
  Rng rng(0x5eed8);
  constexpr int kColumns = 7;  // the HIGGS analogue's column count
  for (const auto& [in, out] :
       {std::pair{256, 128}, std::pair{128, 128}, std::pair{128, 256}}) {
    const std::string shape = std::to_string(in) + "x" + std::to_string(out);
    std::vector<int> in_degree(in), out_degree(out);
    for (int& d : in_degree) d = static_cast<int>(rng.UniformInt(kColumns));
    for (int& d : out_degree) d = static_cast<int>(rng.UniformInt(kColumns));
    std::sort(out_degree.begin(), out_degree.end());
    Matrix w(out, in), wt;
    FillRandom(w, rng);
    TransposeInto(w, wt);
    const std::vector<float> bias = RandomBias(out, rng);
    for (const int batch : {1, 7, 130}) {
      Matrix x(batch, in);
      FillRandom(x, rng);
      for (int m = 0; m < kColumns; ++m) {
        std::vector<int> kept;
        for (int i = 0; i < in; ++i) {
          if (in_degree[i] <= m) kept.push_back(i);
        }
        const int prefix = static_cast<int>(
            std::upper_bound(out_degree.begin(), out_degree.end(), m) -
            out_degree.begin());
        const std::span<const float> prefix_bias =
            std::span<const float>(bias).first(prefix);
        Matrix want, got;
        base.linear_forward_t(x, kept, wt.data(), out, prefix, prefix_bias,
                              want, /*fuse_relu=*/true);
        for (const KernelArm* arm : arms) {
          arm->linear_forward_t(x, kept, wt.data(), out, prefix, prefix_bias,
                                got, /*fuse_relu=*/true);
          ExpectSameBits(got, want,
                         std::string(arm->isa) + " " + shape + " batch " +
                             std::to_string(batch) + " column " +
                             std::to_string(m));
        }
      }
    }

    // The training step: fused forward and backward at batch 64, with the
    // half-zero gradients a ReLU leaves.
    Matrix x(64, in), dy(64, out);
    FillRandom(x, rng);
    FillRandom(dy, rng);
    for (int r = 0; r < dy.rows(); ++r) {
      for (int c = 0; c < out; ++c) {
        if (rng.Uniform() < 0.5) dy.at(r, c) = 0.0f;
      }
    }
    Matrix y_want, dx_want, dw_want(out, in), scratch;
    std::vector<float> dbias_want(out, 0.0f);
    base.linear_relu_forward(x, w, bias, y_want, scratch);
    base.linear_backward(x, w, dy, dx_want, dw_want, dbias_want);
    for (const KernelArm* arm : arms) {
      Matrix y, dx, dw(out, in);
      std::vector<float> dbias(out, 0.0f);
      arm->linear_relu_forward(x, w, bias, y, scratch);
      arm->linear_backward(x, w, dy, dx, dw, dbias);
      const std::string where = std::string(arm->isa) + " " + shape;
      ExpectSameBits(y, y_want, where + " forward");
      ExpectSameBits(dx, dx_want, where + " dx");
      ExpectSameBits(dw, dw_want, where + " dw");
      EXPECT_EQ(std::memcmp(dbias.data(), dbias_want.data(),
                            dbias.size() * sizeof(float)),
                0)
          << where << " dbias";
    }
  }

  // The logits of column 2 of a 7-column model with 30 values each: a
  // 30-wide window at offset 60 of the 210 output columns.
  const int in = 256, width = kColumns * 30, offset = 60, window = 30;
  Matrix w(width, in), wt;
  FillRandom(w, rng);
  TransposeInto(w, wt);
  const std::vector<float> bias = RandomBias(width, rng);
  const std::span<const float> window_bias =
      std::span<const float>(bias).subspan(offset, window);
  for (const int batch : {1, 7, 130}) {
    Matrix x(batch, in), want, got;
    FillRandom(x, rng);
    base.linear_forward_t(x, AllInputs(in), wt.data() + offset, width, window,
                          window_bias, want, /*fuse_relu=*/false);
    for (const KernelArm* arm : arms) {
      arm->linear_forward_t(x, AllInputs(in), wt.data() + offset, width,
                            window, window_bias, got, /*fuse_relu=*/false);
      ExpectSameBits(got, want,
                     std::string(arm->isa) + " logit window batch " +
                         std::to_string(batch));
    }
  }
}

// The public kernels run the widest arm the CPU supports, and the choice is
// exported as the gauge iam_nn_kernel_isa{isa="<arm>"} = 1.
TEST(KernelsTest, ChosenArmIsTheWidestSupportedAndIsReported) {
  const KernelArm& chosen = internal::ChosenArm();
  for (const char* isa : {"avx512", "avx2", "sse"}) {
    if (std::string(isa) == chosen.isa) break;
    EXPECT_EQ(internal::FindArm(isa), nullptr)
        << isa << " runs on this CPU but " << chosen.isa << " was chosen";
  }
  EXPECT_EQ(internal::FindArm(chosen.isa), &chosen);
  EXPECT_EQ(obs::MetricRegistry::Global()
                .GetGauge("iam_nn_kernel_isa", "isa", chosen.isa)
                .Value(),
            1.0);
}

// Every arm this build has, each run only where the CPU supports it.
class KernelArmTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    arm_ = internal::FindArm(GetParam());
    if (arm_ == nullptr) {
      GTEST_SKIP() << "this CPU (or build) has no " << GetParam() << " arm";
    }
  }
  const KernelArm& arm() const { return *arm_; }

 private:
  const KernelArm* arm_ = nullptr;
};

TEST_P(KernelArmTest, LinearForwardMatchesReferenceAcrossShapes) {
  CheckLinearForwardMatchesReferenceAcrossShapes(arm());
}
TEST_P(KernelArmTest, FusedReluMatchesReferenceThenRelu) {
  CheckFusedReluMatchesReferenceThenRelu(arm());
}
TEST_P(KernelArmTest, TransposedKernelsMatchReference) {
  CheckTransposedKernelsMatchReference(arm());
}
TEST_P(KernelArmTest, ForwardTSliceMatchesColumnWindowOfFullProduct) {
  CheckForwardTSliceMatchesColumnWindowOfFullProduct(arm());
}
TEST_P(KernelArmTest, KeptListKernelMatchesReferenceOnGatheredInputs) {
  CheckKeptListKernelMatchesReferenceOnGatheredInputs(arm());
}
TEST_P(KernelArmTest, SparseForwardMatchesDenseOnSparseInput) {
  CheckSparseForwardMatchesDenseOnSparseInput(arm());
}
TEST_P(KernelArmTest, SparseForwardHandlesAllEmptyRows) {
  CheckSparseForwardHandlesAllEmptyRows(arm());
}
TEST_P(KernelArmTest, LinearBackwardMatchesReferenceWithZeroRows) {
  CheckLinearBackwardMatchesReferenceWithZeroRows(arm());
}

INSTANTIATE_TEST_SUITE_P(Isa, KernelArmTest,
                         ::testing::Values("sse", "avx2", "avx512"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace iam::nn
