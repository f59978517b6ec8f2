#include "nn/kernels.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nn/matrix.h"
#include "util/random.h"

namespace iam::nn {
namespace {

// In the portable build the tiled kernels accumulate in the same index order
// as the reference, so results must match bitwise. The IAM_NATIVE build may
// contract mul+add chains into FMA differently between the two loop shapes,
// so there we allow a small relative tolerance instead. See DESIGN.md §10.
void ExpectSameMatrix(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < want.rows(); ++r) {
    for (int c = 0; c < want.cols(); ++c) {
#ifdef IAM_NATIVE
      EXPECT_NEAR(got.at(r, c), want.at(r, c),
                  1e-4f * (1.0f + std::fabs(want.at(r, c))))
          << "at (" << r << ", " << c << ")";
#else
      EXPECT_EQ(got.at(r, c), want.at(r, c))
          << "at (" << r << ", " << c << ")";
#endif
    }
  }
}

void ExpectSameSpan(std::span<const float> got, std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
#ifdef IAM_NATIVE
    EXPECT_NEAR(got[i], want[i], 1e-4f * (1.0f + std::fabs(want[i])))
        << "at " << i;
#else
    EXPECT_EQ(got[i], want[i]) << "at " << i;
#endif
  }
}

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

TEST(KernelsTest, LinearForwardMatchesReferenceAcrossShapes) {
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
        LinearForward(x, w, bias, got, wt_scratch);
        ExpectSameMatrix(got, want);

        // Empty bias path.
        LinearForwardRef(x, w, {}, want);
        LinearForward(x, w, {}, got, wt_scratch);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

TEST(KernelsTest, FusedReluMatchesReferenceThenRelu) {
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
        LinearReluForward(x, w, bias, got, wt_scratch);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

TEST(KernelsTest, TransposedKernelsMatchReference) {
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
        LinearForwardT(x, all, wt.data(), out, out, bias, got,
                       /*fuse_relu=*/false);
        ExpectSameMatrix(got, want);

        for (int r = 0; r < want.rows(); ++r) {
          for (int c = 0; c < want.cols(); ++c) {
            if (!(want.at(r, c) > 0.0f)) want.at(r, c) = 0.0f;
          }
        }
        LinearForwardT(x, all, wt.data(), out, out, bias, got,
                       /*fuse_relu=*/true);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

TEST(KernelsTest, ForwardTSliceMatchesColumnWindowOfFullProduct) {
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
    LinearForwardT(x, AllInputs(in), wt.data() + col0, wt.cols(), width,
                   std::span<const float>(bias).subspan(col0, width), got,
                   /*fuse_relu=*/false);
    ASSERT_EQ(got.rows(), batch);
    ASSERT_EQ(got.cols(), width);
    for (int r = 0; r < batch; ++r) {
      for (int c = 0; c < width; ++c) {
#ifdef IAM_NATIVE
        EXPECT_NEAR(got.at(r, c), full.at(r, col0 + c),
                    1e-4f * (1.0f + std::fabs(full.at(r, col0 + c))));
#else
        EXPECT_EQ(got.at(r, c), full.at(r, col0 + c));
#endif
      }
    }
  }
}

// The eval path's truncated products: random kept-input lists (any subset,
// in any order, empty included) and output prefixes of a wider transposed
// matrix, over batches 1..9 so every remainder of the 4-row blocks runs.
// The oracle is the reference kernel over the gathered inputs and the
// prefix's weights, which adds the same terms in the same order.
TEST(KernelsTest, KeptListKernelMatchesReferenceOnGatheredInputs) {
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
    LinearForwardT(x, kept, wt.data(), width, out, bias, got, relu);
    ExpectSameMatrix(got, want);
  }
}

TEST(KernelsTest, SparseForwardMatchesDenseOnSparseInput) {
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
        SparseLinearForward(sx, wt, out, bias, got, /*fuse_relu=*/false);
        ExpectSameMatrix(got, want);

        for (int r = 0; r < want.rows(); ++r) {
          for (int c = 0; c < want.cols(); ++c) {
            if (!(want.at(r, c) > 0.0f)) want.at(r, c) = 0.0f;
          }
        }
        SparseLinearForward(sx, wt, out, bias, got, /*fuse_relu=*/true);
        ExpectSameMatrix(got, want);
      }
    }
  }
}

TEST(KernelsTest, SparseForwardHandlesAllEmptyRows) {
  SparseRows sx;
  sx.Reset(16);
  for (int r = 0; r < 3; ++r) sx.EndRow();
  Matrix wt(16, 5);
  std::vector<float> bias = {1.0f, -2.0f, 0.5f, 0.0f, 3.0f};
  Matrix y;
  SparseLinearForward(sx, wt, 5, bias, y, /*fuse_relu=*/false);
  ASSERT_EQ(y.rows(), 3);
  ASSERT_EQ(y.cols(), 5);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) EXPECT_EQ(y.at(r, c), bias[c]);
  }
}

TEST(KernelsTest, LinearBackwardMatchesReferenceWithZeroRows) {
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
        LinearBackward(x, w, dy, dx_got, dw_got, dbias_got);
        ExpectSameMatrix(dx_got, dx_want);
        ExpectSameMatrix(dw_got, dw_want);
        ExpectSameSpan(dbias_got, dbias_want);
      }
    }
  }
}

}  // namespace
}  // namespace iam::nn
