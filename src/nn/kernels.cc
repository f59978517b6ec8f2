#include "nn/kernels.h"

#include <algorithm>
#include <cstring>

#include "util/math_util.h"

namespace iam::nn {

// --- Reference kernels (the seed implementations, kept verbatim). ----------

void LinearForwardRef(const Matrix& x, const Matrix& w,
                      std::span<const float> bias, Matrix& y) {
  const int batch = x.rows();
  const int in = x.cols();
  const int out = w.rows();
  IAM_CHECK(w.cols() == in);
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == out);
  y.ResizeUninitialized(batch, out);  // every element is written below

  for (int b = 0; b < batch; ++b) {
    const float* xb = x.row(b);
    float* yb = y.row(b);
    for (int o = 0; o < out; ++o) {
      const float* wo = w.row(o);
      float acc = bias.empty() ? 0.0f : bias[o];
      for (int i = 0; i < in; ++i) acc += xb[i] * wo[i];
      yb[o] = acc;
    }
  }
}

void LinearBackwardRef(const Matrix& x, const Matrix& w, const Matrix& dy,
                       Matrix& dx, Matrix& dw, std::span<float> dbias) {
  const int batch = x.rows();
  const int in = x.cols();
  const int out = w.rows();
  IAM_CHECK(dy.rows() == batch && dy.cols() == out);
  IAM_CHECK(dw.rows() == out && dw.cols() == in);
  dx.ResizeUninitialized(batch, in);
  dx.Zero();

  for (int b = 0; b < batch; ++b) {
    const float* dyb = dy.row(b);
    const float* xb = x.row(b);
    float* dxb = dx.row(b);
    for (int o = 0; o < out; ++o) {
      const float g = dyb[o];
      if (g == 0.0f) continue;
      const float* wo = w.row(o);
      float* dwo = dw.row(o);
      for (int i = 0; i < in; ++i) {
        dxb[i] += g * wo[i];
        dwo[i] += g * xb[i];
      }
      if (!dbias.empty()) dbias[o] += g;
    }
  }
}

// --- Tiled forward over transposed weights. --------------------------------

namespace {

// Four floats as one value: GCC and Clang lower its elementwise arithmetic
// to one SSE register, lane by lane, so every lane rounds exactly as the
// scalar expression does. Spelling the tile in this type pins the register
// blocking instead of leaving it to the vectorizer's cost model, which
// spilled or mis-grouped the accumulators of the equivalent scalar loops.
typedef float Floats4 __attribute__((vector_size(16)));

// Copies rows [b0, b0 + kRows) of x, gathered at `kept`, into xp so that
// xp[r * nk + j] == x[b0 + r][kept[j]].
template <int kRows>
inline void PackRows(const Matrix& x, int b0, std::span<const int> kept,
                     float* IAM_RESTRICT xp) {
  const int nk = static_cast<int>(kept.size());
  for (int r = 0; r < kRows; ++r) {
    const float* IAM_RESTRICT xr = x.row(b0 + r);
    for (int j = 0; j < nk; ++j) xp[r * nk + j] = xr[kept[j]];
  }
}

// kRows batch rows × one strip of kVecs values of type V (Floats4, or float
// for the scalar remainder). The accumulators live in registers, and each
// lane sums its terms one after the other in list order — every weight row
// loaded once serves all kRows rows, yet nothing is reassociated relative
// to the reference kernel.
template <int kRows, int kVecs, typename V>
inline void KeptStrip(const float* IAM_RESTRICT xp, const int* kept, int nk,
                      const float* IAM_RESTRICT wt, size_t ldw,
                      const float* bias, float* const* yr, int o) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  V acc[kRows][kVecs];
  for (int v = 0; v < kVecs; ++v) {
    V init{};
    if (bias != nullptr) std::memcpy(&init, bias + kLanes * v, sizeof(V));
    for (int r = 0; r < kRows; ++r) acc[r][v] = init;
  }
  for (int j = 0; j < nk; ++j) {
    const float* wj = wt + static_cast<size_t>(kept[j]) * ldw;
    for (int v = 0; v < kVecs; ++v) {
      V w;
      std::memcpy(&w, wj + kLanes * v, sizeof(V));
      for (int r = 0; r < kRows; ++r) acc[r][v] += xp[r * nk + j] * w;
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(yr[r] + o + kLanes * v, &acc[r][v], sizeof(V));
    }
  }
}

// One packed row block across all outputs: 8-wide strips, then a 4-wide
// and a scalar remainder, then the ReLU over the block's rows while they
// are still in L1.
template <int kRows>
void KeptRowBlock(const float* xp, std::span<const int> kept, const float* wt,
                  size_t ldw, int out, const float* bias, bool relu,
                  Matrix& y, int b0) {
  float* yr[kRows];
  for (int r = 0; r < kRows; ++r) yr[r] = y.row(b0 + r);
  const int nk = static_cast<int>(kept.size());
  const auto at = [bias](int o) { return bias ? bias + o : nullptr; };
  int o = 0;
  for (; o + 8 <= out; o += 8) {
    KeptStrip<kRows, 2, Floats4>(xp, kept.data(), nk, wt + o, ldw, at(o), yr,
                                 o);
  }
  for (; o + 4 <= out; o += 4) {
    KeptStrip<kRows, 1, Floats4>(xp, kept.data(), nk, wt + o, ldw, at(o), yr,
                                 o);
  }
  for (; o < out; ++o) {
    KeptStrip<kRows, 1, float>(xp, kept.data(), nk, wt + o, ldw, at(o), yr,
                               o);
  }
  if (relu) {
    for (int r = 0; r < kRows; ++r) {
      float* IAM_RESTRICT yo = yr[r];
      for (int k = 0; k < out; ++k) yo[k] = yo[k] > 0.0f ? yo[k] : 0.0f;
    }
  }
}

std::vector<int> AllInputs(int in) {
  std::vector<int> kept(static_cast<size_t>(in));
  for (int i = 0; i < in; ++i) kept[i] = i;
  return kept;
}

// Small-batch path over row-major weights: four output rows share each load
// of xb[i], giving four independent reduction chains without any transpose.
template <bool kRelu>
void ForwardSmallImpl(const Matrix& x, const Matrix& w,
                      std::span<const float> bias, Matrix& y) {
  const int batch = x.rows();
  const int in = x.cols();
  const int out = w.rows();
  y.ResizeUninitialized(batch, out);
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();

  for (int b = 0; b < batch; ++b) {
    const float* IAM_RESTRICT xb = x.row(b);
    float* yb = y.row(b);
    int o = 0;
    for (; o + 4 <= out; o += 4) {
      const float* IAM_RESTRICT w0 = w.row(o);
      const float* IAM_RESTRICT w1 = w.row(o + 1);
      const float* IAM_RESTRICT w2 = w.row(o + 2);
      const float* IAM_RESTRICT w3 = w.row(o + 3);
      float a0 = bias_ptr ? bias_ptr[o] : 0.0f;
      float a1 = bias_ptr ? bias_ptr[o + 1] : 0.0f;
      float a2 = bias_ptr ? bias_ptr[o + 2] : 0.0f;
      float a3 = bias_ptr ? bias_ptr[o + 3] : 0.0f;
      for (int i = 0; i < in; ++i) {
        const float xv = xb[i];
        a0 += xv * w0[i];
        a1 += xv * w1[i];
        a2 += xv * w2[i];
        a3 += xv * w3[i];
      }
      if (kRelu) {
        yb[o] = a0 > 0.0f ? a0 : 0.0f;
        yb[o + 1] = a1 > 0.0f ? a1 : 0.0f;
        yb[o + 2] = a2 > 0.0f ? a2 : 0.0f;
        yb[o + 3] = a3 > 0.0f ? a3 : 0.0f;
      } else {
        yb[o] = a0;
        yb[o + 1] = a1;
        yb[o + 2] = a2;
        yb[o + 3] = a3;
      }
    }
    for (; o < out; ++o) {
      const float* wo = w.row(o);
      float acc = bias_ptr ? bias_ptr[o] : 0.0f;
      for (int i = 0; i < in; ++i) acc += xb[i] * wo[i];
      yb[o] = kRelu ? (acc > 0.0f ? acc : 0.0f) : acc;
    }
  }
}

// Below this batch size the transpose is not worth amortizing and the
// row-major small-batch tile wins.
constexpr int kTransposeBatchThreshold = 8;

template <bool kRelu>
void ForwardDispatch(const Matrix& x, const Matrix& w,
                     std::span<const float> bias, Matrix& y,
                     Matrix& wt_scratch) {
  IAM_CHECK(w.cols() == x.cols());
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == w.rows());
  if (x.rows() >= kTransposeBatchThreshold) {
    // Caller-owned transpose scratch: reused across calls, so steady-state
    // batched inference pays one out*in copy per call (<1% of the GEMM).
    TransposeInto(w, wt_scratch);
    LinearForwardT(x, AllInputs(x.cols()), wt_scratch.data(),
                   wt_scratch.cols(), w.rows(), bias, y, kRelu);
  } else {
    ForwardSmallImpl<kRelu>(x, w, bias, y);
  }
}

}  // namespace

void LinearForward(const Matrix& x, const Matrix& w,
                   std::span<const float> bias, Matrix& y,
                   Matrix& wt_scratch) {
  ForwardDispatch<false>(x, w, bias, y, wt_scratch);
}

void LinearReluForward(const Matrix& x, const Matrix& w,
                       std::span<const float> bias, Matrix& y,
                       Matrix& wt_scratch) {
  ForwardDispatch<true>(x, w, bias, y, wt_scratch);
}

void LinearForwardT(const Matrix& x, std::span<const int> kept,
                    const float* wt, int ldw, int out,
                    std::span<const float> bias, Matrix& y, bool fuse_relu) {
  const int batch = x.rows();
  IAM_CHECK(out >= 0 && ldw >= out);
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == out);
  for (const int i : kept) IAM_CHECK(i >= 0 && i < x.cols());
  y.ResizeUninitialized(batch, out);
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();
  const size_t stride = static_cast<size_t>(ldw);

  // Gathered inputs of one 4-row block; packed once, reused by every strip.
  std::vector<float> xp(4 * kept.size());
  int b = 0;
  for (; b + 4 <= batch; b += 4) {
    PackRows<4>(x, b, kept, xp.data());
    KeptRowBlock<4>(xp.data(), kept, wt, stride, out, bias_ptr, fuse_relu, y,
                    b);
  }
  for (; b < batch; ++b) {
    PackRows<1>(x, b, kept, xp.data());
    KeptRowBlock<1>(xp.data(), kept, wt, stride, out, bias_ptr, fuse_relu, y,
                    b);
  }
}

void SoftmaxRows(const Matrix& logits, Matrix& probs) {
  const int rows = logits.rows();
  const int cols = logits.cols();
  IAM_CHECK(&logits != &probs);
  probs.ResizeUninitialized(rows, cols);
  std::vector<double> scratch(static_cast<size_t>(cols));
  for (int r = 0; r < rows; ++r) {
    const float* lrow = logits.row(r);
    scratch.assign(lrow, lrow + cols);
    SoftmaxInPlace(scratch);
    float* prow = probs.row(r);
    for (int j = 0; j < cols; ++j) prow[j] = static_cast<float>(scratch[j]);
  }
}

void TransposeInto(const Matrix& src, Matrix& dst) {
  const int rows = src.rows();
  const int cols = src.cols();
  dst.ResizeUninitialized(cols, rows);
  const float* IAM_RESTRICT s = src.data();
  float* IAM_RESTRICT d = dst.data();
  for (int r = 0; r < rows; ++r) {
    const float* srow = s + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      d[static_cast<size_t>(c) * rows + r] = srow[c];
    }
  }
}

// --- Sparse forward. -------------------------------------------------------

void SparseLinearForward(const SparseRows& x, const Matrix& wt, int out,
                         std::span<const float> bias, Matrix& y,
                         bool fuse_relu) {
  const int in = wt.rows();
  IAM_CHECK(x.cols == in);
  IAM_CHECK(out >= 0 && out <= wt.cols());
  IAM_CHECK(static_cast<int>(x.row_begin.size()) == x.rows + 1);
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == out);
  y.ResizeUninitialized(x.rows, out);

  for (int r = 0; r < x.rows; ++r) {
    float* IAM_RESTRICT yb = y.row(r);
    if (bias.empty()) {
      std::memset(yb, 0, static_cast<size_t>(out) * sizeof(float));
    } else {
      std::memcpy(yb, bias.data(), static_cast<size_t>(out) * sizeof(float));
    }
    const int end = x.row_begin[r + 1];
    for (int nz = x.row_begin[r]; nz < end; ++nz) {
      const int lane = x.index[nz];
      IAM_DCHECK(lane >= 0 && lane < in);
      const float v = x.value[nz];
      const float* IAM_RESTRICT wr = wt.row(lane);
      for (int o = 0; o < out; ++o) yb[o] += v * wr[o];
    }
    if (fuse_relu) {
      for (int o = 0; o < out; ++o) yb[o] = yb[o] > 0.0f ? yb[o] : 0.0f;
    }
  }
}

// --- Tiled backward. -------------------------------------------------------

namespace {

// dst += g0*w0 + g1*w1 + g2*w2 + g3*w3, each product added in gradient-row
// order so every dst lane sees the same addition sequence as the reference.
inline void Saxpy4(float* IAM_RESTRICT dst, const float g[4],
                   const float* const wrows[4], int n) {
  const float* IAM_RESTRICT w0 = wrows[0];
  const float* IAM_RESTRICT w1 = wrows[1];
  const float* IAM_RESTRICT w2 = wrows[2];
  const float* IAM_RESTRICT w3 = wrows[3];
  const float g0 = g[0], g1 = g[1], g2 = g[2], g3 = g[3];
  for (int i = 0; i < n; ++i) {
    float v = dst[i];
    v += g0 * w0[i];
    v += g1 * w1[i];
    v += g2 * w2[i];
    v += g3 * w3[i];
    dst[i] = v;
  }
}

inline void Saxpy1(float* IAM_RESTRICT dst, float g,
                   const float* IAM_RESTRICT w, int n) {
  for (int i = 0; i < n; ++i) dst[i] += g * w[i];
}

}  // namespace

void LinearBackward(const Matrix& x, const Matrix& w, const Matrix& dy,
                    Matrix& dx, Matrix& dw, std::span<float> dbias) {
  const int batch = x.rows();
  const int in = x.cols();
  const int out = w.rows();
  IAM_CHECK(w.cols() == in);
  IAM_CHECK(dy.rows() == batch && dy.cols() == out);
  IAM_CHECK(dw.rows() == out && dw.cols() == in);
  IAM_CHECK(dbias.empty() || static_cast<int>(dbias.size()) == out);
  dx.ResizeUninitialized(batch, in);
  dx.Zero();

  // Pass 1 — dx = dy * W. The nonzero gradients of each batch row (ReLU
  // leaves dy about half zeros) are staged four at a time, so each dx lane
  // is loaded and stored once per four gradient rows instead of once each.
  for (int b = 0; b < batch; ++b) {
    const float* dyb = dy.row(b);
    float* dxb = dx.row(b);
    float g[4];
    const float* wrows[4];
    int staged = 0;
    for (int o = 0; o < out; ++o) {
      if (dyb[o] == 0.0f) continue;
      g[staged] = dyb[o];
      wrows[staged] = w.row(o);
      if (++staged == 4) {
        Saxpy4(dxb, g, wrows, in);
        staged = 0;
      }
    }
    for (int s = 0; s < staged; ++s) Saxpy1(dxb, g[s], wrows[s], in);
  }

  // Pass 2 — dw += dy^T * x and dbias, output-major inside batch blocks: a
  // block of x rows stays in L1 while each dw row streams through once per
  // block. Per dw entry the contributions still arrive in ascending batch
  // order, matching the reference accumulation exactly.
  constexpr int kBatchBlock = 32;
  for (int b0 = 0; b0 < batch; b0 += kBatchBlock) {
    const int b1 = std::min(batch, b0 + kBatchBlock);
    for (int o = 0; o < out; ++o) {
      float* IAM_RESTRICT dwo = dw.row(o);
      for (int b = b0; b < b1; ++b) {
        const float g = dy.at(b, o);
        if (g == 0.0f) continue;
        const float* IAM_RESTRICT xb = x.row(b);
        for (int i = 0; i < in; ++i) dwo[i] += g * xb[i];
        if (!dbias.empty()) dbias[o] += g;
      }
    }
  }
}

}  // namespace iam::nn
