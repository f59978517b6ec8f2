#include "nn/kernels.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "nn/kernel_arms.h"
#include "obs/metrics.h"
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

// --- Tiled kernels, one template per kernel over the vector width. ---------
//
// Everything in this anonymous namespace is instruction-set neutral: it is
// compiled into the arms below (each a flattened entry point with its own
// target attribute), never called out of line.

namespace {

// kLanes floats as one value: GCC and Clang lower its elementwise arithmetic
// to vector registers lane by lane, so every lane rounds exactly as the
// scalar expression does. Spelling the tile in these types pins the
// register blocking instead of leaving it to the vectorizer's cost model,
// which spilled or mis-grouped the accumulators of the equivalent scalar
// loops. (One typedef per width: GCC drops a vector_size attribute whose
// size depends on a template parameter of an alias template.)
typedef float Floats4 __attribute__((vector_size(16)));
typedef float Floats8 __attribute__((vector_size(32)));
typedef float Floats16 __attribute__((vector_size(64)));
template <int kLanes>
using Lanes = std::conditional_t<
    kLanes == 4, Floats4, std::conditional_t<kLanes == 8, Floats8, Floats16>>;

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

// kRows batch rows × one strip of kVecs vectors of kLanes floats, holding
// the n outputs [o, o + n), n > kLanes * (kVecs - 1). The accumulators live
// in registers, and each lane sums its terms one after the other in list
// order — every weight row loaded once serves all kRows rows, yet nothing is
// reassociated relative to the reference kernel, whatever the lane count.
// Weights are loaded as whole vectors, so a short strip reads up to
// kLanes - 1 floats past output o + n - 1 (the Matrix slack backs them, see
// kernels.h); bias is read and y written only for the n valid lanes. Lanes
// are independent, so the lanes past n change nothing.
template <int kRows, int kVecs, int kLanes>
inline void KeptStrip(const float* IAM_RESTRICT xp, const int* kept, int nk,
                      const float* IAM_RESTRICT wt, size_t ldw,
                      const float* bias, float* const* yr, int o, int n) {
  using V = Lanes<kLanes>;
  static_assert(sizeof(V) == sizeof(float) * kLanes);
  // Partial copies go through `lanes`, so that no accumulator's address
  // escapes into a variable-length copy and all of them stay in registers.
  const size_t bytes = sizeof(float) * n;
  const bool whole = n == kVecs * kLanes;
  V lanes[kVecs] = {};
  if (bias != nullptr) std::memcpy(lanes, bias + o, bytes);
  V acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) acc[r][v] = lanes[v];
  }
  for (int j = 0; j < nk; ++j) {
    const float* wj = wt + static_cast<size_t>(kept[j]) * ldw + o;
    for (int v = 0; v < kVecs; ++v) {
      V w;
      std::memcpy(&w, wj + kLanes * v, sizeof(V));
      for (int r = 0; r < kRows; ++r) acc[r][v] += xp[r * nk + j] * w;
    }
  }
  for (int r = 0; r < kRows; ++r) {
    if (whole) {
      std::memcpy(yr[r] + o, acc[r], sizeof(acc[r]));
    } else {
      for (int v = 0; v < kVecs; ++v) lanes[v] = acc[r][v];
      std::memcpy(yr[r] + o, lanes, bytes);
    }
  }
}

// One packed row block across all outputs, written to columns
// [y_col, y_col + out) of y: strips of two kLanes vectors, the remainder
// (fewer than 2 * kLanes outputs) as one strip of one or two whole vectors,
// then the ReLU over the block's rows while they are still in L1.
template <int kRows, int kLanes>
void KeptRowBlock(const float* xp, std::span<const int> kept, const float* wt,
                  size_t ldw, int out, const float* bias, bool relu,
                  Matrix& y, int b0, int y_col) {
  float* yr[kRows];
  for (int r = 0; r < kRows; ++r) yr[r] = y.row(b0 + r) + y_col;
  const int nk = static_cast<int>(kept.size());
  int o = 0;
  for (; o + 2 * kLanes <= out; o += 2 * kLanes) {
    KeptStrip<kRows, 2, kLanes>(xp, kept.data(), nk, wt, ldw, bias, yr, o,
                                2 * kLanes);
  }
  const int rest = out - o;
  if (rest > kLanes) {
    KeptStrip<kRows, 2, kLanes>(xp, kept.data(), nk, wt, ldw, bias, yr, o,
                                rest);
  } else if (rest > 0) {
    KeptStrip<kRows, 1, kLanes>(xp, kept.data(), nk, wt, ldw, bias, yr, o,
                                rest);
  }
  if (relu) {
    for (int r = 0; r < kRows; ++r) {
      float* IAM_RESTRICT yo = yr[r];
      for (int k = 0; k < out; ++k) yo[k] = yo[k] > 0.0f ? yo[k] : 0.0f;
    }
  }
}

// Writes columns [y_col, y_col + out) of y, which the caller has shaped.
template <int kLanes>
void ForwardT(const Matrix& x, std::span<const int> kept, const float* wt,
              int ldw, int out, std::span<const float> bias, Matrix& y,
              int y_col, bool fuse_relu) {
  const int batch = x.rows();
  IAM_CHECK(out >= 0 && ldw >= out);
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == out);
  IAM_CHECK(y.rows() == batch && y_col >= 0 && y_col + out <= y.cols());
  for (const int i : kept) IAM_CHECK(i >= 0 && i < x.cols());
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();
  const size_t stride = static_cast<size_t>(ldw);

  // Gathered inputs of one 4-row block; packed once, reused by every strip.
  std::vector<float> xp(4 * kept.size());
  int b = 0;
  for (; b + 4 <= batch; b += 4) {
    PackRows<4>(x, b, kept, xp.data());
    KeptRowBlock<4, kLanes>(xp.data(), kept, wt, stride, out, bias_ptr,
                            fuse_relu, y, b, y_col);
  }
  for (; b < batch; ++b) {
    PackRows<1>(x, b, kept, xp.data());
    KeptRowBlock<1, kLanes>(xp.data(), kept, wt, stride, out, bias_ptr,
                            fuse_relu, y, b, y_col);
  }
}

// A sparse row is a one-row block whose packed inputs are its nonzero
// values and whose kept list is its lanes: the same strips, the same
// per-lane order (bias, then the nonzeros in increasing lane order). Writes
// columns [col0, col0 + out) of wt's product into the same columns of y,
// which the caller has shaped.
template <int kLanes>
void SparseForward(const SparseRows& x, const Matrix& wt, int col0, int out,
                   std::span<const float> bias, Matrix& y, bool fuse_relu) {
  const int in = wt.rows();
  IAM_CHECK(x.cols == in);
  IAM_CHECK(col0 >= 0 && out >= 0 && col0 + out <= wt.cols());
  IAM_CHECK(static_cast<int>(x.row_begin.size()) == x.rows + 1);
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == out);
  IAM_CHECK(y.rows() == x.rows && col0 + out <= y.cols());
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();
  const std::span<const int> lanes(x.index);

  for (int r = 0; r < x.rows; ++r) {
    const int begin = x.row_begin[r];
    const int nnz = x.row_begin[r + 1] - begin;
    const std::span<const int> kept = lanes.subspan(begin, nnz);
    for (const int lane : kept) IAM_CHECK(lane >= 0 && lane < in);
    KeptRowBlock<1, kLanes>(x.value.data() + begin, kept, wt.data() + col0,
                            static_cast<size_t>(wt.cols()), out, bias_ptr,
                            fuse_relu, y, r, col0);
  }
}

// Small-batch path over row-major weights: four output rows share each load
// of xb[i], giving four independent reduction chains without any transpose.
template <bool kRelu>
void ForwardSmall(const Matrix& x, const Matrix& w, const float* bias,
                  Matrix& y) {
  const int batch = x.rows();
  const int in = x.cols();
  const int out = w.rows();
  y.ResizeUninitialized(batch, out);

  for (int b = 0; b < batch; ++b) {
    const float* IAM_RESTRICT xb = x.row(b);
    float* yb = y.row(b);
    int o = 0;
    for (; o + 4 <= out; o += 4) {
      const float* IAM_RESTRICT w0 = w.row(o);
      const float* IAM_RESTRICT w1 = w.row(o + 1);
      const float* IAM_RESTRICT w2 = w.row(o + 2);
      const float* IAM_RESTRICT w3 = w.row(o + 3);
      float a0 = bias ? bias[o] : 0.0f;
      float a1 = bias ? bias[o + 1] : 0.0f;
      float a2 = bias ? bias[o + 2] : 0.0f;
      float a3 = bias ? bias[o + 3] : 0.0f;
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
      float acc = bias ? bias[o] : 0.0f;
      for (int i = 0; i < in; ++i) acc += xb[i] * wo[i];
      yb[o] = kRelu ? (acc > 0.0f ? acc : 0.0f) : acc;
    }
  }
}

// Below this batch size the transpose is not worth amortizing and the
// row-major small-batch tile wins.
constexpr int kTransposeBatchThreshold = 8;

template <int kLanes, bool kRelu>
void DenseForward(const Matrix& x, const Matrix& w,
                  std::span<const float> bias, Matrix& y,
                  Matrix& wt_scratch) {
  IAM_CHECK(w.cols() == x.cols());
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == w.rows());
  if (x.rows() >= kTransposeBatchThreshold) {
    // Caller-owned transpose scratch, reused across calls: each call pays
    // one tiled out*in copy before the product.
    TransposeInto(w, wt_scratch);
    std::vector<int> all(static_cast<size_t>(x.cols()));
    for (int i = 0; i < x.cols(); ++i) all[i] = i;
    y.ResizeUninitialized(x.rows(), w.rows());
    ForwardT<kLanes>(x, all, wt_scratch.data(), wt_scratch.cols(), w.rows(),
                     bias, y, /*y_col=*/0, kRelu);
  } else {
    ForwardSmall<kRelu>(x, w, bias.empty() ? nullptr : bias.data(), y);
  }
}

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

// The backward loops are elementwise across the input lanes, so the
// vectorizer widens them to the arm's registers without reordering any
// lane's additions.
void Backward(const Matrix& x, const Matrix& w, const Matrix& dy, Matrix& dx,
              Matrix& dw, std::span<float> dbias) {
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

// --- The arms. ------------------------------------------------------------
//
// An arm instantiates the templates above at `lanes` floats per vector
// inside seven entry points that carry the attributes given after the lane
// count. gnu::flatten inlines every helper into its entry point, so all of
// an arm's code is compiled for the arm's instruction set and nothing
// ISA-specific exists outside a function with a target attribute; no
// translation unit gets ISA flags, so the binary runs on any x86-64.
// iam_nn builds with -ffp-contract=off, so the FMA that the AVX-512 target
// implies never fuses a multiply into an add: every arm rounds each product
// and each sum exactly as the reference kernels do.
#define IAM_NN_DEFINE_ARM(arm, isa_name, lanes, ...)                          \
  __VA_ARGS__ void arm##LinearForward(const Matrix& x, const Matrix& w,       \
                                      std::span<const float> bias, Matrix& y, \
                                      Matrix& wt_scratch) {                   \
    DenseForward<lanes, false>(x, w, bias, y, wt_scratch);                    \
  }                                                                           \
  __VA_ARGS__ void arm##LinearReluForward(                                    \
      const Matrix& x, const Matrix& w, std::span<const float> bias,          \
      Matrix& y, Matrix& wt_scratch) {                                        \
    DenseForward<lanes, true>(x, w, bias, y, wt_scratch);                     \
  }                                                                           \
  __VA_ARGS__ void arm##LinearForwardT(                                       \
      const Matrix& x, std::span<const int> kept, const float* wt, int ldw,   \
      int out, std::span<const float> bias, Matrix& y, bool fuse_relu) {      \
    y.ResizeUninitialized(x.rows(), out);                                     \
    ForwardT<lanes>(x, kept, wt, ldw, out, bias, y, 0, fuse_relu);            \
  }                                                                           \
  __VA_ARGS__ void arm##LinearForwardTInto(                                   \
      const Matrix& x, std::span<const int> kept, const float* wt, int ldw,   \
      int out, std::span<const float> bias, Matrix& y, int y_col,             \
      bool fuse_relu) {                                                       \
    ForwardT<lanes>(x, kept, wt, ldw, out, bias, y, y_col, fuse_relu);        \
  }                                                                           \
  __VA_ARGS__ void arm##SparseLinearForward(                                  \
      const SparseRows& x, const Matrix& wt, int out,                         \
      std::span<const float> bias, Matrix& y, bool fuse_relu) {               \
    y.ResizeUninitialized(x.rows, out);                                       \
    SparseForward<lanes>(x, wt, 0, out, bias, y, fuse_relu);                  \
  }                                                                           \
  __VA_ARGS__ void arm##SparseLinearForwardInto(                              \
      const SparseRows& x, const Matrix& wt, int col0, int out,               \
      std::span<const float> bias, Matrix& y, bool fuse_relu) {               \
    SparseForward<lanes>(x, wt, col0, out, bias, y, fuse_relu);               \
  }                                                                           \
  __VA_ARGS__ void arm##LinearBackward(const Matrix& x, const Matrix& w,      \
                                       const Matrix& dy, Matrix& dx,          \
                                       Matrix& dw, std::span<float> dbias) {  \
    Backward(x, w, dy, dx, dw, dbias);                                        \
  }                                                                           \
  constexpr internal::KernelArm arm = {                                       \
      isa_name,                  &arm##LinearForward,                         \
      &arm##LinearReluForward,   &arm##LinearForwardT,                        \
      &arm##SparseLinearForward, &arm##LinearBackward,                        \
      &arm##LinearForwardTInto,  &arm##SparseLinearForwardInto};

#if defined(__x86_64__) || defined(__i386__)
// 4 rows × 2 × 16 = 128 accumulator lanes in 8 of the 32 zmm registers.
IAM_NN_DEFINE_ARM(kAvx512, "avx512", 16,
                  [[gnu::target("avx512f"), gnu::flatten]])
// 4 rows × 2 × 8 lanes: 8 of the 16 ymm registers.
IAM_NN_DEFINE_ARM(kAvx2, "avx2", 8, [[gnu::target("avx2"), gnu::flatten]])
IAM_NN_DEFINE_ARM(kPortable, "sse", 4, [[gnu::flatten]])
// Widest first: ChosenArm() takes the first arm the CPU runs.
constexpr const internal::KernelArm* kArms[] = {&kAvx512, &kAvx2, &kPortable};
#else
IAM_NN_DEFINE_ARM(kPortable, "portable", 4, [[gnu::flatten]])
constexpr const internal::KernelArm* kArms[] = {&kPortable};
#endif

#undef IAM_NN_DEFINE_ARM

bool CpuRuns(const internal::KernelArm& arm) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (&arm == &kAvx512) return __builtin_cpu_supports("avx512f");
  if (&arm == &kAvx2) return __builtin_cpu_supports("avx2");
#endif
  return &arm == &kPortable;
}

}  // namespace

namespace internal {

const KernelArm* FindArm(std::string_view isa) {
  for (const KernelArm* arm : kArms) {
    if (isa == arm->isa) return CpuRuns(*arm) ? arm : nullptr;
  }
  return nullptr;
}

const KernelArm& ChosenArm() {
  static const KernelArm& chosen = []() -> const KernelArm& {
    const KernelArm* pick = &kPortable;
    for (const KernelArm* arm : kArms) {
      if (CpuRuns(*arm)) {
        pick = arm;
        break;
      }
    }
    obs::MetricRegistry::Global()
        .GetGauge("iam_nn_kernel_isa", "isa", pick->isa)
        .Set(1.0);
    return *pick;
  }();
  return chosen;
}

}  // namespace internal

// --- Public entry points: the chosen arm. ---------------------------------

void LinearForward(const Matrix& x, const Matrix& w,
                   std::span<const float> bias, Matrix& y,
                   Matrix& wt_scratch) {
  internal::ChosenArm().linear_forward(x, w, bias, y, wt_scratch);
}

void LinearReluForward(const Matrix& x, const Matrix& w,
                       std::span<const float> bias, Matrix& y,
                       Matrix& wt_scratch) {
  internal::ChosenArm().linear_relu_forward(x, w, bias, y, wt_scratch);
}

void LinearForwardT(const Matrix& x, std::span<const int> kept,
                    const float* wt, int ldw, int out,
                    std::span<const float> bias, Matrix& y, bool fuse_relu) {
  internal::ChosenArm().linear_forward_t(x, kept, wt, ldw, out, bias, y,
                                         fuse_relu);
}

void LinearForwardTInto(const Matrix& x, std::span<const int> kept,
                        const float* wt, int ldw, int out,
                        std::span<const float> bias, Matrix& y, int y_col,
                        bool fuse_relu) {
  internal::ChosenArm().linear_forward_t_into(x, kept, wt, ldw, out, bias, y,
                                              y_col, fuse_relu);
}

void SparseLinearForward(const SparseRows& x, const Matrix& wt, int out,
                         std::span<const float> bias, Matrix& y,
                         bool fuse_relu) {
  internal::ChosenArm().sparse_linear_forward(x, wt, out, bias, y, fuse_relu);
}

void SparseLinearForwardInto(const SparseRows& x, const Matrix& wt, int col0,
                             int out, std::span<const float> bias, Matrix& y,
                             bool fuse_relu) {
  internal::ChosenArm().sparse_linear_forward_into(x, wt, col0, out, bias, y,
                                                   fuse_relu);
}

void LinearBackward(const Matrix& x, const Matrix& w, const Matrix& dy,
                    Matrix& dx, Matrix& dw, std::span<float> dbias) {
  internal::ChosenArm().linear_backward(x, w, dy, dx, dw, dbias);
}

// --- Untiled helpers. -----------------------------------------------------

void SoftmaxRows(const Matrix& logits, Matrix& probs,
                 std::vector<double>& scratch) {
  const int rows = logits.rows();
  const int cols = logits.cols();
  IAM_CHECK(&logits != &probs);
  probs.ResizeUninitialized(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const float* lrow = logits.row(r);
    scratch.assign(lrow, lrow + cols);
    SoftmaxInPlace(scratch);
    float* prow = probs.row(r);
    for (int j = 0; j < cols; ++j) prow[j] = static_cast<float>(scratch[j]);
  }
}

// In 32×32 tiles written one destination row at a time: a row-by-row copy
// stores with a stride of `rows` floats, which for 128 or 256 rows hits few
// cache sets and ran several times slower.
void TransposeInto(const Matrix& src, Matrix& dst) {
  constexpr int kTile = 32;
  const int rows = src.rows();
  const int cols = src.cols();
  dst.ResizeUninitialized(cols, rows);
  const float* IAM_RESTRICT s = src.data();
  float* IAM_RESTRICT d = dst.data();
  for (int r0 = 0; r0 < rows; r0 += kTile) {
    const int r1 = std::min(rows, r0 + kTile);
    for (int c0 = 0; c0 < cols; c0 += kTile) {
      const int c1 = std::min(cols, c0 + kTile);
      for (int c = c0; c < c1; ++c) {
        float* drow = d + static_cast<size_t>(c) * rows;
        for (int r = r0; r < r1; ++r) {
          drow[r] = s[static_cast<size_t>(r) * cols + c];
        }
      }
    }
  }
}

}  // namespace iam::nn
