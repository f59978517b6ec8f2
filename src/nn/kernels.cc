#include "nn/kernels.h"

#include <algorithm>
#include <cstring>
#include <string_view>

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
struct LaneType;
template <>
struct LaneType<1> {
  using type = float;
};
template <>
struct LaneType<4> {
  using type = Floats4;
};
template <>
struct LaneType<8> {
  using type = Floats8;
};
template <>
struct LaneType<16> {
  using type = Floats16;
};
template <int kLanes>
using Lanes = typename LaneType<kLanes>::type;

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

// kRows batch rows × one strip of kVecs values of kLanes floats, starting
// at output o. The accumulators live in registers, and each lane sums its
// terms one after the other in list order — every weight row loaded once
// serves all kRows rows, yet nothing is reassociated relative to the
// reference kernel, whatever the lane count.
template <int kRows, int kVecs, int kLanes>
inline void KeptStrip(const float* IAM_RESTRICT xp, const int* kept, int nk,
                      const float* IAM_RESTRICT wt, size_t ldw,
                      const float* bias, float* const* yr, int o) {
  using V = Lanes<kLanes>;
  static_assert(sizeof(V) == sizeof(float) * kLanes);
  V acc[kRows][kVecs];
  for (int v = 0; v < kVecs; ++v) {
    V init{};
    if (bias != nullptr) std::memcpy(&init, bias + o + kLanes * v, sizeof(V));
    for (int r = 0; r < kRows; ++r) acc[r][v] = init;
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
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(yr[r] + o + kLanes * v, &acc[r][v], sizeof(V));
    }
  }
}

// The outputs [o, out) left over by the two-vector strips, fewer than
// 2 * kLanes: one strip of each narrower width that fits, halving down to
// four lanes, then one output at a time. A 30-logit window on the 16-lane
// arm, say, runs as 16 + 8 + 4 + 1 + 1.
template <int kRows, int kLanes>
inline void KeptTail(const float* xp, const int* kept, int nk, const float* wt,
                     size_t ldw, const float* bias, float* const* yr, int o,
                     int out) {
  if constexpr (kLanes == 1) {
    for (; o < out; ++o) {
      KeptStrip<kRows, 1, 1>(xp, kept, nk, wt, ldw, bias, yr, o);
    }
  } else {
    if (o + kLanes <= out) {
      KeptStrip<kRows, 1, kLanes>(xp, kept, nk, wt, ldw, bias, yr, o);
      o += kLanes;
    }
    KeptTail<kRows, kLanes == 4 ? 1 : kLanes / 2>(xp, kept, nk, wt, ldw, bias,
                                                  yr, o, out);
  }
}

// One packed row block across all outputs: strips of two kLanes vectors,
// then the narrower remainders, then the ReLU over the block's rows while
// they are still in L1.
template <int kRows, int kLanes>
void KeptRowBlock(const float* xp, std::span<const int> kept, const float* wt,
                  size_t ldw, int out, const float* bias, bool relu,
                  Matrix& y, int b0) {
  float* yr[kRows];
  for (int r = 0; r < kRows; ++r) yr[r] = y.row(b0 + r);
  const int nk = static_cast<int>(kept.size());
  int o = 0;
  for (; o + 2 * kLanes <= out; o += 2 * kLanes) {
    KeptStrip<kRows, 2, kLanes>(xp, kept.data(), nk, wt, ldw, bias, yr, o);
  }
  KeptTail<kRows, kLanes>(xp, kept.data(), nk, wt, ldw, bias, yr, o, out);
  if (relu) {
    for (int r = 0; r < kRows; ++r) {
      float* IAM_RESTRICT yo = yr[r];
      for (int k = 0; k < out; ++k) yo[k] = yo[k] > 0.0f ? yo[k] : 0.0f;
    }
  }
}

template <int kLanes>
void ForwardT(const Matrix& x, std::span<const int> kept, const float* wt,
              int ldw, int out, std::span<const float> bias, Matrix& y,
              bool fuse_relu) {
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
    KeptRowBlock<4, kLanes>(xp.data(), kept, wt, stride, out, bias_ptr,
                            fuse_relu, y, b);
  }
  for (; b < batch; ++b) {
    PackRows<1>(x, b, kept, xp.data());
    KeptRowBlock<1, kLanes>(xp.data(), kept, wt, stride, out, bias_ptr,
                            fuse_relu, y, b);
  }
}

// A sparse row is a one-row block whose packed inputs are its nonzero
// values and whose kept list is its lanes: the same strips, the same
// per-lane order (bias, then the nonzeros in increasing lane order).
template <int kLanes>
void SparseForward(const SparseRows& x, const Matrix& wt, int out,
                   std::span<const float> bias, Matrix& y, bool fuse_relu) {
  const int in = wt.rows();
  IAM_CHECK(x.cols == in);
  IAM_CHECK(out >= 0 && out <= wt.cols());
  IAM_CHECK(static_cast<int>(x.row_begin.size()) == x.rows + 1);
  IAM_CHECK(bias.empty() || static_cast<int>(bias.size()) == out);
  y.ResizeUninitialized(x.rows, out);
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();
  const std::span<const int> lanes(x.index);

  for (int r = 0; r < x.rows; ++r) {
    const int begin = x.row_begin[r];
    const int nnz = x.row_begin[r + 1] - begin;
    const std::span<const int> kept = lanes.subspan(begin, nnz);
    for (const int lane : kept) IAM_CHECK(lane >= 0 && lane < in);
    KeptRowBlock<1, kLanes>(x.value.data() + begin, kept, wt.data(),
                            static_cast<size_t>(wt.cols()), out, bias_ptr,
                            fuse_relu, y, r);
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
    // Caller-owned transpose scratch: reused across calls, so steady-state
    // batched inference pays one out*in copy per call (<1% of the GEMM).
    TransposeInto(w, wt_scratch);
    std::vector<int> all(static_cast<size_t>(x.cols()));
    for (int i = 0; i < x.cols(); ++i) all[i] = i;
    ForwardT<kLanes>(x, all, wt_scratch.data(), wt_scratch.cols(), w.rows(),
                     bias, y, kRelu);
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
// inside five entry points that carry the attributes given after the lane
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
    ForwardT<lanes>(x, kept, wt, ldw, out, bias, y, fuse_relu);               \
  }                                                                           \
  __VA_ARGS__ void arm##SparseLinearForward(                                  \
      const SparseRows& x, const Matrix& wt, int out,                         \
      std::span<const float> bias, Matrix& y, bool fuse_relu) {               \
    SparseForward<lanes>(x, wt, out, bias, y, fuse_relu);                     \
  }                                                                           \
  __VA_ARGS__ void arm##LinearBackward(const Matrix& x, const Matrix& w,      \
                                       const Matrix& dy, Matrix& dx,          \
                                       Matrix& dw, std::span<float> dbias) {  \
    Backward(x, w, dy, dx, dw, dbias);                                        \
  }                                                                           \
  constexpr internal::KernelArm arm = {                                       \
      isa_name,                  &arm##LinearForward,                         \
      &arm##LinearReluForward,   &arm##LinearForwardT,                        \
      &arm##SparseLinearForward, &arm##LinearBackward};

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

void SparseLinearForward(const SparseRows& x, const Matrix& wt, int out,
                         std::span<const float> bias, Matrix& y,
                         bool fuse_relu) {
  internal::ChosenArm().sparse_linear_forward(x, wt, out, bias, y, fuse_relu);
}

void LinearBackward(const Matrix& x, const Matrix& w, const Matrix& dy,
                    Matrix& dx, Matrix& dw, std::span<float> dbias) {
  internal::ChosenArm().linear_backward(x, w, dy, dx, dw, dbias);
}

// --- Untiled helpers. -----------------------------------------------------

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

}  // namespace iam::nn
