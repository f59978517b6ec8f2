#ifndef IAM_NN_KERNELS_H_
#define IAM_NN_KERNELS_H_

#include <span>
#include <vector>

#include "nn/matrix.h"

// Dense and sparse linear kernels — the numeric substrate under every ResMADE
// conditional, training step, and progressive-sampling estimate.
//
// Two implementations coexist:
//  - *Ref kernels: the naive triple-loop originals, retained as the golden
//    semantics. Slow, obviously correct, used by the fuzz tests.
//  - the tiled kernels below: register-blocked over output strips and the
//    batch. Every output accumulator sums its reduction in the same index
//    order as the reference, so no floating-point reassociation happens and
//    the fast kernels are bit-compatible with the reference.
// The tiled kernels exist in three arms — AVX-512F, AVX2 and portable SSE —
// compiled from one source through per-function target attributes, and the
// widest arm the CPU supports is chosen from CPUID on the first call (no
// build flag or setting picks it; the gauge iam_nn_kernel_isa reports it).
// The arms differ only in vector width; none fuses a multiply into an add
// (iam_nn builds with -ffp-contract=off), so every arm gives the same bits
// on every host. See DESIGN.md §10 and nn/kernel_arms.h.
namespace iam::nn {

// --- Reference kernels (golden semantics). --------------------------------

// y = x * W^T + bias_broadcast. x: [B, in], w: [out, in], bias: [out] or
// empty, y: [B, out].
void LinearForwardRef(const Matrix& x, const Matrix& w,
                      std::span<const float> bias, Matrix& y);

// Backward of LinearForward:
//   dx = dy * W                       (written, not accumulated)
//   dw += dy^T * x                    (accumulated)
//   dbias += column sums of dy        (accumulated)
// Rows of dy that are exactly zero contribute nothing (and are skipped).
void LinearBackwardRef(const Matrix& x, const Matrix& w, const Matrix& dy,
                       Matrix& dx, Matrix& dw, std::span<float> dbias);

// --- Tiled fast kernels. ---------------------------------------------------

// Drop-in replacement for LinearForwardRef. Large batches transpose w into
// `wt_scratch` and run the blocked transposed kernel (LinearForwardT) over
// every input; small batches use a row-major tile that amortizes the x
// loads over several output rows. `wt_scratch` is a caller-owned transpose
// buffer (grown on demand, reused across calls); the kernel layer itself
// keeps no mutable state (the arm is chosen once, under a thread-safe static
// initializer), so thread-safety is entirely the caller's scratch ownership
// — see DESIGN.md §11.
void LinearForward(const Matrix& x, const Matrix& w,
                   std::span<const float> bias, Matrix& y, Matrix& wt_scratch);

// Fused y = relu(x * W^T + bias): one pass, no separate pre-activation
// matrix. Bit-compatible with LinearForwardRef followed by a ReLU.
void LinearReluForward(const Matrix& x, const Matrix& w,
                       std::span<const float> bias, Matrix& y,
                       Matrix& wt_scratch);

// The blocked kernel over transposed weights: for o in [0, out),
//   y[b][o] = bias[o] + sum over j of x[b][kept[j]] * wt[kept[j] * ldw + o],
// the terms added in list order (then the ReLU when `fuse_relu`). `kept`
// names the input lanes to read — the full list 0..in-1 is the dense
// product, a sublist skips inputs whose weights are known to be zero — and
// `wt` may point into a wider matrix to evaluate a window of its columns.
// Tiles are 4 batch rows × two vectors of the arm's width (8, 16 or 32
// outputs), with narrower and scalar remainders; the gathered x of each row
// block is packed once and shared by every strip.
// Rows are computed independently, so a row's output does not depend on the
// batch it rides in. bias must have exactly `out` entries or be empty.
void LinearForwardT(const Matrix& x, std::span<const int> kept,
                    const float* wt, int ldw, int out,
                    std::span<const float> bias, Matrix& y, bool fuse_relu);

// dst = src^T; dst is resized to [src.cols, src.rows].
void TransposeInto(const Matrix& src, Matrix& dst);

// probs.row(r) = softmax(logits.row(r)) for every batch row, computed per
// row in double precision with the max subtracted (exactly the scalar
// SoftmaxInPlace recipe, in ascending index order), then narrowed to float.
// Rows are independent, so results are bitwise invariant to how a batch is
// split — the property the pooled cross-query sampler's GEMM slicing and
// prefix dedup rely on (DESIGN.md §14). probs is resized to logits' shape;
// logits and probs must not alias.
void SoftmaxRows(const Matrix& logits, Matrix& probs);

// --- Sparse input rows. ----------------------------------------------------

// CSR-style batch of sparse rows: ResMade::EncodeInput emits one entry per
// nonzero input lane (one-hot hits and embedding values), which is typically
// ~5% of the encoded width. Indices within a row are strictly increasing, so
// kernels consuming SparseRows accumulate in the same index order as a dense
// kernel would over the nonzero subset.
struct SparseRows {
  int rows = 0;
  int cols = 0;                // dense width the rows are a view of
  std::vector<int> index;      // flattened nonzero lane indices
  std::vector<float> value;    // matching values
  std::vector<int> row_begin;  // size rows + 1; row r spans
                               // [row_begin[r], row_begin[r + 1])

  void Reset(int dense_cols) {
    rows = 0;
    cols = dense_cols;
    index.clear();
    value.clear();
    row_begin.assign(1, 0);
  }
  void Push(int i, float v) {
    index.push_back(i);
    value.push_back(v);
  }
  void EndRow() {
    ++rows;
    row_begin.push_back(static_cast<int>(index.size()));
  }
};

// y_b = bias + sum_nz x[i] * wt_row(i) over transposed weights wt: [in, *],
// for the first `out` columns of wt; optionally fuses the ReLU. Skipping the
// zero input lanes is bitwise equivalent to the dense kernel because adding
// x[i] * w == 0 never changes a finite accumulator (the lone exception, an
// accumulator that is exactly -0.0f, cannot arise from the encodings we feed
// this kernel). bias must have exactly `out` entries or be empty.
void SparseLinearForward(const SparseRows& x, const Matrix& wt, int out,
                         std::span<const float> bias, Matrix& y,
                         bool fuse_relu);

// Drop-in replacement for LinearBackwardRef: dx is computed per batch row
// with the nonzero dy entries gathered and applied four at a time (one load
// and store of each dx lane per four gradient rows); dw/dbias are computed
// output-major so each dw row stays cache-resident across the batch. All
// per-element accumulation orders match the reference, and rows with
// dy == 0 are skipped exactly as the reference skips them.
void LinearBackward(const Matrix& x, const Matrix& w, const Matrix& dy,
                    Matrix& dx, Matrix& dw, std::span<float> dbias);

}  // namespace iam::nn

#endif  // IAM_NN_KERNELS_H_
