#ifndef IAM_NN_EVAL_WORKSPACE_H_
#define IAM_NN_EVAL_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"

namespace iam::nn {

// Per-caller scratch buffers for evaluating a feed-forward stack. Layers and
// models hold only immutable parameters; every activation produced during a
// forward pass lives here, owned by the caller. Two callers with two
// workspaces can therefore evaluate the same model concurrently, and the
// training loop can keep its activation caches alive across the backward
// pass without blocking inference.
//
// Buffers grow on demand and are reused across calls, so a long-lived
// workspace amortizes all allocation after the first batch.
struct EvalWorkspace {
  Matrix input;                 // encoded input batch [B, input_width]
  SparseRows sparse_input;      // sparse encoding of the batch (eval path)
  std::vector<Matrix> pre_act;  // pre-activation z_i per layer [B, width_i]
  std::vector<Matrix> act;      // post-activation a_i per layer [B, width_i]
  Matrix output;                // final layer output (logits) [B, out_width]

  // Transposed ([in, out]) copies of the owning model's layer weights and
  // their biases, in the layout its eval path consumes (ResMade: output
  // columns in degree-sorted order, DESIGN.md §10). The cache is keyed by
  // the model's weight version: models bump their version on every weight
  // mutation (TrainStep, Deserialize), and the model's eval entry points
  // rebuild this cache when `wt_version` disagrees. Versions are drawn from
  // one process-global counter, so a workspace carried across model
  // instances can never alias a stale cache.
  std::vector<Matrix> wt;
  std::vector<std::vector<float>> bias;
  uint64_t wt_version = 0;  // 0 == never filled

  // Per-layer transpose buffer of the training forward (nn::LinearForward).
  Matrix wt_scratch;
  // Row buffer of nn::SoftmaxRows.
  std::vector<double> softmax_scratch;

  // Ensures one pre/post activation slot per layer.
  void EnsureDepth(size_t num_layers) {
    if (pre_act.size() < num_layers) pre_act.resize(num_layers);
    if (act.size() < num_layers) act.resize(num_layers);
  }
};

}  // namespace iam::nn

#endif  // IAM_NN_EVAL_WORKSPACE_H_
