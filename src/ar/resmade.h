#ifndef IAM_AR_RESMADE_H_
#define IAM_AR_RESMADE_H_

#include <atomic>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "nn/adam.h"
#include "nn/eval_workspace.h"
#include "util/status.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/random.h"

namespace iam::ar {

// Non-owning view of a row-major encoded batch: row r is the num_columns()
// ints starting at data + r * stride (stride >= num_columns lets callers
// point into a wider matrix without gathering into vector<vector<int>>
// first). This is the input shape of the sampler's per-query conditionals
// (DESIGN.md §14).
struct EncodedView {
  const int* data = nullptr;
  int rows = 0;
  int stride = 0;
};

// Configuration of the ResMADE autoregressive density model. Defaults follow
// the paper (Section 6.1.2): four hidden layers of 256-128-128-256 units,
// residual connections between equal-width layers, wildcard-skipping inputs.
struct ResMadeConfig {
  std::vector<int> hidden_sizes = {256, 128, 128, 256};
  bool residual = true;
  // Per-column probability of replacing the input value with the wildcard
  // token during training (Naru's wildcard skipping).
  double wildcard_prob = 0.25;
  // Columns whose (domain size + 1) exceeds this threshold are fed through a
  // learned embedding instead of a one-hot block.
  int one_hot_max_domain = 96;
  int embedding_dim = 32;
};

// MADE (Germain et al.) with residual connections, specialized for tabular
// autoregressive likelihoods: given encoded tuples (one integer per column),
// a single forward pass produces, for every column i, the logits of
// P(A_i | A_1..A_{i-1}) under the left-to-right column order.
//
// All masks use deterministic cyclic hidden degrees, identical across
// equal-width layers, so residual additions preserve the autoregressive
// property.
//
// Threading model: after construction (or Deserialize), the parameters are
// mutated only by TrainStep. Every evaluation entry point is const and writes
// its scratch into a caller-supplied Context, so any number of threads may
// call ConditionalDistribution / LogProb concurrently on one shared model as
// long as each thread uses its own Context. TrainStep keeps a private
// training context and must not run concurrently with evaluation.
class ResMade {
 public:
  // Per-caller evaluation scratch: activation buffers plus the encoded-batch
  // cache the training step needs for its embedding backward pass. A Context
  // starts empty, grows on first use, and is reusable across calls; it holds
  // no model state, so contexts are freely created per thread.
  struct Context {
    nn::EvalWorkspace ws;
    // Wildcard-masked encoded batch (training only; embedding backward).
    std::vector<std::vector<int>> encoded;
    // The carry: after an eval call for column carry_col >= 1 on carry_rows
    // rows, ws.act holds every row's hidden units of degree <= carry_col,
    // computed with the weights of carry_version. The next call may start
    // from them (ConditionalDistribution's parent_col).
    int carry_col = 0;
    int carry_rows = 0;
    uint64_t carry_version = 0;
  };

  ResMade(std::vector<int> domain_sizes, ResMadeConfig config, uint64_t seed);

  ResMade(const ResMade&) = delete;
  ResMade& operator=(const ResMade&) = delete;

  int num_columns() const { return static_cast<int>(domains_.size()); }
  int domain_size(int col) const { return domains_[col]; }
  // The wildcard token is one past the last real value of the column.
  int wildcard_token(int col) const { return domains_[col]; }

  // Registers every trainable parameter with the optimizer.
  void RegisterParameters(nn::Adam& adam);

  // One SGD step on a mini-batch of encoded tuples. Wildcard masking is
  // applied internally with `rng`. Returns the mean cross-entropy (nats per
  // tuple). The caller's optimizer must have this model's parameters
  // registered; gradients are zeroed at entry and the step is applied.
  // Uses the model's private training context — do not call concurrently
  // with other TrainStep or evaluation calls.
  double TrainStep(const std::vector<std::vector<int>>& batch, nn::Adam& adam,
                   Rng& rng);

  // Evaluates the conditional distribution of `col` for each input row.
  // inputs[r][c] must be a valid value or the wildcard token; only columns
  // before `col` influence the result. Writes probs as [batch, D_col].
  // Reentrant: concurrent callers must pass distinct contexts.
  void ConditionalDistribution(const std::vector<std::vector<int>>& inputs,
                               int col, nn::Matrix& probs,
                               Context& ctx) const;
  // Convenience overload with a throwaway context (tests, examples).
  void ConditionalDistribution(const std::vector<std::vector<int>>& inputs,
                               int col, nn::Matrix& probs) const;
  // Overload over a flat row-major view that carries hidden units from the
  // previous call on `ctx` (DESIGN.md §10). Hidden units of degree d read
  // only columns < d, so a row whose columns < parent_col equal those of
  // row parent_of[r] of the previous call — which must have been made on
  // `ctx` for column parent_col, with these weights — shares its units of
  // degree <= parent_col. They are copied; only the units of degree in
  // (parent_col, col] are computed. parent_of must be non-decreasing.
  // parent_col = 0 carries nothing and evaluates every unit (parent_of is
  // then ignored); otherwise 1 <= parent_col < col. The result is bitwise
  // that of the full evaluation: a carried unit's sum differs from it only
  // by exact-zero masked terms, and every kernel processes rows
  // independently, so a row's result is the same in any batch.
  void ConditionalDistribution(EncodedView inputs, int col, int parent_col,
                               std::span<const int> parent_of,
                               nn::Matrix& probs, Context& ctx) const;

  // log \hat P(tuple) = sum_i log \hat P(t_i | t_<i). For tests/examples.
  double LogProb(const std::vector<int>& tuple, Context& ctx) const;
  double LogProb(const std::vector<int>& tuple) const;

  size_t ParameterCount() const;
  size_t SizeBytes() const { return ParameterCount() * sizeof(float); }

  // Model persistence: architecture + parameter values (optimizer moments
  // are not preserved; reload for inference or fine-tuning from scratch).
  void Serialize(std::ostream& out) const;
  static Result<std::unique_ptr<ResMade>> Deserialize(std::istream& in);

 private:
  struct ColumnEncoding {
    bool one_hot;
    int width;        // block width in the input vector
    int input_offset; // starting index of the block
    int logit_offset; // starting index of the logits block in the output
  };

  // Builds the input matrix [batch, input_width_] from encoded values.
  void EncodeInput(const std::vector<std::vector<int>>& batch,
                   nn::Matrix& x) const;
  // Sparse encoding of columns [0, cols) of the same batch: per row, the
  // (lane, value) nonzeros — one entry per one-hot column plus embedding_dim
  // entries per embedded column, i.e. typically ~5% of input_width_. Lane
  // indices are strictly increasing within a row. Column m's conditional
  // reads only the lanes of columns < m, so it encodes cols = m.
  void EncodeInputSparse(const std::vector<std::vector<int>>& batch, int cols,
                         nn::SparseRows& sx) const;
  void EncodeInputSparse(EncodedView batch, int cols,
                         nn::SparseRows& sx) const;
  // Appends columns [0, cols) of one encoded row to `sx` — the shared body
  // of both EncodeInputSparse overloads.
  void EncodeRowSparse(const int* row, int cols, nn::SparseRows& sx) const;

  // Post-encode tail of ConditionalDistribution: the degree-truncated hidden
  // stack over ctx.ws.sparse_input (which holds columns < col), `col`'s
  // logits slice, row-wise softmax into probs.
  void ConditionalDistributionImpl(int col, int parent_col,
                                   std::span<const int> parent_of,
                                   nn::Matrix& probs, Context& ctx) const;

  // Rebuilds the workspace's transposed-weight cache (hidden layers in the
  // degree-sorted layout, plus the output layer) when it does not match
  // weight_version_. Cheap when fresh.
  void RefreshTransposedWeights(nn::EvalWorkspace& ws) const;
  // Called after every weight mutation (construction, TrainStep,
  // Deserialize); draws from a process-global counter so stale caches are
  // detected even across model instances.
  void BumpWeightVersion();

  // Training forward pass through the hidden stack and output layer over
  // the dense input, in original unit order, writing every activation into
  // `ws` (pre-activations retained for the backward pass).
  void Forward(const nn::Matrix& x, nn::EvalWorkspace& ws) const;
  // Eval-path hidden stack for target column `col` >= 1 over
  // ctx.ws.sparse_input: the units of degree <= parent_col carried from the
  // previous call (see ConditionalDistribution), the units of degree
  // (parent_col, col] computed, each layer's output in degree-sorted order,
  // fused Linear+ReLU, no pre-activations. Returns the last layer's
  // activations (owned by ctx.ws), of which the kept[col] units are valid.
  const nn::Matrix& ForwardHiddenEval(int col, int parent_col,
                                      std::span<const int> parent_of,
                                      Context& ctx) const;

  std::vector<int> domains_;
  ResMadeConfig config_;
  Rng init_rng_;

  std::vector<ColumnEncoding> encodings_;
  int input_width_ = 0;
  int output_width_ = 0;

  // Embedding tables; empty Parameter for one-hot columns.
  std::vector<nn::Parameter> embeddings_;  // [D_c + 1, embedding_dim]

  std::vector<nn::MaskedLinear> hidden_;
  std::vector<bool> residual_flags_;  // hidden_[i] adds its input when true
  nn::MaskedLinear output_;

  // Degree plan of the eval path, one entry per hidden layer, built at
  // construction (DESIGN.md §10). Column m's logits read only hidden units
  // of degree <= m, and those read only inputs of degree <= m; every other
  // term is an exact-zero masked weight, so the eval path skips it.
  struct LayerPlan {
    // order[p]: original index of the unit stored at activation position p
    // (units stably sorted by degree, so each kept set is a prefix).
    std::vector<int> order;
    // kept[m]: activation positions of the units of degree <= m, listed in
    // ascending original unit index — the order the next layer sums them
    // in, as the dense product would. kept[m].size() is the kept prefix.
    std::vector<std::vector<int>> kept;
  };
  std::vector<LayerPlan> plan_;

  // Monotone token identifying the current weight values; workspaces compare
  // it against their transposed-weight caches. See RefreshTransposedWeights.
  // Atomic because eval threads load it on every forward pass while another
  // thread may be training a *different* model (all versions come from one
  // process-global counter); release/acquire ordering makes the token itself
  // race-free. Weight *values* are still protected only by the documented
  // contract: TrainStep must not overlap evaluation on the same model.
  std::atomic<uint64_t> weight_version_{0};

  // Private scratch for TrainStep (activation caches for the backward pass).
  Context train_ctx_;

  // Test-only access to the parameters, for the dense reference oracle.
  friend struct ResMadeTestPeer;
};

}  // namespace iam::ar

#endif  // IAM_AR_RESMADE_H_
