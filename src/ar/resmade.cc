#include "ar/resmade.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <sstream>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math_util.h"
#include "util/serialize.h"
#include "util/stopwatch.h"

namespace iam::ar {
namespace {

// Training and eval-cache instrumentation (DESIGN.md §12). The cache
// counters sit on the ConditionalDistribution hot path: one shard-local
// relaxed add per forward pass, invisible next to the matmuls.
struct ArMetrics {
  obs::Counter& train_steps;
  obs::Counter& train_rows;
  obs::Counter& wtcache_hits;
  obs::Counter& wtcache_misses;
  obs::Gauge& train_loss;
  obs::Gauge& grad_norm;
  obs::Histogram& step_seconds;

  static ArMetrics& Get() {
    static ArMetrics metrics = [] {
      obs::MetricRegistry& reg = obs::MetricRegistry::Global();
      return ArMetrics{
          reg.GetCounter("iam_ar_train_steps_total"),
          reg.GetCounter("iam_ar_train_rows_total"),
          reg.GetCounter("iam_nn_wtcache_hits_total"),
          reg.GetCounter("iam_nn_wtcache_misses_total"),
          reg.GetGauge("iam_ar_train_loss"),
          reg.GetGauge("iam_ar_grad_norm"),
          reg.GetHistogram("iam_ar_train_step_seconds", obs::LatencyBounds()),
      };
    }();
    return metrics;
  }
};

// Hidden-unit degree assignment: cyclic over [1, n-1]. Identical for every
// layer so equal-width layers share degrees and residual additions are valid.
int HiddenDegree(int unit, int num_columns) {
  const int span = std::max(1, num_columns - 1);
  return 1 + (unit % span);
}

// Weight versions are process-global so a workspace reused across model
// instances (e.g. after Deserialize replaced the model) can never mistake a
// stale transposed-weight cache for a fresh one.
uint64_t NextWeightVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::span<const float> BiasSpan(const nn::MaskedLinear& layer) {
  return {layer.bias().value.data(),
          static_cast<size_t>(layer.out_features())};
}

// dst[q][p] = w[out_order[p]][in_order[q]]: w: [out, in] transposed with its
// outputs and inputs permuted; an empty order is the identity.
void TransposePermuted(const nn::Matrix& w, std::span<const int> in_order,
                       std::span<const int> out_order, nn::Matrix& dst) {
  const int out = w.rows();
  const int in = w.cols();
  dst.ResizeUninitialized(in, out);
  for (int q = 0; q < in; ++q) {
    const int i = in_order.empty() ? q : in_order[q];
    float* row = dst.row(q);
    for (int p = 0; p < out; ++p) {
      row[p] = w.at(out_order.empty() ? p : out_order[p], i);
    }
  }
}

}  // namespace

ResMade::ResMade(std::vector<int> domain_sizes, ResMadeConfig config,
                 uint64_t seed)
    : domains_(std::move(domain_sizes)),
      config_(std::move(config)),
      init_rng_(seed),
      output_([&] {
        // Placeholder; the real output layer is built below once the input
        // and output widths are known. MaskedLinear has no default ctor, so
        // construct a 1x1 layer here and move-assign later is not possible
        // (no assignment); instead compute widths first via a lambda chain.
        return nn::MaskedLinear(1, 1, init_rng_);
      }()) {
  const int n = num_columns();
  IAM_CHECK_MSG(n >= 2, "ResMade requires at least two columns");
  IAM_CHECK_MSG(!config_.hidden_sizes.empty(),
                "ResMade requires at least one hidden layer");
  for (int d : domains_) IAM_CHECK(d >= 1);

  // --- Input/output layout. -------------------------------------------------
  encodings_.resize(n);
  embeddings_.resize(n);
  int in_off = 0;
  int out_off = 0;
  for (int c = 0; c < n; ++c) {
    ColumnEncoding& enc = encodings_[c];
    const int classes = domains_[c] + 1;  // + wildcard token
    enc.one_hot = classes <= config_.one_hot_max_domain;
    enc.width = enc.one_hot ? classes : config_.embedding_dim;
    enc.input_offset = in_off;
    enc.logit_offset = out_off;
    in_off += enc.width;
    out_off += domains_[c];
    if (!enc.one_hot) {
      embeddings_[c] = nn::Parameter(classes, config_.embedding_dim);
      const double bound = 1.0 / std::sqrt(config_.embedding_dim);
      for (int r = 0; r < classes; ++r) {
        for (int k = 0; k < config_.embedding_dim; ++k) {
          embeddings_[c].value.at(r, k) =
              static_cast<float>(init_rng_.Uniform(-bound, bound));
        }
      }
    }
  }
  input_width_ = in_off;
  output_width_ = out_off;

  // --- Hidden stack with MADE masks. ---------------------------------------
  // Degree of every input unit in column block c is c+1 (1-based).
  std::vector<int> input_degree(input_width_);
  for (int c = 0; c < n; ++c) {
    for (int j = 0; j < encodings_[c].width; ++j) {
      input_degree[encodings_[c].input_offset + j] = c + 1;
    }
  }

  int prev_width = input_width_;
  std::vector<int> prev_degree = input_degree;
  for (int layer = 0; layer < static_cast<int>(config_.hidden_sizes.size());
       ++layer) {
    const int width = config_.hidden_sizes[layer];
    hidden_.emplace_back(prev_width, width, init_rng_);
    nn::Matrix mask(width, prev_width);
    std::vector<int> degree(width);
    for (int k = 0; k < width; ++k) {
      degree[k] = HiddenDegree(k, n);
      for (int j = 0; j < prev_width; ++j) {
        mask.at(k, j) = degree[k] >= prev_degree[j] ? 1.0f : 0.0f;
      }
    }
    hidden_.back().SetMask(std::move(mask));
    residual_flags_.push_back(config_.residual && prev_width == width &&
                              layer > 0);
    prev_width = width;
    prev_degree = std::move(degree);
  }

  // --- Output layer: logits block c may read hidden degree <= c. -----------
  output_ = [&] {
    nn::MaskedLinear out(prev_width, output_width_, init_rng_);
    nn::Matrix mask(output_width_, prev_width);
    for (int c = 0; c < n; ++c) {
      for (int j = 0; j < domains_[c]; ++j) {
        const int row = encodings_[c].logit_offset + j;
        for (int k = 0; k < prev_width; ++k) {
          mask.at(row, k) = prev_degree[k] <= c ? 1.0f : 0.0f;
        }
      }
    }
    out.SetMask(std::move(mask));
    return out;
  }();

  // --- Degree plan of the eval path. ----------------------------------------
  for (const nn::MaskedLinear& layer : hidden_) {
    const int width = layer.out_features();
    LayerPlan plan;
    plan.order.resize(width);
    std::iota(plan.order.begin(), plan.order.end(), 0);
    std::stable_sort(plan.order.begin(), plan.order.end(), [n](int a, int b) {
      return HiddenDegree(a, n) < HiddenDegree(b, n);
    });
    std::vector<int> position(width);
    for (int p = 0; p < width; ++p) position[plan.order[p]] = p;
    plan.kept.resize(n);
    for (int m = 0; m < n; ++m) {
      for (int k = 0; k < width; ++k) {
        if (HiddenDegree(k, n) <= m) plan.kept[m].push_back(position[k]);
      }
    }
    plan_.push_back(std::move(plan));
  }

  BumpWeightVersion();
}

void ResMade::BumpWeightVersion() {
  weight_version_.store(NextWeightVersion(), std::memory_order_release);
}

void ResMade::RefreshTransposedWeights(nn::EvalWorkspace& ws) const {
  const uint64_t version = weight_version_.load(std::memory_order_acquire);
  if (ws.wt_version == version) {
    ArMetrics::Get().wtcache_hits.Add();
    return;
  }
  ArMetrics::Get().wtcache_misses.Add();
  // Layer l's columns (and bias) follow its degree-sorted order; its rows
  // follow the order its input is stored in: encoded lanes for layer 0, the
  // previous layer's degree-sorted order after that. The output layer keeps
  // its logit columns in place.
  const size_t depth = hidden_.size();
  ws.wt.resize(depth + 1);
  ws.bias.resize(depth);
  std::span<const int> in_order;
  for (size_t l = 0; l < depth; ++l) {
    const std::vector<int>& order = plan_[l].order;
    TransposePermuted(hidden_[l].weight().value, in_order, order, ws.wt[l]);
    const std::span<const float> bias = BiasSpan(hidden_[l]);
    ws.bias[l].resize(bias.size());
    for (size_t p = 0; p < bias.size(); ++p) ws.bias[l][p] = bias[order[p]];
    in_order = order;
  }
  TransposePermuted(output_.weight().value, in_order, {}, ws.wt.back());
  ws.wt_version = version;
}

void ResMade::RegisterParameters(nn::Adam& adam) {
  for (int c = 0; c < num_columns(); ++c) {
    if (!encodings_[c].one_hot) adam.Register(&embeddings_[c]);
  }
  for (nn::MaskedLinear& layer : hidden_) {
    adam.Register(&layer.weight());
    adam.Register(&layer.bias());
  }
  adam.Register(&output_.weight());
  adam.Register(&output_.bias());
}

void ResMade::EncodeInput(const std::vector<std::vector<int>>& batch,
                          nn::Matrix& x) const {
  const int b = static_cast<int>(batch.size());
  x.ResizeUninitialized(b, input_width_);
  x.Zero();  // one-hot blocks rely on an all-zero background
  for (int r = 0; r < b; ++r) {
    IAM_DCHECK(static_cast<int>(batch[r].size()) == num_columns());
    float* row = x.row(r);
    for (int c = 0; c < num_columns(); ++c) {
      const ColumnEncoding& enc = encodings_[c];
      const int value = batch[r][c];
      IAM_DCHECK(value >= 0 && value <= domains_[c]);
      if (enc.one_hot) {
        row[enc.input_offset + value] = 1.0f;
      } else {
        const float* emb = embeddings_[c].value.row(value);
        float* dst = row + enc.input_offset;
        for (int k = 0; k < enc.width; ++k) dst[k] = emb[k];
      }
    }
  }
}

void ResMade::EncodeRowSparse(const int* row, int cols,
                              nn::SparseRows& sx) const {
  for (int c = 0; c < cols; ++c) {
    const ColumnEncoding& enc = encodings_[c];
    const int value = row[c];
    IAM_DCHECK(value >= 0 && value <= domains_[c]);
    if (enc.one_hot) {
      sx.Push(enc.input_offset + value, 1.0f);
    } else {
      const float* emb = embeddings_[c].value.row(value);
      for (int k = 0; k < enc.width; ++k) {
        sx.Push(enc.input_offset + k, emb[k]);
      }
    }
  }
  sx.EndRow();
}

void ResMade::EncodeInputSparse(const std::vector<std::vector<int>>& batch,
                                int cols, nn::SparseRows& sx) const {
  sx.Reset(input_width_);
  for (const std::vector<int>& row : batch) {
    IAM_DCHECK(static_cast<int>(row.size()) == num_columns());
    EncodeRowSparse(row.data(), cols, sx);
  }
}

void ResMade::EncodeInputSparse(EncodedView batch, int cols,
                                nn::SparseRows& sx) const {
  IAM_DCHECK(batch.rows == 0 || batch.stride >= num_columns());
  sx.Reset(input_width_);
  for (int r = 0; r < batch.rows; ++r) {
    EncodeRowSparse(batch.data + static_cast<size_t>(r) * batch.stride, cols,
                    sx);
  }
}

void ResMade::Forward(const nn::Matrix& x, nn::EvalWorkspace& ws) const {
  ws.EnsureDepth(hidden_.size());
  const nn::Matrix* current = &x;
  for (size_t i = 0; i < hidden_.size(); ++i) {
    hidden_[i].Forward(*current, ws.pre_act[i], ws.wt_scratch);
    ReluForward(ws.pre_act[i], ws.act[i]);
    if (residual_flags_[i]) {
      IAM_DCHECK(ws.act[i].size() == current->size());
      float* a = ws.act[i].data();
      const float* prev = current->data();
      for (size_t k = 0; k < ws.act[i].size(); ++k) a[k] += prev[k];
    }
    current = &ws.act[i];
  }
  output_.Forward(*current, ws.output, ws.wt_scratch);
}

namespace {

// Rows [0, parent_of.size()) of `act` take the first `carried` floats of
// rows parent_of[r] of `act` as the previous call left it, in place. With
// parent_of non-decreasing, no row is overwritten before every copy that
// reads it: rows whose parent lies below them are filled top-down, and
// rows whose parent lies above them bottom-up, first. The other floats of
// each row are left as they are.
void CarryRows(std::span<const int> parent_of, int carried, nn::Matrix& act) {
  const int rows = static_cast<int>(parent_of.size());
  const int width = act.cols();
  act.ResizeKeep(std::max(rows, act.rows()), width);
  const size_t bytes = sizeof(float) * static_cast<size_t>(carried);
  for (int r = 0; r < rows; ++r) {
    if (parent_of[r] > r) std::memcpy(act.row(r), act.row(parent_of[r]), bytes);
  }
  for (int r = rows - 1; r >= 0; --r) {
    if (parent_of[r] < r) std::memcpy(act.row(r), act.row(parent_of[r]), bytes);
  }
  act.ResizeUninitialized(rows, width);
}

}  // namespace

const nn::Matrix& ResMade::ForwardHiddenEval(int col, int parent_col,
                                             std::span<const int> parent_of,
                                             Context& ctx) const {
  IAM_DCHECK(col >= 1 && col < num_columns());
  nn::EvalWorkspace& ws = ctx.ws;
  const int rows = ws.sparse_input.rows;
  // No unit has degree 0, so parent_col == 0 carries nothing.
  const bool carry = parent_col > 0;
  if (carry) {
    IAM_CHECK_MSG(ctx.carry_col == parent_col &&
                      ctx.carry_version == ws.wt_version,
                  "carried conditional without its parent call");
    IAM_CHECK(static_cast<int>(parent_of.size()) == rows);
    for (int r = 0; r < rows; ++r) {
      IAM_CHECK(parent_of[r] >= (r == 0 ? 0 : parent_of[r - 1]) &&
                parent_of[r] < ctx.carry_rows);
    }
  }
  ws.EnsureDepth(hidden_.size());
  // Every layer's activations are [rows, width] in degree-sorted order, of
  // which a call fills the first kept[col].size() units — those of degree
  // <= col. Units of degree <= parent_col are copied from the parent rows;
  // the kernels compute only the slab of degree (parent_col, col], each
  // unit over the same inputs in the same order as a full evaluation, with
  // the ReLU fused into the store. Layer 0 multiplies only the nonzero
  // lanes of columns < col (one-hot hits and embedding values).
  for (size_t i = 0; i < hidden_.size(); ++i) {
    nn::Matrix& act = ws.act[i];
    const int width = hidden_[i].out_features();
    const int carried =
        carry ? static_cast<int>(plan_[i].kept[parent_col].size()) : 0;
    const int slab = static_cast<int>(plan_[i].kept[col].size()) - carried;
    if (carry) {
      CarryRows(parent_of, carried, act);
    } else {
      act.ResizeUninitialized(rows, width);
    }
    const std::span<const float> bias =
        std::span<const float>(ws.bias[i]).subspan(carried, slab);
    if (i == 0) {
      nn::SparseLinearForwardInto(ws.sparse_input, ws.wt[0], carried, slab,
                                  bias, act, /*fuse_relu=*/true);
      continue;
    }
    const nn::Matrix& prev = ws.act[i - 1];
    const nn::Matrix& wt = ws.wt[i];
    nn::LinearForwardTInto(prev, plan_[i - 1].kept[col], wt.data() + carried,
                           wt.cols(), slab, bias, act, carried,
                           /*fuse_relu=*/true);
    if (residual_flags_[i]) {
      // Equal widths share degrees, hence the same order and kept prefix.
      IAM_DCHECK(prev.cols() == width);
      for (int r = 0; r < rows; ++r) {
        float* a = act.row(r) + carried;
        const float* p = prev.row(r) + carried;
        for (int k = 0; k < slab; ++k) a[k] += p[k];
      }
    }
  }
  ctx.carry_col = col;
  ctx.carry_rows = rows;
  ctx.carry_version = ws.wt_version;
  return ws.act[hidden_.size() - 1];
}

double ResMade::TrainStep(const std::vector<std::vector<int>>& batch,
                          nn::Adam& adam, Rng& rng) {
  IAM_CHECK(!batch.empty());
  obs::TraceSpan span("ar.train_step");
  Stopwatch step_watch;
  const int b = static_cast<int>(batch.size());
  const int n = num_columns();

  adam.ZeroGrad();

  // Wildcard-skipping: randomly replace input values by the wildcard token.
  // Targets are always the original values.
  std::vector<std::vector<int>>& encoded = train_ctx_.encoded;
  encoded = batch;
  for (auto& row : encoded) {
    for (int c = 0; c < n; ++c) {
      if (rng.Uniform() < config_.wildcard_prob) {
        row[c] = wildcard_token(c);
      }
    }
  }

  nn::EvalWorkspace& ws = train_ctx_.ws;
  EncodeInput(encoded, ws.input);
  Forward(ws.input, ws);

  // Softmax cross-entropy per column block; gradient written into dlogits.
  nn::Matrix dlogits(b, output_width_);
  double total_loss = 0.0;
  std::vector<double> scratch;
  for (int r = 0; r < b; ++r) {
    const float* lrow = ws.output.row(r);
    float* grow = dlogits.row(r);
    for (int c = 0; c < n; ++c) {
      const int off = encodings_[c].logit_offset;
      const int dom = domains_[c];
      scratch.assign(lrow + off, lrow + off + dom);
      SoftmaxInPlace(scratch);
      const int target = batch[r][c];
      IAM_DCHECK(target >= 0 && target < dom);
      total_loss += -std::log(std::max(scratch[target], 1e-12));
      const float scale = 1.0f / static_cast<float>(b);
      for (int j = 0; j < dom; ++j) {
        grow[off + j] = static_cast<float>(scratch[j]) * scale;
      }
      grow[off + target] -= scale;
    }
  }

  // Backward through the stack.
  nn::Matrix d_act;
  nn::Matrix d_pre;
  nn::Matrix d_prev;
  const nn::Matrix& last =
      hidden_.empty() ? ws.input : ws.act[hidden_.size() - 1];
  output_.Backward(last, dlogits, d_act);

  for (int i = static_cast<int>(hidden_.size()) - 1; i >= 0; --i) {
    const nn::Matrix& layer_input = i == 0 ? ws.input : ws.act[i - 1];
    ReluBackward(ws.pre_act[i], d_act, d_pre);
    hidden_[i].Backward(layer_input, d_pre, d_prev);
    if (residual_flags_[i]) {
      // Skip connection routes d_act straight to the layer input as well.
      float* dp = d_prev.data();
      const float* da = d_act.data();
      for (size_t k = 0; k < d_prev.size(); ++k) dp[k] += da[k];
    }
    d_act = std::move(d_prev);
    d_prev = nn::Matrix();
  }

  // d_act now holds the gradient w.r.t. the encoded input: scatter into
  // embedding tables.
  for (int c = 0; c < n; ++c) {
    const ColumnEncoding& enc = encodings_[c];
    if (enc.one_hot) continue;
    for (int r = 0; r < b; ++r) {
      const int value = encoded[r][c];
      float* grad = embeddings_[c].grad.row(value);
      const float* src = d_act.row(r) + enc.input_offset;
      for (int k = 0; k < enc.width; ++k) grad[k] += src[k];
    }
  }

  // Global gradient L2 norm, read before the optimizer consumes the grads.
  // One linear pass over the parameters — cheap next to the batch-sized
  // forward/backward above.
  double grad_sq = 0.0;
  const auto accumulate = [&grad_sq](const nn::Matrix& g) {
    const float* p = g.data();
    for (size_t k = 0; k < g.size(); ++k) {
      grad_sq += static_cast<double>(p[k]) * static_cast<double>(p[k]);
    }
  };
  for (const nn::MaskedLinear& layer : hidden_) {
    accumulate(layer.weight().grad);
    accumulate(layer.bias().grad);
  }
  accumulate(output_.weight().grad);
  accumulate(output_.bias().grad);
  for (const nn::Parameter& emb : embeddings_) {
    if (emb.size() > 0) accumulate(emb.grad);
  }

  adam.Step();
  // The step mutated the weights: invalidate every transposed-weight cache
  // (including train_ctx_'s own, at the top of the next TrainStep).
  BumpWeightVersion();

  const double mean_loss = total_loss / static_cast<double>(b);
  ArMetrics& metrics = ArMetrics::Get();
  metrics.train_steps.Add();
  metrics.train_rows.Add(static_cast<uint64_t>(b));
  metrics.train_loss.Set(mean_loss);
  metrics.grad_norm.Set(std::sqrt(grad_sq));
  metrics.step_seconds.Record(step_watch.ElapsedSeconds());
  return mean_loss;
}

void ResMade::ConditionalDistributionImpl(int col, int parent_col,
                                          std::span<const int> parent_of,
                                          nn::Matrix& probs,
                                          Context& ctx) const {
  nn::EvalWorkspace& ws = ctx.ws;
  const int dom = domains_[col];
  const int off = encodings_[col].logit_offset;
  const std::span<const float> bias = BiasSpan(output_).subspan(off, dom);
  if (col == 0) {
    // No hidden unit has degree 0: column 0's logits are its bias.
    ws.output.ResizeUninitialized(ws.sparse_input.rows, dom);
    for (int r = 0; r < ws.output.rows(); ++r) {
      std::copy(bias.begin(), bias.end(), ws.output.row(r));
    }
  } else {
    // The output layer is evaluated just for `col`'s logits block, which
    // keeps progressive sampling cheap when other columns have large domains
    // (factorized sub-columns can have thousands of logits): the kernel runs
    // over the [off, off + dom) column window of the transposed weights and
    // reads only the last layer's kept units.
    const nn::Matrix& hidden = ForwardHiddenEval(col, parent_col, parent_of,
                                                 ctx);
    const nn::Matrix& wt_out = ws.wt.back();
    nn::LinearForwardT(hidden, plan_.back().kept[col], wt_out.data() + off,
                       wt_out.cols(), dom, bias, ws.output,
                       /*fuse_relu=*/false);
  }
  nn::SoftmaxRows(ws.output, probs, ws.softmax_scratch);
}

void ResMade::ConditionalDistribution(
    const std::vector<std::vector<int>>& inputs, int col, nn::Matrix& probs,
    Context& ctx) const {
  IAM_CHECK(col >= 0 && col < num_columns());
  RefreshTransposedWeights(ctx.ws);
  EncodeInputSparse(inputs, col, ctx.ws.sparse_input);
  ConditionalDistributionImpl(col, /*parent_col=*/0, {}, probs, ctx);
}

void ResMade::ConditionalDistribution(EncodedView inputs, int col,
                                      int parent_col,
                                      std::span<const int> parent_of,
                                      nn::Matrix& probs, Context& ctx) const {
  IAM_CHECK(col >= 0 && col < num_columns());
  IAM_CHECK(parent_col == 0 || (parent_col >= 1 && parent_col < col));
  RefreshTransposedWeights(ctx.ws);
  EncodeInputSparse(inputs, col, ctx.ws.sparse_input);
  ConditionalDistributionImpl(col, parent_col, parent_of, probs, ctx);
}

void ResMade::ConditionalDistribution(
    const std::vector<std::vector<int>>& inputs, int col,
    nn::Matrix& probs) const {
  Context ctx;
  ConditionalDistribution(inputs, col, probs, ctx);
}

double ResMade::LogProb(const std::vector<int>& tuple, Context& ctx) const {
  IAM_CHECK(static_cast<int>(tuple.size()) == num_columns());
  nn::EvalWorkspace& ws = ctx.ws;
  RefreshTransposedWeights(ws);
  // Every logit block at once: the plan of the last column keeps every
  // hidden unit, and the last column's lanes feed none of them.
  const int last = num_columns() - 1;
  EncodeInputSparse({tuple}, last, ws.sparse_input);
  const nn::Matrix& hidden = ForwardHiddenEval(last, /*parent_col=*/0, {}, ctx);
  const nn::Matrix& wt_out = ws.wt.back();
  nn::LinearForwardT(hidden, plan_.back().kept[last], wt_out.data(),
                     wt_out.cols(), output_width_, BiasSpan(output_),
                     ws.output, /*fuse_relu=*/false);
  double log_prob = 0.0;
  std::vector<double> scratch;
  const float* lrow = ws.output.row(0);
  for (int c = 0; c < num_columns(); ++c) {
    const int off = encodings_[c].logit_offset;
    const int dom = domains_[c];
    scratch.assign(lrow + off, lrow + off + dom);
    SoftmaxInPlace(scratch);
    log_prob += std::log(std::max(scratch[tuple[c]], 1e-300));
  }
  return log_prob;
}

double ResMade::LogProb(const std::vector<int>& tuple) const {
  Context ctx;
  return LogProb(tuple, ctx);
}

namespace {

void WriteMatrix(std::ostream& out, const nn::Matrix& m) {
  WritePod<int32_t>(out, m.rows());
  WritePod<int32_t>(out, m.cols());
  WriteRaw(out, m.data(), static_cast<size_t>(m.size()));
}

Status ReadMatrixInto(std::istream& in, nn::Matrix& m) {
  int32_t rows = 0, cols = 0;
  IAM_RETURN_IF_ERROR(ReadPod(in, &rows));
  IAM_RETURN_IF_ERROR(ReadPod(in, &cols));
  if (rows != m.rows() || cols != m.cols()) {
    return Status::IoError("matrix shape mismatch in model blob");
  }
  // The destination shape was allocated from the envelope-validated config,
  // so the read length is bounded by trusted dimensions, not by the blob.
  const Status read = ReadRaw(in, m.data(), static_cast<size_t>(m.size()));
  if (!read.ok()) return Status::IoError("truncated matrix in model blob");
  return Status::Ok();
}

}  // namespace

// Envelope identity of a persisted ResMade (util::WriteEnvelope): bump
// kResMadeFormatVersion on any payload layout change so old builds reject new
// files with a clean "unsupported format version" instead of misparsing.
constexpr std::string_view kResMadeMagic = "IAMRMADE";
constexpr uint32_t kResMadeFormatVersion = 1;

void ResMade::Serialize(std::ostream& out) const {
  std::ostringstream payload;
  WriteVector(payload, domains_);
  WriteVector(payload, config_.hidden_sizes);
  WritePod<uint8_t>(payload, config_.residual ? 1 : 0);
  WritePod<double>(payload, config_.wildcard_prob);
  WritePod<int32_t>(payload, config_.one_hot_max_domain);
  WritePod<int32_t>(payload, config_.embedding_dim);

  for (int c = 0; c < num_columns(); ++c) {
    if (!encodings_[c].one_hot) WriteMatrix(payload, embeddings_[c].value);
  }
  for (const nn::MaskedLinear& layer : hidden_) {
    WriteMatrix(payload, layer.weight().value);
    WriteMatrix(payload, layer.bias().value);
  }
  WriteMatrix(payload, output_.weight().value);
  WriteMatrix(payload, output_.bias().value);
  WriteEnvelope(out, kResMadeMagic, kResMadeFormatVersion, payload.str());
}

Result<std::unique_ptr<ResMade>> ResMade::Deserialize(std::istream& in) {
  Result<std::string> payload =
      ReadEnvelope(in, kResMadeMagic, kResMadeFormatVersion);
  if (!payload.ok()) return payload.status();
  std::istringstream body(std::move(payload.value()));

  std::vector<int> domains;
  ResMadeConfig config;
  uint8_t residual = 1;
  IAM_RETURN_IF_ERROR(ReadVector(body, &domains));
  IAM_RETURN_IF_ERROR(ReadVector(body, &config.hidden_sizes));
  IAM_RETURN_IF_ERROR(ReadPod(body, &residual));
  IAM_RETURN_IF_ERROR(ReadPod(body, &config.wildcard_prob));
  IAM_RETURN_IF_ERROR(ReadPod(body, &config.one_hot_max_domain));
  IAM_RETURN_IF_ERROR(ReadPod(body, &config.embedding_dim));
  config.residual = residual != 0;
  if (domains.size() < 2 || config.hidden_sizes.empty()) {
    return Status::IoError("inconsistent ResMade blob");
  }
  for (const int d : domains) {
    if (d < 1 || d > (1 << 24)) {
      return Status::IoError("implausible domain size in ResMade blob");
    }
  }
  for (const int h : config.hidden_sizes) {
    if (h < 1 || h > (1 << 20)) {
      return Status::IoError("implausible hidden size in ResMade blob");
    }
  }
  if (config.embedding_dim < 1 || config.embedding_dim > (1 << 16)) {
    return Status::IoError("implausible embedding dim in ResMade blob");
  }

  auto made = std::make_unique<ResMade>(domains, config, /*seed=*/0);
  for (int c = 0; c < made->num_columns(); ++c) {
    if (!made->encodings_[c].one_hot) {
      IAM_RETURN_IF_ERROR(ReadMatrixInto(body, made->embeddings_[c].value));
    }
  }
  for (nn::MaskedLinear& layer : made->hidden_) {
    IAM_RETURN_IF_ERROR(ReadMatrixInto(body, layer.weight().value));
    IAM_RETURN_IF_ERROR(ReadMatrixInto(body, layer.bias().value));
  }
  IAM_RETURN_IF_ERROR(ReadMatrixInto(body, made->output_.weight().value));
  IAM_RETURN_IF_ERROR(ReadMatrixInto(body, made->output_.bias().value));
  // The parameters changed under the model: stale transposed-weight caches
  // in any reused workspace must miss against the new version.
  made->BumpWeightVersion();
  return made;
}

size_t ResMade::ParameterCount() const {
  size_t count = 0;
  for (int c = 0; c < num_columns(); ++c) {
    if (!encodings_[c].one_hot) count += embeddings_[c].size();
  }
  for (const nn::MaskedLinear& layer : hidden_) count += layer.ParameterCount();
  count += output_.ParameterCount();
  return count;
}

}  // namespace iam::ar
