#include "nn/layers.h"

#include <cmath>

#include "autograd/trace.h"
#include "tensor/init.h"

namespace seqfm {
namespace nn {

using autograd::Variable;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias)
    : in_dim_(in_dim), out_dim_(out_dim), use_bias_(use_bias) {
  Tensor w({in_dim, out_dim});
  tensor::FillXavier(&w, rng);
  weight_ = RegisterParameter("weight", std::move(w));
  if (use_bias_) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_dim}));
  }
}

Variable Linear::Forward(const Variable& x) const {
  Variable y;
  if (x.rank() == 2) {
    y = autograd::MatMul(x, weight_);
  } else {
    y = autograd::BmmShared(x, weight_);
  }
  if (use_bias_) y = autograd::AddBias(y, bias_);
  return y;
}

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

Embedding::Embedding(size_t vocab, size_t dim, Rng* rng, float stddev)
    : vocab_(vocab), dim_(dim) {
  Tensor t({vocab, dim});
  tensor::FillNormal(&t, rng, stddev);
  table_ = RegisterParameter("table", std::move(t));
}

Variable Embedding::Forward(const std::vector<int32_t>& indices, size_t batch,
                            size_t n) const {
  return autograd::EmbeddingGather(table_, indices, batch, n);
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

LayerNorm::LayerNorm(size_t dim) : dim_(dim) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
}

Variable LayerNorm::Forward(const Variable& x) const {
  return autograd::LayerNorm(x, gamma_, beta_);
}

// ---------------------------------------------------------------------------
// SelfAttention
// ---------------------------------------------------------------------------

SelfAttention::SelfAttention(size_t dim, Rng* rng) : dim_(dim) {
  Tensor wq({dim, dim}), wk({dim, dim}), wv({dim, dim});
  tensor::FillXavier(&wq, rng);
  tensor::FillXavier(&wk, rng);
  tensor::FillXavier(&wv, rng);
  wq_ = RegisterParameter("wq", std::move(wq));
  wk_ = RegisterParameter("wk", std::move(wk));
  wv_ = RegisterParameter("wv", std::move(wv));
}

Variable SelfAttention::Forward(const Variable& e, const Variable& mask) const {
  SEQFM_CHECK_EQ(e.rank(), 3u);
  SEQFM_CHECK_EQ(e.dim(2), dim_);
  Variable q = autograd::BmmShared(e, wq_);
  Variable k = autograd::BmmShared(e, wk_);
  Variable v = autograd::BmmShared(e, wv_);
  // scores = Q K^T / sqrt(d)  (Eq. 6).
  Variable scores = autograd::Bmm(q, k, /*trans_a=*/false, /*trans_b=*/true);
  scores = autograd::Scale(scores, 1.0f / std::sqrt(static_cast<float>(dim_)));
  Variable probs = autograd::MaskedSoftmax(scores, mask);
  return autograd::Bmm(probs, v);
}

// ---------------------------------------------------------------------------
// ResidualFeedForward
// ---------------------------------------------------------------------------

ResidualFeedForward::ResidualFeedForward(size_t dim, size_t num_layers,
                                         Rng* rng, bool use_residual,
                                         bool use_layer_norm)
    : dim_(dim), use_residual_(use_residual), use_layer_norm_(use_layer_norm) {
  layers_.reserve(num_layers);
  for (size_t i = 0; i < num_layers; ++i) {
    Layer layer;
    Tensor w({dim, dim});
    tensor::FillXavier(&w, rng);
    const std::string suffix = std::to_string(i);
    layer.weight = RegisterParameter("w" + suffix, std::move(w));
    layer.bias = RegisterParameter("b" + suffix, Tensor::Zeros({dim}));
    layer.gamma = RegisterParameter("gamma" + suffix, Tensor::Ones({dim}));
    layer.beta = RegisterParameter("beta" + suffix, Tensor::Zeros({dim}));
    layers_.push_back(std::move(layer));
  }
}

Variable ResidualFeedForward::Forward(const Variable& h, float keep_prob,
                                      bool training, Rng* rng) const {
  Variable cur = h;
  for (const auto& layer : layers_) {
    Variable inner = cur;
    if (use_layer_norm_) {
      inner = autograd::LayerNorm(inner, layer.gamma, layer.beta);
    }
    inner = autograd::MatMul(inner, layer.weight);
    inner = autograd::AddBias(inner, layer.bias);
    inner = autograd::Relu(inner);
    inner = autograd::Dropout(inner, keep_prob, training, rng);
    cur = use_residual_ ? autograd::Add(cur, inner) : inner;
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Mlp
// ---------------------------------------------------------------------------

Mlp::Mlp(const std::vector<size_t>& dims, Rng* rng) {
  SEQFM_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterModule("fc" + std::to_string(i), layers_.back().get());
    layer_ptrs_.push_back(layers_.back().get());
  }
}

Variable Mlp::Forward(const Variable& x, float keep_prob, bool training,
                      Rng* rng) const {
  Variable cur = x;
  for (size_t i = 0; i < layer_ptrs_.size(); ++i) {
    cur = layer_ptrs_[i]->Forward(cur);
    const bool last = (i + 1 == layer_ptrs_.size());
    if (!last) {
      cur = autograd::Relu(cur);
      cur = autograd::Dropout(cur, keep_prob, training, rng);
    }
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Gru
// ---------------------------------------------------------------------------

namespace {
Variable GruGate(const Variable& x, const Variable& w, const Variable& h,
                 const Variable& u, const Variable& b) {
  Variable pre = autograd::Add(autograd::MatMul(x, w), autograd::MatMul(h, u));
  return autograd::AddBias(pre, b);
}
}  // namespace

Gru::Gru(size_t input_dim, size_t hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  auto make_weight = [&](size_t rows, size_t cols) {
    Tensor t({rows, cols});
    tensor::FillXavier(&t, rng);
    return t;
  };
  wz_ = RegisterParameter("wz", make_weight(input_dim, hidden_dim));
  uz_ = RegisterParameter("uz", make_weight(hidden_dim, hidden_dim));
  bz_ = RegisterParameter("bz", Tensor::Zeros({hidden_dim}));
  wr_ = RegisterParameter("wr", make_weight(input_dim, hidden_dim));
  ur_ = RegisterParameter("ur", make_weight(hidden_dim, hidden_dim));
  br_ = RegisterParameter("br", Tensor::Zeros({hidden_dim}));
  wh_ = RegisterParameter("wh", make_weight(input_dim, hidden_dim));
  uh_ = RegisterParameter("uh", make_weight(hidden_dim, hidden_dim));
  bh_ = RegisterParameter("bh", Tensor::Zeros({hidden_dim}));
}

Variable Gru::Step(const Variable& x, const Variable& h) const {
  Variable z = autograd::Sigmoid(GruGate(x, wz_, h, uz_, bz_));
  Variable r = autograd::Sigmoid(GruGate(x, wr_, h, ur_, br_));
  Variable rh = autograd::Mul(r, h);
  Variable cand = autograd::Tanh(GruGate(x, wh_, rh, uh_, bh_));
  // h' = h + z ⊙ (cand - h)  ==  (1-z) ⊙ h + z ⊙ cand.
  return autograd::Add(h, autograd::Mul(z, autograd::Sub(cand, h)));
}

Variable Gru::Forward(const Variable& seq) const {
  SEQFM_CHECK_EQ(seq.rank(), 3u);
  SEQFM_CHECK_EQ(seq.dim(2), input_dim_);
  const size_t batch = seq.dim(0), steps = seq.dim(1);
  Variable h = Variable::Constant(Tensor::Zeros({batch, hidden_dim_}));
  autograd::TraceAnnotateConstant(h, autograd::ConstantKind::kZeroState);
  for (size_t t = 0; t < steps; ++t) {
    Variable x = autograd::SliceRow(seq, t);
    h = Step(x, h);
  }
  return h;
}

}  // namespace nn
}  // namespace seqfm
