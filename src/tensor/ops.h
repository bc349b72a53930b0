#ifndef SEQFM_TENSOR_OPS_H_
#define SEQFM_TENSOR_OPS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace tensor {

/// Forward compute kernels. Each is the one implementation of its op's
/// forward: the autograd op (src/autograd/) and the compiled program's
/// executor (ir::EvalPure) both call it, so eager and compiled scores are
/// bit-identical by construction. The GEMM wrappers and SumAxis1 take an
/// \p accumulate flag: when true they add into the output (used for
/// gradient accumulation), otherwise they overwrite it.
///
/// Raw GEMM core: C[m,n] (+)= A op B with optional transposition.
///   trans_a == false: A is [m,k] row-major; true: A is [k,m] and used as A^T.
///   trans_b == false: B is [k,n] row-major; true: B is [n,k] and used as B^T.
///
/// The kernel is cache-blocked, register-tiled, and dispatches row chunks of
/// C across the global util::ThreadPool once the problem is large enough.
/// Each output element sums its k products in ascending order into a private
/// accumulator added to C exactly once, so results are bit-for-bit identical
/// to GemmReference for every thread count.
///
/// Degenerate sizes are handled explicitly: m == 0 or n == 0 is a no-op and
/// k == 0 is an empty sum (C is zeroed unless accumulating). Null pointers
/// with non-degenerate sizes abort.
void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n, bool trans_a, bool trans_b, bool accumulate);

/// Naive single-threaded triple-loop GEMM with the same contract as Gemm.
/// The comparison oracle for tests and the baseline for bench_micro_ops.
void GemmReference(const float* a, const float* b, float* c, size_t m,
                   size_t k, size_t n, bool trans_a, bool trans_b,
                   bool accumulate);

/// C = A · B for rank-2 tensors; shape-checked wrappers over Gemm.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out,
            bool trans_a = false, bool trans_b = false,
            bool accumulate = false);

/// Batched GEMM over rank-3 tensors: out[i] (+)= A[i] op B[i] per batch item.
void BatchedMatMul(const Tensor& a, const Tensor& b, Tensor* out,
                   bool trans_a = false, bool trans_b = false,
                   bool accumulate = false);

/// out[i] (+)= A[i] · W (rank-3 lhs, shared rank-2 rhs). Equivalent to
/// flattening A to [batch*rows, k], provided as a convenience.
void BatchedMatMulShared(const Tensor& a, const Tensor& w, Tensor* out,
                         bool trans_w = false, bool accumulate = false);

/// Row-wise softmax over the last dimension. If \p mask is non-null it must
/// point to a [rows_per_batch x cols] additive mask (0 or -inf style values)
/// that is broadcast over the leading batch dimension before normalizing.
/// Works for rank-2 ([rows, cols]) and rank-3 ([batch, rows, cols]) input.
void SoftmaxLastDim(const Tensor& in, const Tensor* mask, Tensor* out);

/// Elementwise kernels (same-shape in/out).
void Add(const Tensor& a, const Tensor& b, Tensor* out);
void Sub(const Tensor& a, const Tensor& b, Tensor* out);
void Mul(const Tensor& a, const Tensor& b, Tensor* out);
void Relu(const Tensor& in, Tensor* out);
void Sigmoid(const Tensor& in, Tensor* out);
void Tanh(const Tensor& in, Tensor* out);

/// out = alpha * in.
void Scale(const Tensor& in, float alpha, Tensor* out);
/// out = in + alpha (elementwise scalar shift).
void AddScalar(const Tensor& in, float alpha, Tensor* out);

/// Broadcast-add a rank-1 bias of size d over the last dimension.
void AddBiasLastDim(const Tensor& in, const Tensor& bias, Tensor* out);

/// The kernels below leave the rank and dimension agreement of their inputs
/// to the callers: each autograd op checks its inputs, and ir::Verify checks
/// every compiled instruction's shapes before it runs.

/// Broadcast-add a rank-2 [n, d] table over the batch of in [B, n, d].
void AddBroadcastBatch(const Tensor& in, const Tensor& table, Tensor* out);

/// out[b] = W · P[b] for W [h2, h] and P [B, h, d] -> [B, h2, d]; with
/// \p trans_p, out[b] = W · P[b]^T for P [B, d, h].
void BatchedMatMulLeftShared(const Tensor& w, const Tensor& p, Tensor* out,
                             bool trans_p = false);

/// Row-wise dot product of two [B, d] tensors -> [B, 1].
void RowDot(const Tensor& a, const Tensor& b, Tensor* out);

/// Layer normalization over the last dimension:
/// out = gamma ⊙ (x - mean) / sqrt(var + eps) + beta. When non-null,
/// \p xhat (same shape as x) receives the normalized activations and
/// \p inv_std (one float per row) the inverse standard deviations, which
/// the backward pass consumes; the outputs are the same either way.
void LayerNormLastDim(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps, Tensor* out, Tensor* xhat = nullptr,
                      float* inv_std = nullptr);

/// Structural copies.
/// Concatenates rank-2 [B, d_i] tensors along the last dim -> [B, sum d_i].
void ConcatLastDim(const std::vector<const Tensor*>& parts, Tensor* out);
/// Concatenates rank-3 [B, na, d] and [B, nb, d] along axis 1 into out's
/// B batch items; an operand with batch 1 is broadcast over all of them.
void ConcatAxis1(const Tensor& a, const Tensor& b, Tensor* out);
/// Row \p row of axis 1: [B, n, d] -> [B, d].
void SliceRow(const Tensor& in, size_t row, Tensor* out);
/// The [m, n] block of \p in, viewed as a matrix [in.size / w, w] with w its
/// last dim, whose top-left element is (row, col); out is [m, n].
void SliceBlock(const Tensor& in, size_t row, size_t col, Tensor* out);
/// Flat element copy between tensors of equal size (reshape).
void Copy(const Tensor& in, Tensor* out);
/// Repeats each row of in [B, d] out.dim(1) times -> [B, n, d].
void ExpandRows(const Tensor& in, Tensor* out);
/// All ordered row pairs i < j multiplied elementwise:
/// [B, n, d] -> [B, n(n-1)/2, d].
void PairwiseProductUpper(const Tensor& in, Tensor* out);
/// Cross products of the rows of a [B, h, d] and b [B, m, d]
/// -> [B, h*m, d], out[b, i*m+j] = a[b, i] ⊙ b[b, j].
void PairwiseProductCross(const Tensor& a, const Tensor& b, Tensor* out);

/// Embedding gathers. \p index maps a flat position to a table row: eager
/// ops read their index vector, the compiled executor derives each index
/// from the request arrays on the fly, and both run this one loop.
/// Rows of \p table [V, d] into out [B, n, d], position i = b * n + j; a
/// negative index (padding) yields a zero row.
template <typename IndexFn>
void GatherRows(const Tensor& table, IndexFn index, Tensor* out) {
  const size_t vocab = table.dim(0), d = table.dim(1);
  const float* tv = table.data();
  float* out_data = out->data();
  // Gather rows are disjoint writes, so the index loop splits freely.
  util::ParallelFor(out->dim(0) * out->dim(1),
                    util::GrainForRows(d, util::kEwGrain),
                    [=](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      const int32_t idx = index(i);
      float* dst = out_data + i * d;
      if (idx < 0) {  // padding -> zero row (output may be uninitialized)
        for (size_t j = 0; j < d; ++j) dst[j] = 0.0f;
        continue;
      }
      SEQFM_CHECK_LT(static_cast<size_t>(idx), vocab);
      const float* src = tv + static_cast<size_t>(idx) * d;
      for (size_t j = 0; j < d; ++j) dst[j] = src[j];
    }
  });
}
/// Per sample b of out [B, 1]: the sum of \p weights [V, 1] at index(b * n
/// + i) for i < n, skipping negative indices (the FM first-order term).
template <typename IndexFn>
void SumGatherRows(const Tensor& weights, size_t n, IndexFn index,
                   Tensor* out) {
  const size_t vocab = weights.dim(0);
  const float* wv = weights.data();
  float* out_data = out->data();
  util::ParallelFor(out->size(), util::GrainForRows(n, util::kEwGrain),
                    [=](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      float acc = 0.0f;
      for (size_t i = 0; i < n; ++i) {
        const int32_t idx = index(b * n + i);
        if (idx < 0) continue;
        SEQFM_CHECK_LT(static_cast<size_t>(idx), vocab);
        acc += wv[idx];
      }
      out_data[b] = acc;
    }
  });
}

/// Reductions.
/// Sums rank-3 [batch, rows, cols] over rows -> [batch, cols], scaled.
void SumAxis1(const Tensor& in, float scale, Tensor* out,
              bool accumulate = false);
/// Sums over the last dimension: [.., d] -> [.., 1] semantics, emitted as a
/// rank-2 [rows, 1] tensor for rank-2 input.
void SumLastDim(const Tensor& in, Tensor* out);
/// Sum of all elements.
float SumAll(const Tensor& in);

/// Numerically stable sigmoid for scalars.
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

/// log(sigmoid(x)) computed stably.
inline float LogSigmoid(float x) {
  // log sigmoid(x) = -log(1 + e^{-x}) = min(x,0) - log(1 + e^{-|x|})
  const float m = x < 0.0f ? x : 0.0f;
  return m - std::log1p(std::exp(-std::abs(x)));
}

}  // namespace tensor
}  // namespace seqfm

#endif  // SEQFM_TENSOR_OPS_H_
