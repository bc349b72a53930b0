#include "autograd/ops.h"
#include "autograd/ops_common.h"
#include "tensor/ops.h"

namespace seqfm {
namespace autograd {

using internal::MakeNode;
using tensor::Tensor;

Variable EmbeddingGather(const Variable& table, const int32_t* indices,
                         size_t batch, size_t n) {
  SEQFM_CHECK_EQ(table.rank(), 2u);
  const size_t d = table.dim(1);
  const size_t count = batch * n;
  Tensor out = internal::OutputBuffer({batch, n, d});
  tensor::GatherRows(table.value(), [indices](size_t i) { return indices[i]; },
                     &out);
  TraceAttrs attrs;
  attrs.indices = indices;
  attrs.idx_batch = batch;
  attrs.idx_n = n;
  auto node = MakeNode(OpKind::kEmbeddingGather, {table.node()},
                       std::move(out), &attrs);
  Node* self = node.get();
  // The caller's index buffer may not outlive the node (serving reuses a
  // scratch-arena block), so the backward closure owns a copy; tape-free
  // callers skip it entirely.
  if (node->requires_grad) {
    std::vector<int32_t> owned(indices, indices + count);
    node->backward_fn = [self, owned = std::move(owned), d]() {
      Node* p = self->parents[0].get();
      if (!p->requires_grad) return;
      p->EnsureGrad();
      const float* g = self->grad.data();
      float* dt = p->grad.data();
      // Scatter-add: duplicate indices collide on table rows, so the split is
      // over COLUMNS of the embedding dimension — each chunk scans every index
      // but owns a disjoint column slice. No atomics are needed and each
      // dt[row, j] accumulates in the same (ascending i) order for every
      // thread count, keeping training bit-for-bit reproducible.
      util::ParallelFor(d, internal::GrainForRows(owned.size(),
                                                  internal::kEwGrain),
                        [&owned, g, dt, d](size_t j0, size_t j1) {
        for (size_t i = 0; i < owned.size(); ++i) {
          const int32_t idx = owned[i];
          if (idx < 0) continue;
          const float* gr = g + i * d;
          float* dst = dt + static_cast<size_t>(idx) * d;
          for (size_t j = j0; j < j1; ++j) dst[j] += gr[j];
        }
      });
    };
  }
  return Variable(node);
}

Variable EmbeddingGather(const Variable& table,
                         const std::vector<int32_t>& indices, size_t batch,
                         size_t n) {
  SEQFM_CHECK_EQ(indices.size(), batch * n);
  return EmbeddingGather(table, indices.data(), batch, n);
}

Variable EmbeddingSumGather(const Variable& weights, const int32_t* indices,
                            size_t batch, size_t n) {
  SEQFM_CHECK_EQ(weights.rank(), 2u);
  SEQFM_CHECK_EQ(weights.dim(1), 1u);
  Tensor out = internal::OutputBuffer({batch, 1});
  tensor::SumGatherRows(weights.value(), n,
                        [indices](size_t i) { return indices[i]; }, &out);
  TraceAttrs attrs;
  attrs.indices = indices;
  attrs.idx_batch = batch;
  attrs.idx_n = n;
  auto node = MakeNode(OpKind::kEmbeddingSumGather, {weights.node()},
                       std::move(out), &attrs);
  Node* self = node.get();
  if (node->requires_grad) {
    std::vector<int32_t> owned(indices, indices + batch * n);
    node->backward_fn = [self, owned = std::move(owned), batch, n]() {
      Node* p = self->parents[0].get();
      if (!p->requires_grad) return;
      p->EnsureGrad();
      // Scalar weights leave no conflict-free axis to split (every chunk
      // would race on dw[idx]); the loop is cheap, so it stays serial.
      float* dw = p->grad.data();
      for (size_t b = 0; b < batch; ++b) {
        const float g = self->grad.at(b, 0);
        for (size_t i = 0; i < n; ++i) {
          const int32_t idx = owned[b * n + i];
          if (idx < 0) continue;
          dw[idx] += g;
        }
      }
    };
  }
  return Variable(node);
}

Variable EmbeddingSumGather(const Variable& weights,
                            const std::vector<int32_t>& indices, size_t batch,
                            size_t n) {
  SEQFM_CHECK_EQ(indices.size(), batch * n);
  return EmbeddingSumGather(weights, indices.data(), batch, n);
}

}  // namespace autograd
}  // namespace seqfm
