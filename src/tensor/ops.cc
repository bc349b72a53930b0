#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/scratch_arena.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace tensor {

namespace {

// ---------------------------------------------------------------------------
// GEMM
//
// C[m,n] (+)= A op B, row-major. The inner microkernels live in the
// dispatched kernel layer (tensor/kernels.h: scalar or AVX2, selected at
// startup); this file keeps the blocking and the thread-pool fan-out. The
// outer M loop is dispatched in row chunks across the global pool. Each
// output element is owned by exactly one chunk and accumulates its k
// products in a fixed order — ascending k for non-transposed B, the
// lane-blocked dot order for transposed B — into a private accumulator
// added to C once at the end, so the result is bit-for-bit identical to
// GemmReference for every blocking, grain, thread count, and SIMD level.
// ---------------------------------------------------------------------------

// Keep the microkernel's register tile height as the minimum row grain.
constexpr size_t kMr = 4;
// Grain cutoffs are shared with the autograd layer; see util/thread_pool.h.
using util::GrainForRows;
using util::kEwGrain;
using util::kMathGrain;
// GEMMs below this many multiply-adds run serially on the caller.
constexpr size_t kGemmParallelMinWork = util::kMinParallelWork;

// Computes C rows [i0, i1). When A is transposed (stored [k, m]) its rows are
// first packed contiguously so both inner kernels see a [rows, k] panel.
void GemmRowRange(const kernels::KernelTable& kt, const float* a,
                  const float* b, float* c, size_t m, size_t k, size_t n,
                  bool trans_a, bool trans_b, bool accumulate, size_t i0,
                  size_t i1) {
  const size_t rows = i1 - i0;
  const float* arows;
  // The trans-A pack buffer always comes from the thread's scratch arena,
  // which keeps its blocks across rewinds, so a warm thread packs without
  // touching the heap. Training's weight-gradient GEMMs pack on every chunk
  // of every step; a heap buffer per call grows whichever malloc arena the
  // chunk's thread uses, so peak RSS would depend on which pool thread ran
  // which chunk.
  core::ScratchArena* arena = nullptr;
  core::ScratchArena::Mark arena_mark;
  if (trans_a) {
    arena = &core::ThreadScratchArena();
    arena_mark = arena->mark();
    float* packed = arena->AllocateFloats(rows * k);
    for (size_t p = 0; p < k; ++p) {
      const float* src = a + p * m + i0;
      for (size_t i = 0; i < rows; ++i) packed[i * k + p] = src[i];
    }
    arows = packed;
  } else {
    arows = a + i0 * k;
  }
  float* crows = c + i0 * n;
  if (trans_b) {
    kt.gemm_rows_b_trans(arows, b, crows, rows, k, n, accumulate);
  } else {
    kt.gemm_rows_b_normal(arows, b, crows, rows, k, n, accumulate);
  }
  if (arena != nullptr) arena->RewindTo(arena_mark);
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  SEQFM_CHECK(a.SameShape(b))
      << "shape mismatch: " << a.ToString(0) << " vs " << b.ToString(0);
}

/// The lane-blocked reduction order's independent restatement for the
/// oracle: eight partial sums, element p into lane p % 8, combined by the
/// fixed tree. Mirrors kernels.h so GemmReference stays a genuinely separate
/// implementation of the same contract.
float ReferenceLaneBlockedDot(const float* a, const float* b, size_t m,
                              size_t k, size_t i, size_t j, bool trans_a) {
  float lanes[8] = {0.0f};
  for (size_t p = 0; p < k; ++p) {
    const float av = trans_a ? a[p * m + i] : a[i * k + p];
    lanes[p % 8] += av * b[j * k + p];
  }
  const float t0 = lanes[0] + lanes[4];
  const float t1 = lanes[1] + lanes[5];
  const float t2 = lanes[2] + lanes[6];
  const float t3 = lanes[3] + lanes[7];
  return (t0 + t2) + (t1 + t3);
}

}  // namespace

void GemmReference(const float* a, const float* b, float* c, size_t m,
                   size_t k, size_t n, bool trans_a, bool trans_b,
                   bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc;
      if (trans_b) {
        // Transposed-B products are dot products; the kernel layer computes
        // them in the lane-blocked order, so the oracle defines that order.
        acc = ReferenceLaneBlockedDot(a, b, m, k, i, j, trans_a);
      } else {
        acc = 0.0f;
        for (size_t p = 0; p < k; ++p) {
          const float av = trans_a ? a[p * m + i] : a[i * k + p];
          acc += av * b[p * n + j];
        }
      }
      float* dst = c + i * n + j;
      if (accumulate) {
        *dst += acc;
      } else {
        *dst = acc;
      }
    }
  }
}

void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n, bool trans_a, bool trans_b, bool accumulate) {
  // Degenerate sizes are legal and handled explicitly: an empty output is a
  // no-op, and k == 0 is an empty sum (zero unless accumulating).
  if (m == 0 || n == 0) return;
  SEQFM_CHECK(c != nullptr) << "Gemm: null C with " << m << "x" << n
                            << " output";
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  SEQFM_CHECK(a != nullptr) << "Gemm: null A with k=" << k;
  SEQFM_CHECK(b != nullptr) << "Gemm: null B with k=" << k;
  const kernels::KernelTable& kt = kernels::Active();
  const size_t work = m * n * k;
  if (work < kGemmParallelMinWork) {
    GemmRowRange(kt, a, b, c, m, k, n, trans_a, trans_b, accumulate, 0, m);
    return;
  }
  const size_t grain = std::max(kMr, GrainForRows(n * k, kGemmParallelMinWork));
  util::ParallelFor(m, grain, [=, &kt](size_t i0, size_t i1) {
    GemmRowRange(kt, a, b, c, m, k, n, trans_a, trans_b, accumulate, i0, i1);
  });
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out, bool trans_a,
            bool trans_b, bool accumulate) {
  SEQFM_CHECK_EQ(a.rank(), 2u);
  SEQFM_CHECK_EQ(b.rank(), 2u);
  const size_t m = trans_a ? a.dim(1) : a.dim(0);
  const size_t ka = trans_a ? a.dim(0) : a.dim(1);
  const size_t kb = trans_b ? b.dim(1) : b.dim(0);
  const size_t n = trans_b ? b.dim(0) : b.dim(1);
  SEQFM_CHECK_EQ(ka, kb);
  SEQFM_CHECK_EQ(out->rank(), 2u);
  SEQFM_CHECK_EQ(out->dim(0), m);
  SEQFM_CHECK_EQ(out->dim(1), n);
  Gemm(a.data(), b.data(), out->data(), m, ka, n, trans_a, trans_b, accumulate);
}

void BatchedMatMul(const Tensor& a, const Tensor& b, Tensor* out, bool trans_a,
                   bool trans_b, bool accumulate) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(b.rank(), 3u);
  SEQFM_CHECK_EQ(a.dim(0), b.dim(0));
  const size_t batch = a.dim(0);
  const size_t m = trans_a ? a.dim(2) : a.dim(1);
  const size_t ka = trans_a ? a.dim(1) : a.dim(2);
  const size_t kb = trans_b ? b.dim(2) : b.dim(1);
  const size_t n = trans_b ? b.dim(1) : b.dim(2);
  SEQFM_CHECK_EQ(ka, kb);
  SEQFM_CHECK_EQ(out->rank(), 3u);
  SEQFM_CHECK_EQ(out->dim(0), batch);
  SEQFM_CHECK_EQ(out->dim(1), m);
  SEQFM_CHECK_EQ(out->dim(2), n);
  // Parallelize over the batch; the per-item Gemm then runs inline on the
  // worker (nested ParallelFor calls are serial), which is the right split
  // for the many-small-matrices shape attention produces.
  const size_t per_item = m * n * ka;
  const size_t grain = GrainForRows(per_item, kGemmParallelMinWork);
  util::ParallelFor(batch, grain, [&, trans_a, trans_b,
                                   accumulate](size_t b0, size_t b1) {
    for (size_t i = b0; i < b1; ++i) {
      Gemm(a.BatchData(i), b.BatchData(i), out->BatchData(i), m, ka, n,
           trans_a, trans_b, accumulate);
    }
  });
}

void BatchedMatMulShared(const Tensor& a, const Tensor& w, Tensor* out,
                         bool trans_w, bool accumulate) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(w.rank(), 2u);
  const size_t rows = a.dim(0) * a.dim(1);
  const size_t k = a.dim(2);
  const size_t kw = trans_w ? w.dim(1) : w.dim(0);
  const size_t n = trans_w ? w.dim(0) : w.dim(1);
  SEQFM_CHECK_EQ(k, kw);
  SEQFM_CHECK_EQ(out->rank(), 3u);
  SEQFM_CHECK_EQ(out->dim(0), a.dim(0));
  SEQFM_CHECK_EQ(out->dim(1), a.dim(1));
  SEQFM_CHECK_EQ(out->dim(2), n);
  Gemm(a.data(), w.data(), out->data(), rows, k, n, /*trans_a=*/false, trans_w,
       accumulate);
}

void SoftmaxLastDim(const Tensor& in, const Tensor* mask, Tensor* out) {
  SEQFM_CHECK(in.SameShape(*out));
  const size_t cols = in.shape().back();
  const size_t rows = in.size() / cols;
  size_t mask_rows = 0;
  const float* mask_data = nullptr;
  if (mask != nullptr) {
    SEQFM_CHECK_EQ(mask->rank(), 2u);
    SEQFM_CHECK_EQ(mask->dim(1), cols);
    mask_rows = mask->dim(0);
    mask_data = mask->data();
    // The mask is broadcast over the leading batch dimension; the number of
    // attention rows per batch item must equal the mask's row count.
    SEQFM_CHECK_EQ(rows % mask_rows, 0u);
  }
  const float* src = in.data();
  float* dst = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(cols, kMathGrain), [=, &kt](size_t r0,
                                                                   size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* x = src + r * cols;
      float* y = dst + r * cols;
      const float* mrow =
          mask_data ? mask_data + (r % mask_rows) * cols : nullptr;
      const float max_val = kt.reduce_max_add(x, mrow, cols);
      // A fully masked row would yield max == -inf; fall back to zeros.
      if (!std::isfinite(max_val)) {
        std::fill(y, y + cols, 0.0f);
        continue;
      }
      // Masked (-inf) and NaN entries come out of the shared exp as exact
      // zeros, reproducing the historical per-element isfinite fallback.
      const float total = kt.softmax_exp_sum(x, mrow, max_val, y, cols);
      kt.scale_inplace(1.0f / total, y, cols);
    }
  });
}

void Add(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* av = a.data();
  const float* bv = b.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(a.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.add(av + i0, bv + i0, y + i0, i1 - i0);
  });
}

void Sub(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* av = a.data();
  const float* bv = b.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(a.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.sub(av + i0, bv + i0, y + i0, i1 - i0);
  });
}

void Mul(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* av = a.data();
  const float* bv = b.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(a.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.mul(av + i0, bv + i0, y + i0, i1 - i0);
  });
}

void Relu(const Tensor& in, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(in.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.relu(x + i0, y + i0, i1 - i0);
  });
}

void Sigmoid(const Tensor& in, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(in.size(), kMathGrain, [=, &kt](size_t i0, size_t i1) {
    kt.sigmoid(x + i0, y + i0, i1 - i0);
  });
}

void Tanh(const Tensor& in, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(in.size(), kMathGrain, [=, &kt](size_t i0, size_t i1) {
    kt.tanh(x + i0, y + i0, i1 - i0);
  });
}

void AddBiasLastDim(const Tensor& in, const Tensor& bias, Tensor* out) {
  CheckSameShape(in, *out);
  SEQFM_CHECK_EQ(bias.rank(), 1u);
  const size_t d = in.shape().back();
  SEQFM_CHECK_EQ(bias.dim(0), d);
  const size_t rows = in.size() / d;
  const float* x = in.data();
  const float* bv = bias.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(d, kEwGrain), [=, &kt](size_t r0,
                                                              size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      kt.add(x + r * d, bv, y + r * d, d);
    }
  });
}

void Scale(const Tensor& in, float alpha, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(in.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.scale(alpha, x + i0, y + i0, i1 - i0);
  });
}

void AddScalar(const Tensor& in, float alpha, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  for (size_t i = 0; i < out->size(); ++i) y[i] = x[i] + alpha;
}

void AddBroadcastBatch(const Tensor& in, const Tensor& table, Tensor* out) {
  CheckSameShape(in, *out);
  const size_t batch = in.dim(0), rows = in.dim(1), d = in.dim(2);
  const float* src = table.data();
  util::ParallelFor(batch, GrainForRows(rows * d, kEwGrain),
                    [out, &in, src, rows, d](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      const float* xb = in.BatchData(b);
      float* dst = out->BatchData(b);
      for (size_t i = 0; i < rows * d; ++i) dst[i] = xb[i] + src[i];
    }
  });
}

void BatchedMatMulLeftShared(const Tensor& w, const Tensor& p, Tensor* out,
                             bool trans_p) {
  const size_t batch = p.dim(0);
  const size_t h2 = w.dim(0), h = w.dim(1);
  const size_t d = trans_p ? p.dim(1) : p.dim(2);
  util::ParallelFor(batch, GrainForRows(h2 * h * d, util::kMinParallelWork),
                    [&, h2, h, d, trans_p](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      Gemm(w.data(), p.BatchData(b), out->BatchData(b), h2, h, d, false,
           trans_p, false);
    }
  });
}

void RowDot(const Tensor& a, const Tensor& b, Tensor* out) {
  const size_t batch = a.dim(0), d = a.dim(1);
  const float* av = a.data();
  const float* bv = b.data();
  float* out_data = out->data();
  // One dispatched lane-blocked dot per row.
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(batch, GrainForRows(d, kEwGrain),
                    [=, &kt](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      out_data[i] = kt.dot(av + i * d, bv + i * d, d);
    }
  });
}

void LayerNormLastDim(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps, Tensor* out, Tensor* xhat, float* inv_std) {
  CheckSameShape(x, *out);
  const size_t d = x.shape().back();
  SEQFM_CHECK_EQ(gamma.size(), d);
  SEQFM_CHECK_EQ(beta.size(), d);
  const size_t rows = x.size() / d;
  const float* xv = x.data();
  const float* gv = gamma.data();
  const float* bv = beta.data();
  float* out_data = out->data();
  float* xhat_data = xhat != nullptr ? xhat->data() : nullptr;
  // Mean and variance use the dispatched lane-blocked reductions; the
  // normalize/affine pass is the dispatched row map. Identical bits at every
  // SIMD level and thread count, with or without the saved intermediates.
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(d, kMathGrain),
                    [=, &kt](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* xr = xv + r * d;
      const float mean = kt.reduce_sum(xr, d) / static_cast<float>(d);
      const float var =
          kt.reduce_sum_sq_diff(xr, mean, d) / static_cast<float>(d);
      const float is = 1.0f / std::sqrt(var + eps);
      if (inv_std != nullptr) inv_std[r] = is;
      kt.layer_norm_row(xr, gv, bv, mean, is, d, out_data + r * d,
                        xhat_data != nullptr ? xhat_data + r * d : nullptr);
    }
  });
}

void ConcatLastDim(const std::vector<const Tensor*>& parts, Tensor* out) {
  const size_t batch = out->dim(0), total = out->dim(1);
  size_t offset = 0;
  for (const Tensor* p : parts) {
    const size_t d = p->dim(1);
    for (size_t b = 0; b < batch; ++b) {
      const float* src = p->data() + b * d;
      float* dst = out->data() + b * total + offset;
      for (size_t j = 0; j < d; ++j) dst[j] = src[j];
    }
    offset += d;
  }
}

void ConcatAxis1(const Tensor& a, const Tensor& b, Tensor* out) {
  const size_t batch = out->dim(0), na = a.dim(1), nb = b.dim(1), d = a.dim(2);
  for (size_t i = 0; i < batch; ++i) {
    float* dst = out->BatchData(i);
    const float* sa = a.BatchData(a.dim(0) == 1 ? 0 : i);
    const float* sb = b.BatchData(b.dim(0) == 1 ? 0 : i);
    for (size_t j = 0; j < na * d; ++j) dst[j] = sa[j];
    for (size_t j = 0; j < nb * d; ++j) dst[na * d + j] = sb[j];
  }
}

void SliceRow(const Tensor& in, size_t row, Tensor* out) {
  const size_t batch = in.dim(0), d = in.dim(2);
  SEQFM_CHECK_LT(row, in.dim(1));
  for (size_t b = 0; b < batch; ++b) {
    const float* src = in.BatchData(b) + row * d;
    float* dst = out->data() + b * d;
    for (size_t j = 0; j < d; ++j) dst[j] = src[j];
  }
}

void SliceBlock(const Tensor& in, size_t row, size_t col, Tensor* out) {
  const size_t w = in.shape().back();
  const size_t m = out->dim(0), n = out->dim(1);
  SEQFM_CHECK_LE((row + m) * w, in.size());
  SEQFM_CHECK_LE(col + n, w);
  for (size_t i = 0; i < m; ++i) {
    const float* src = in.data() + (row + i) * w + col;
    float* dst = out->data() + i * n;
    for (size_t j = 0; j < n; ++j) dst[j] = src[j];
  }
}

void Copy(const Tensor& in, Tensor* out) {
  SEQFM_CHECK_EQ(out->size(), in.size());
  const float* src = in.data();
  float* dst = out->data();
  const size_t n = out->size();
  for (size_t i = 0; i < n; ++i) dst[i] = src[i];
}

void ExpandRows(const Tensor& in, Tensor* out) {
  const size_t batch = out->dim(0), n = out->dim(1), d = out->dim(2);
  for (size_t b = 0; b < batch; ++b) {
    const float* src = in.data() + b * d;
    float* dst = out->BatchData(b);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) dst[i * d + j] = src[j];
    }
  }
}

void PairwiseProductUpper(const Tensor& in, Tensor* out) {
  const size_t batch = in.dim(0), n = in.dim(1), d = in.dim(2);
  for (size_t b = 0; b < batch; ++b) {
    const float* src = in.BatchData(b);
    float* dst = out->BatchData(b);
    size_t p = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++p) {
        const float* xi = src + i * d;
        const float* xj = src + j * d;
        float* row = dst + p * d;
        for (size_t c = 0; c < d; ++c) row[c] = xi[c] * xj[c];
      }
    }
  }
}

void PairwiseProductCross(const Tensor& a, const Tensor& b, Tensor* out) {
  const size_t batch = a.dim(0), h = a.dim(1), m = b.dim(1), d = a.dim(2);
  for (size_t bt = 0; bt < batch; ++bt) {
    const float* sa = a.BatchData(bt);
    const float* sb = b.BatchData(bt);
    float* dst = out->BatchData(bt);
    for (size_t i = 0; i < h; ++i) {
      for (size_t j = 0; j < m; ++j) {
        const float* xi = sa + i * d;
        const float* xj = sb + j * d;
        float* row = dst + (i * m + j) * d;
        for (size_t c = 0; c < d; ++c) row[c] = xi[c] * xj[c];
      }
    }
  }
}

void SumAxis1(const Tensor& in, float scale, Tensor* out, bool accumulate) {
  SEQFM_CHECK_EQ(in.rank(), 3u);
  SEQFM_CHECK_EQ(out->rank(), 2u);
  SEQFM_CHECK_EQ(out->dim(0), in.dim(0));
  SEQFM_CHECK_EQ(out->dim(1), in.dim(2));
  const size_t batch = in.dim(0), rows = in.dim(1), d = in.dim(2);
  if (!accumulate) out->Zero();
  // Each batch item owns a disjoint output row, so the batch loop is safe to
  // split across the pool.
  float* out_data = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(batch, GrainForRows(rows * d, kEwGrain),
                    [&in, &kt, out_data, scale, rows, d](size_t b0,
                                                         size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      const float* src = in.BatchData(b);
      float* dst = out_data + b * d;
      for (size_t i = 0; i < rows; ++i) {
        kt.axpy(scale, src + i * d, dst, d);
      }
    }
  });
}

void SumLastDim(const Tensor& in, Tensor* out) {
  const size_t d = in.shape().back();
  const size_t rows = in.size() / d;
  SEQFM_CHECK_EQ(out->size(), rows);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(d, kEwGrain), [=, &kt](size_t r0,
                                                              size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      y[r] = kt.reduce_sum(x + r * d, d);
    }
  });
}

float SumAll(const Tensor& in) {
  // Deliberately serial and deliberately NOT lane-blocked: losses and
  // whole-tensor diagnostics keep their historical ascending order, which is
  // identical at every thread count and SIMD level by virtue of never being
  // vectorized.
  float acc = 0.0f;
  for (size_t i = 0; i < in.size(); ++i) acc += in.data()[i];
  return acc;
}

}  // namespace tensor
}  // namespace seqfm
