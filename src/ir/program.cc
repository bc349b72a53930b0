#include "ir/program.h"

#include <atomic>

#include "nn/masks.h"
#include "util/logging.h"

namespace seqfm {
namespace ir {

uint64_t NextProgramUid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void ResizeRows(Program* program, size_t rows) {
  SEQFM_CHECK_GT(program->count, 0u);
  for (Value& v : program->values) {
    if (v.row_axis == kNoRowAxis) continue;
    size_t& extent = v.shape[v.row_axis];
    extent = extent / program->count * rows;
  }
  program->count = rows;
}

void MaterializeMask(OpKind kind, bool causal, size_t ns,
                     const int32_t* dynamic_ids, size_t batch, size_t n,
                     size_t total, float* dst) {
  size_t block = 0;
  switch (kind) {
    case OpKind::kZeros:
      for (size_t i = 0; i < total; ++i) dst[i] = 0.0f;
      return;
    case OpKind::kPaddingMask:
      block = n * n;
      SEQFM_CHECK_EQ(batch * block, total);
      nn::PaddingMaskBlock(causal, dynamic_ids, n, dst);
      break;
    case OpKind::kHistoryMask:
      block = n;
      SEQFM_CHECK_EQ(batch * block, total);
      nn::HistoryMaskBlock(dynamic_ids, n, dst);
      break;
    case OpKind::kCrossPaddingMask:
      block = (ns + n) * (ns + n);
      SEQFM_CHECK_EQ(batch * block, total);
      nn::CrossMaskBlock(ns, dynamic_ids, n, dst);
      break;
    default:
      SEQFM_CHECK(false) << "not a synthesized constant: "
                         << OpKindName(kind);
  }
  // All samples of a serving chunk share one history, so the block repeats.
  for (size_t b = 1; b < batch; ++b) {
    float* out = dst + b * block;
    for (size_t i = 0; i < block; ++i) out[i] = dst[i];
  }
}

}  // namespace ir
}  // namespace seqfm
