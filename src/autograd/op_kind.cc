#include "autograd/op_kind.h"

namespace seqfm {
namespace autograd {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kScale: return "scale";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kAddBias: return "add_bias";
    case OpKind::kAddBroadcastBatch: return "add_broadcast_batch";
    case OpKind::kRelu: return "relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kBmmShared: return "bmm_shared";
    case OpKind::kBmm: return "bmm";
    case OpKind::kBmmLeftShared: return "bmm_left_shared";
    case OpKind::kRowDot: return "row_dot";
    case OpKind::kMaskedSoftmax: return "masked_softmax";
    case OpKind::kLayerNorm: return "layer_norm";
    case OpKind::kConcatLast: return "concat_last";
    case OpKind::kConcatAxis1: return "concat_axis1";
    case OpKind::kReduceAxis1: return "reduce_axis1";
    case OpKind::kSliceRow: return "slice_row";
    case OpKind::kSumLast: return "sum_last";
    case OpKind::kReshape: return "reshape";
    case OpKind::kExpandRows: return "expand_rows";
    case OpKind::kPairwiseUpper: return "pairwise_upper";
    case OpKind::kPairwiseCross: return "pairwise_cross";
    case OpKind::kEmbeddingGather: return "embedding_gather";
    case OpKind::kEmbeddingSumGather: return "embedding_sum_gather";
    case OpKind::kPaddingMask: return "padding_mask";
    case OpKind::kHistoryMask: return "history_mask";
    case OpKind::kCrossPaddingMask: return "cross_padding_mask";
    case OpKind::kZeros: return "zeros";
    case OpKind::kTileRows: return "tile_rows";
    case OpKind::kSliceBlock: return "slice_block";
    case OpKind::kDropout: return "dropout";
    case OpKind::kSumAll: return "sum_all";
    case OpKind::kMeanAll: return "mean_all";
    case OpKind::kBprLoss: return "bpr_loss";
    case OpKind::kBceLoss: return "bce_loss";
    case OpKind::kMseLoss: return "mse_loss";
  }
  return "?";
}

}  // namespace autograd
}  // namespace seqfm
