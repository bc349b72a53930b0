#ifndef SEQFM_AUTOGRAD_OP_KIND_H_
#define SEQFM_AUTOGRAD_OP_KIND_H_

#include <cstdint>

namespace seqfm {
namespace autograd {

/// \brief The op vocabulary shared by autograd and the serving compiler.
///
/// Every autograd op hands its kind to internal::MakeNode, which reports it
/// to the tracer (autograd/trace.h); a compiled instruction (ir::Instr)
/// carries the same kind. Each forward op's loops live once, in a tensor::
/// kernel (tensor/ops.h) that both the eager op and the compiled executor
/// (ir::EvalPure, or RunProgram for the gathers) call.
enum class OpKind : uint8_t {
  // --- traceable forward ops --------------------------------------------
  kAdd,
  kSub,
  kMul,
  kScale,
  kAddScalar,
  kAddBias,
  kAddBroadcastBatch,
  kRelu,
  kSigmoid,
  kTanh,
  kMatMul,
  kBmmShared,
  kBmm,
  kBmmLeftShared,
  kRowDot,
  kMaskedSoftmax,
  kLayerNorm,
  kConcatLast,
  kConcatAxis1,
  kReduceAxis1,  // mean_axis1 / sum_axis1; alpha carries the scale
  kSliceRow,
  kSumLast,
  kReshape,
  kExpandRows,
  kPairwiseUpper,
  kPairwiseCross,
  kEmbeddingGather,
  kEmbeddingSumGather,
  // --- compiler-synthesized (no eager op) --------------------------------
  kPaddingMask,       // nn::MakeBatchPaddingMask(dynamic_ids, B, n, causal)
  kHistoryMask,       // nn::MakeHistoryPaddingMask(dynamic_ids, B, n)
  kCrossPaddingMask,  // SeqFM's padding-aware cross mask (ns in Instr::row)
  kZeros,             // zero tensor (GRU initial state)
  kTileRows,          // repeat the whole input buffer out.size/in.size times
  kSliceBlock,        // [rows, cols] sub-matrix at (Instr::row, Instr::col)
  // --- training-only: a serving trace that reaches one is refused --------
  kDropout,  // must stay first of this block (IsTrainingOnly)
  kSumAll,
  kMeanAll,
  kBprLoss,
  kBceLoss,
  kMseLoss,
};

/// Name of an op kind ("scale", "tile_rows", "dropout", ...) for logs,
/// diagnostics and tests.
const char* OpKindName(OpKind kind);

/// True for the ops only a training step builds (dropout, losses, whole-
/// tensor reductions). The tracer refuses them by name.
inline bool IsTrainingOnly(OpKind kind) { return kind >= OpKind::kDropout; }

/// How a Variable::Constant reachable from a serving forward may be handled
/// by the compiler; carried on the leaf node (Node::constant). A constant
/// left at kNone poisons the trace (the tracer cannot know whether its value
/// depends on the request), which makes the predictor fall back to the
/// eager path for that model.
enum class ConstantKind : uint8_t {
  /// Not annotated.
  kNone = 0,
  /// Fixed at model construction (causal/cross/zero masks): the compiler
  /// captures the tensor by value.
  kCaptureValue,
  /// nn::MakeBatchPaddingMask(dynamic_ids, batch, n, causal) without and
  /// with the causal structure: depends only on the request history;
  /// re-materialized by the executor.
  kPaddingMask,
  kCausalPaddingMask,
  /// nn::MakeHistoryPaddingMask(dynamic_ids, batch, n) ([batch, n] additive
  /// mask, DIN): depends only on the request history.
  kHistoryMask,
  /// core::SeqFm's padding-aware cross-attention mask
  /// ([batch * (2 + n), 2 + n] additive mask): depends only on the request
  /// history.
  kCrossPaddingMask,
  /// Tensor::Zeros of a batch-scaled shape (GRU initial state).
  kZeroState,
};

}  // namespace autograd
}  // namespace seqfm

#endif  // SEQFM_AUTOGRAD_OP_KIND_H_
