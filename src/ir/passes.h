#ifndef SEQFM_IR_PASSES_H_
#define SEQFM_IR_PASSES_H_

#include <cstddef>
#include <string>

#include "data/dataset.h"
#include "ir/trace.h"

namespace seqfm {
namespace ir {

/// \brief Optimization passes over traced programs.
///
/// The pass pipeline turns two aligned traces of one model (candidate counts
/// 1 and C) into a factored pair of programs:
///   prologue  — the candidate-invariant sub-program at count 1, executed
///               once per (user, history) and cached in the ContextCache;
///   body      — the per-candidate sub-program, reading the prologue's
///               outputs through kSlot values (tiled or broadcast where
///               shapes demand it). Each body value scales with the row
///               count along one axis (Value::row_axis) or not at all, so
///               one body, resized to the largest chunk (ResizeRows), runs
///               every candidate count.
/// SplitAttention runs on the two traces first. Each sub-program then goes
/// through FoldConstants → DeadCodeElim → FuseElementwise → PlanArena before
/// execution.

struct FactorResult {
  Program prologue;
  Program body;
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Splits attention over row-blocked inputs into per-block attention, on
/// both traces alike, before Factor. Three rewrites:
///   - a gather that reads the candidate column and another column becomes
///     one gather per run of columns, concatenated on axis 1;
///   - a row-wise op (bmm_shared, add_bias, layer_norm, unary maps) over an
///     axis-1 concatenation of candidate-invariant and candidate-variant
///     rows becomes the concatenation of the op on each row block;
///   - Bmm(MaskedSoftmax([Scale] Bmm(Q, K^T), M), V) over row-blocked Q,
///     K, V becomes one attention per row block of Q over the column blocks
///     M may leave open (a captured [rows, cols] mask is read; SeqFM's
///     cross_padding_mask is known by construction), concatenated on axis
///     1. Closed blocks inside a row block's window become zero rows, and a
///     candidate-invariant GEMM operand is passed as a shared [rows, d]
///     matrix (slice_block of batch item 0). Dropped columns only ever
///     held exact-zero probabilities, and the lane-blocked softmax
///     reductions are invariant under the lane rotation a window causes
///     (tensor/kernels.h), so every kept probability keeps its bits.
/// Factor's taint and tiling check then hoist the invariant blocks into the
/// prologue. Each new instruction is evaluated on the traced tensors, and
/// every value a rewrite replaces must come out bit-identical, so scores
/// stay bit-identical to the eager forward. The rewrites are kept only when
/// an attention site was split: other programs are left exactly as traced.
/// Returns the number of attention sites split.
size_t SplitAttention(TraceResult* trace1, TraceResult* traceC,
                      const data::Batch& batch1, const data::Batch& batchC);

/// Factors aligned traces of the same model. \p trace1 ran at candidate
/// count 1 and \p traceC at count >= 2 (two distinct candidates are what
/// disambiguate the candidate column in gather bindings); \p batch1 /
/// \p batchC are the batches they were traced against.
///
/// A value is candidate-invariant when it is so both structurally (its
/// instruction consumes no candidate column, transitively) and empirically
/// (its count-C tensor is exactly the count-1 tensor block-tiled C times,
/// bit-for-bit). Structural claims an empirical check refutes are demoted
/// and the taint re-propagated to a fixpoint, so a surprising numeric
/// dependence can never be hoisted. Each body value records its row axis:
/// the axis whose count-C extent is C times its count-1 extent. Fails (with
/// .error set) when the traces do not align instruction-for-instruction,
/// when a gather binding cannot be reconciled across counts, when a body
/// value's shape changes across counts other than along one such axis, or
/// when the final score itself is candidate-invariant.
FactorResult Factor(const TraceResult& trace1, const TraceResult& traceC,
                    const data::Batch& batch1, const data::Batch& batchC);

/// Evaluates instructions whose inputs are all captured constants and
/// re-kinds their outputs as constants. Synthesized masks, gathers, and
/// no-input instructions are never folded (their values depend on the
/// request). Returns the number of instructions folded away.
size_t FoldConstants(Program* program);

/// Removes instructions whose outputs are unreachable from Program::output
/// and Program::slot_outputs. Returns the number removed.
size_t DeadCodeElim(Program* program);

/// Aliases the output of single-consumer elementwise chain links (relu,
/// sigmoid, tanh, scale, add_scalar, reshape) onto their input buffer so the
/// executor runs them in place (reshape becomes free). Returns the number of
/// values aliased.
size_t FuseElementwise(Program* program);

/// Assigns every live kLocal value a fixed offset in the execution frame via
/// lifetime analysis (first-fit over a merged free list, 64-byte-aligned
/// offsets) and sets Program::frame_floats to the planned high water. Sizes
/// are taken at Program::count rows; a run over fewer rows uses a prefix of
/// each range.
/// Aliased values share their root's buffer and extend its lifetime. Must
/// run after the other passes.
void PlanArena(Program* program);

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_PASSES_H_
