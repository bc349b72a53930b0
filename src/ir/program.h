#ifndef SEQFM_IR_PROGRAM_H_
#define SEQFM_IR_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "autograd/op_kind.h"
#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace seqfm {
namespace ir {

/// \brief The serving compiler's flat op program.
///
/// A Program is a straight-line SSA-ish instruction list recorded by tracing
/// one tape-free model forward (trace.h), then rewritten by the optimization
/// passes (passes.h) and executed allocation-free by the VM (exec.h). Every
/// instruction reads and writes Value ids. Shapes are static except along a
/// body value's row axis (Value::row_axis): a body is planned for
/// Program::count rows and runs any row count up to it, so one body serves
/// every candidate count.

/// Instruction opcode: the op vocabulary autograd records (see
/// autograd/op_kind.h), shared so a traced node's kind is the instruction's
/// kind. Compiled programs also use the compiler-synthesized kinds and never
/// contain the training-only ones.
using OpKind = autograd::OpKind;
using autograd::OpKindName;

/// How a Value resolves to a tensor at execution time.
enum class ValueKind : uint8_t {
  kLocal,     // planned offset in the execution frame's arena block
  kParam,     // live parameter Node (survives checkpoint reloads)
  kConstant,  // captured by value into Program::constants
  kSlot,      // candidate-invariant prologue output, SharedContext::slots
};

/// Which request index array an embedding gather reads.
enum class IndexSource : uint8_t { kNone, kStatic, kDynamic, kUnified };

/// Affine per-column binding of a gather's index matrix to one request index
/// array: idx[b, j] == src[b, cols[j]] + deltas[j], except negative source
/// entries (padding) stay negative untouched. Fitted at trace time against a
/// real Batch and re-verified on every trace; the executor synthesizes the
/// source arrays per chunk, so gathers need no per-request index vectors.
struct IndexBinding {
  IndexSource source = IndexSource::kNone;
  std::vector<uint32_t> cols;
  std::vector<int32_t> deltas;

  bool operator==(const IndexBinding& o) const {
    return source == o.source && cols == o.cols && deltas == o.deltas;
  }
  bool operator!=(const IndexBinding& o) const { return !(*this == o); }
};

constexpr uint32_t kNoValue = 0xffffffffu;
/// Value::row_axis of a value whose shape does not depend on the row count.
constexpr uint8_t kNoRowAxis = 0xff;

struct Instr {
  OpKind kind = OpKind::kAdd;
  std::vector<uint32_t> in;  // input value ids, positional
  uint32_t out = 0;
  // Scalar attributes (only the fields the kind needs are meaningful).
  float alpha = 0.0f;    // scale / add_scalar / reduce_axis1
  float eps = 0.0f;      // layer_norm
  uint32_t row = 0;      // slice_row; slice_block; cross-padding mask's n_static
  uint32_t col = 0;      // slice_block
  bool trans_a = false;  // bmm
  bool trans_b = false;  // bmm; bmm_shared and bmm_left_shared (right operand)
  bool causal = false;  // padding mask
  IndexBinding binding;  // embedding gathers
  /// Gathers only: the index matrix observed at trace time, kept so passes
  /// can re-verify the binding against other traces. Not used at execution.
  std::vector<int32_t> traced_indices;
};

struct Value {
  ValueKind kind = ValueKind::kLocal;
  std::vector<size_t> shape;
  /// kParam: the live node (raw; Program::param_nodes keeps it alive).
  autograd::Node* param = nullptr;
  /// kConstant / kSlot: index into Program::constants / SharedContext::slots.
  uint32_t index = 0;
  /// kLocal: planned float offset into the frame block (passes::PlanArena);
  /// kNoOffset until planned or for dead values.
  size_t offset = 0;
  /// Fusion: when != kNoValue this local shares its buffer with that value
  /// (in-place elementwise chains, copy-elided reshapes).
  uint32_t alias_of = kNoValue;
  /// The axis whose extent is a fixed per-row extent times the program's
  /// row count (Program::count), or kNoRowAxis. Only body locals scale:
  /// the executor re-views them for each call's row count.
  uint8_t row_axis = kNoRowAxis;

  size_t size() const {
    size_t n = 1;
    for (size_t d : shape) n *= d;
    return n;
  }
};

constexpr size_t kNoOffset = static_cast<size_t>(-1);

struct Program {
  std::vector<Value> values;
  std::vector<Instr> instrs;
  std::vector<tensor::Tensor> constants;
  /// Keepalives for the raw Node* in Value::param. Checkpoint reloads move
  /// new storage into the same nodes, so params are read live per execution.
  std::vector<autograd::NodePtr> param_nodes;
  /// Value id of the score tensor (bodies) — unused by prologues.
  uint32_t output = kNoValue;
  /// Value ids written into SharedContext::slots, in slot order (prologues).
  std::vector<uint32_t> slot_outputs;

  /// Row (candidate) count the value shapes are sized for: the count a
  /// trace ran at, and a body's planned capacity. Then the Batch index
  /// geometry the executor synthesizes per chunk.
  size_t count = 0;
  size_t n_static = 0;
  size_t n_seq = 0;
  size_t n_unified = 0;

  /// Planned frame block size in floats (passes::PlanArena).
  size_t frame_floats = 0;
  /// Key for the per-thread execution frame cache.
  uint64_t uid = 0;
};

/// Process-unique program id for frame caching.
uint64_t NextProgramUid();

/// Re-sizes every row-scaled value of \p program (Value::row_axis) from
/// program->count rows to \p rows rows and sets program->count to \p rows.
void ResizeRows(Program* program, size_t rows);

/// Materializes a compiler-synthesized mask/zeros instruction into \p dst
/// (size \p batch * rows_per_sample * cols as implied by the kind) from the
/// request history. Shared by the executor and the trace-time verification;
/// each sample's block comes from the nn:: block writer the model's own mask
/// builder uses (nn/masks.h), so the rule is written once.
///   kPaddingMask:      [batch*n, n], causal per Instr::causal
///   kHistoryMask:      [batch, n]
///   kCrossPaddingMask: [batch*(ns+n), ns+n], ns = Instr::row
///   kZeros:            all zero
/// \p dynamic_ids is one history row of length \p n (every sample of a
/// serving chunk shares it).
void MaterializeMask(OpKind kind, bool causal, size_t ns,
                     const int32_t* dynamic_ids, size_t batch, size_t n,
                     size_t total, float* dst);

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_PROGRAM_H_
