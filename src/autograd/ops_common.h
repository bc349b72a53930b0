#ifndef SEQFM_AUTOGRAD_OPS_COMMON_H_
#define SEQFM_AUTOGRAD_OPS_COMMON_H_

#include <memory>
#include <vector>

#include "autograd/trace.h"
#include "autograd/variable.h"
#include "core/scratch_arena.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace autograd {
namespace internal {

// Grain tuning for the parallel op loops lives next to ParallelFor; see
// util::kEwGrain / util::kMathGrain / util::GrainForRows.
using util::GrainForRows;
using util::kEwGrain;
using util::kMathGrain;

/// Allocates an op node of kind \p kind: requires_grad is inherited from the
/// parents, the backward closure is attached by the caller after
/// construction. The kind only reaches the tracer; the node does not keep it.
///
/// When the thread's grad mode is off (NoGradGuard), the node is detached:
/// parents are dropped and requires_grad stays false, so the graph is never
/// retained and every op file's `if (node->requires_grad)` backward guard
/// skips closure construction and tape buffers. Callers must gate backward
/// attachment on node->requires_grad, never on the parents directly.
inline NodePtr MakeNode(OpKind kind, std::vector<NodePtr> parents,
                        tensor::Tensor value,
                        const TraceAttrs* attrs = nullptr) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  // The IR tracer sees every op here, before the no-grad early return drops
  // the parents (tracing always runs tape-free).
  if (TracingActive()) TraceRecord(kind, node, parents, attrs);
  if (!GradMode()) return node;
  node->parents = std::move(parents);
  for (const auto& p : node->parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  return node;
}

/// Output tensor for a kernel that overwrites every element. The taped path
/// keeps the historical zero-filled allocation. The tape-free path skips the
/// fill, and — inside a core::ScratchScope (the serving request scopes in
/// serve::Predictor) — skips the heap too, bump-allocating from the
/// thread's ScratchArena so a steady-state request performs zero tensor
/// heap allocations. Either way the kernel writes the same values, so
/// parity across modes is bit-for-bit. Arena-backed tensors must not
/// outlive their scope (ScratchScope documents the escape rules).
inline tensor::Tensor OutputBuffer(std::vector<size_t> shape) {
  if (GradMode()) return tensor::Tensor(std::move(shape));
  // While a trace is being recorded the instructions keep every node (and so
  // its value) alive past the enclosing scratch scope, so outputs must own
  // their storage; the arena would recycle it out from under the compiler.
  if (core::ScratchScopeActive() && !TracingActive()) {
    size_t count = 1;
    for (size_t d : shape) count *= d;
    float* buf = core::ThreadScratchArena().AllocateFloats(count);
    return tensor::Tensor::WrapExternal(std::move(shape), buf, count);
  }
  return tensor::Tensor::Uninitialized(std::move(shape));
}

/// True when the op being built must record tape state (saved intermediates,
/// backward closures) for at least one of its inputs.
inline bool TapeActive(std::initializer_list<const Variable*> inputs) {
  if (!GradMode()) return false;
  for (const Variable* v : inputs) {
    if (v->defined() && v->requires_grad()) return true;
  }
  return false;
}

}  // namespace internal
}  // namespace autograd
}  // namespace seqfm

#endif  // SEQFM_AUTOGRAD_OPS_COMMON_H_
