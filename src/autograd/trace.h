#ifndef SEQFM_AUTOGRAD_TRACE_H_
#define SEQFM_AUTOGRAD_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace seqfm {
namespace autograd {

/// \brief Trace hooks: how the serving compiler (src/ir/) observes the eager
/// forward.
///
/// The IR tracer runs a model's tape-free forward once with a thread-local
/// recording sink armed. internal::MakeNode calls TraceRecord for every op
/// node it builds — before the no-grad early return, so the parents are
/// visible even though the detached node drops them — and ops whose semantics
/// are not recoverable from shapes alone (scales, slices, gathers, ...) pass
/// a TraceAttrs alongside. The hook costs one thread-local load when no trace
/// is active, so training and plain serving never notice it (pinned by the
/// loss-curve invariance test in tests/ir_test.cc).
///
/// The sink itself lives in src/ir/trace.cc; this header only breaks the
/// dependency cycle (ir depends on autograd, not vice versa).

/// Per-op scalar attributes the tracer cannot derive from the recorded
/// shapes. Ops fill only the fields that apply.
struct TraceAttrs {
  /// scale / add_scalar alpha; mean_axis1 records 1/divisor here.
  float alpha = 0.0f;
  /// layer_norm epsilon.
  float eps = 0.0f;
  /// slice_row row index.
  size_t row = 0;
  /// bmm transpose flags.
  bool trans_a = false;
  bool trans_b = false;
  /// embedding gathers: the index matrix ([idx_batch, idx_n] row-major) and
  /// its logical shape. The pointer is only dereferenced synchronously inside
  /// TraceRecord (the tracer copies what it needs).
  const int32_t* indices = nullptr;
  size_t idx_batch = 0;
  size_t idx_n = 0;
};

/// True when the current thread has a recording sink armed.
bool TracingActive();

/// Records one executed op of kind \p kind into the active sink (no-op when
/// none is armed). \p parents is the op's input nodes in positional order;
/// \p node already carries the output value.
void TraceRecord(OpKind kind, const NodePtr& node,
                 const std::vector<NodePtr>& parents, const TraceAttrs* attrs);

/// Declares how the constant \p v was built so the tracer can classify it.
/// The annotation is stamped on the node itself — not the sink — so
/// constants built at model-construction time, before any trace exists, are
/// classified correctly by every later trace.
inline void TraceAnnotateConstant(const Variable& v, ConstantKind kind) {
  v.node()->constant = kind;
}

}  // namespace autograd
}  // namespace seqfm

#endif  // SEQFM_AUTOGRAD_TRACE_H_
