#ifndef SEQFM_IR_TRACE_H_
#define SEQFM_IR_TRACE_H_

#include <string>
#include <vector>

#include "core/model_interface.h"
#include "data/dataset.h"
#include "ir/program.h"

namespace seqfm {
namespace ir {

/// Result of tracing one tape-free forward.
struct TraceResult {
  Program program;
  /// Parallel to program.values: the graph node each value was recorded
  /// from. Every node pins the tensor observed at trace time, which is what
  /// the factoring pass compares across traces (alignment + empirical
  /// invariance) and the compiled self-check replays against.
  std::vector<autograd::NodePtr> value_nodes;
  /// Non-empty iff the model is not compilable as traced (unknown op,
  /// unannotated constant, unbindable gather indices, ...). The program is
  /// unusable in that case; callers fall back to the eager path.
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Runs model->Score(batch, /*training=*/false) once under NoGradGuard with
/// the recording sink armed and flattens the executed ops into a Program.
/// The batch must be a serving-style batch: every sample shares one (user,
/// history) pair and differs only in the candidate, which is what makes the
/// synthesized padding masks and the gather index bindings valid at serving
/// time. Tracing never mutates the model beyond what a plain eval forward
/// does, and results are discarded on error.
TraceResult Trace(core::Model* model, const data::Batch& batch);

/// The request index array a binding source reads in \p batch, and (into
/// \p width) its row width. \p source must not be kNone.
const std::vector<int32_t>& BindingSourceArray(const data::Batch& batch,
                                               IndexSource source,
                                               size_t* width);

/// True when \p binding reproduces the observed index matrix \p idx
/// ([batch, n] row-major) from \p src_batch's request arrays: non-negative
/// entries must equal src + delta exactly, negative (padding) entries only
/// agree in sign, matching how every gather consumes them. The factoring
/// pass uses this to cross-check a binding fitted on one trace against the
/// indices another trace observed.
bool VerifyIndexBinding(const IndexBinding& binding, const int32_t* idx,
                        size_t batch, size_t n, const data::Batch& src_batch);

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_TRACE_H_
