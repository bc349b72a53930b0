#ifndef SEQFM_IR_EXEC_H_
#define SEQFM_IR_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model_interface.h"
#include "data/dataset.h"
#include "ir/program.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace seqfm {
namespace ir {

/// \brief Candidate-invariant state of one (user, history) request: the
/// prologue's output tensors, computed once by Engine::MakeContext and re-used
/// for every candidate chunk the body scores.
///
/// The serving analogue of an LLM server's KV cache: serve::ContextCache
/// memoizes contexts across requests keyed on (user, history hash). The
/// struct is immutable after MakeContext and safe to share across scoring
/// threads.
struct SharedContext {
  int32_t user_index = 0;
  std::vector<int32_t> dynamic_ids;  // BatchBuilder layout, length max_seq_len
  /// The prologue's slot tensors, in slot order.
  std::vector<tensor::Tensor> slots;
  /// Uid of the engine whose body may consume the slots.
  uint64_t engine_uid = 0;

  /// Resident bytes of the slot tensors + id buffer — the unit of
  /// serve::ContextCache's byte budget.
  size_t ApproxBytes() const;
};

/// \brief The serving VM: executes arena-planned programs allocation-free.
///
/// An Engine owns the factored (prologue, body) program pair compiled from
/// two traces of one model. serve::Predictor drives it: MakeContext runs the
/// prologue once per (user, history) and parks the candidate-invariant slot
/// tensors in the SharedContext (cached by serve::ContextCache); ScoreRange
/// replays the per-candidate body over a catalog chunk of any size up to
/// the body's capacity, passing the row count at run time. Execution state
/// lives in thread-local frames sized by PlanArena, so steady-state scoring
/// performs zero heap allocations and is trivially thread-safe.

/// Evaluates one pure instruction (no request-dependent inputs) by calling
/// the same tensor:: kernel as the eager op it was traced from, so compiled
/// results are bit-identical to the taped forward at every thread count and
/// SIMD level (slice_block, which only the compiler emits, is a copy). Returns false for kinds that are not pure functions of their
/// tensor inputs (gathers, synthesized masks, tile_rows) — the executor and
/// the constant folder handle those themselves — and for training-only
/// kinds, which no traced program contains.
bool EvalPure(const Instr& instr, const std::vector<const tensor::Tensor*>& in,
              tensor::Tensor* out);

/// Number of execution frames cached on the calling thread: one per program
/// (an engine's prologue and body) the thread ran. A frame lives until its
/// engine is destroyed and this thread next misses its cache.
size_t CachedFrameCount();

/// Compile-time facts about an engine, surfaced in bench_serving --json.
struct EngineStats {
  size_t prologue_instrs = 0;
  size_t body_instrs = 0;
  size_t slots = 0;             // candidate-invariant values hoisted
  size_t prologue_frame_floats = 0;
  size_t body_frame_floats = 0;  // planned for the body's capacity in rows
  size_t folded = 0;             // constant-folded instructions (both halves)
  size_t dce_removed = 0;        // dead instructions removed (both halves)
  size_t fused = 0;              // elementwise links aliased in place
  size_t compiled_counts = 0;    // bodies compiled: always 1
};

/// A compiled serving program for one model. Immutable after Compile, so
/// ScoreRange may be called concurrently from shard threads without a lock.
class Engine {
 public:
  /// Traces \p model at candidate counts 1 and 2, factors the program into a
  /// candidate-invariant prologue and a per-candidate body, runs the pass
  /// pipeline, plans the body's frame for max(2, \p capacity) rows, and
  /// self-checks both halves bit-for-bit against traced tensors: the
  /// prologue's slots, the body at 2 rows for two requests, and the body at
  /// a third row count (3, or 1 when the capacity is 2). Returns null (with
  /// \p error set) when the model is not compilable — unknown op,
  /// unannotated constant, unbindable gather, a value that does not scale
  /// with the candidate count along one axis — in which case the caller
  /// keeps the eager path. Requires at least two catalog objects (two
  /// distinct probe candidates are what disambiguate the candidate column
  /// in gather bindings).
  static std::unique_ptr<Engine> Compile(core::Model* model,
                                         const data::BatchBuilder* builder,
                                         size_t num_objects, size_t capacity,
                                         std::string* error);

  /// Runs the prologue for one (user, history) request and fills
  /// \p ctx with the slot tensors (deep copies — the context outlives the
  /// execution frame), ids, and this engine's uid. \p dynamic_ids is the
  /// BatchBuilder-layout history row (length max_seq_len, -1 padding).
  void MakeContext(int32_t user_index, const std::vector<int32_t>& dynamic_ids,
                   SharedContext* ctx) const;

  /// Scores candidates[begin..end) against \p ctx into out[0..end-begin):
  /// the body runs once over end - begin rows. Returns false with \p error
  /// set, scoring nothing, when the range exceeds capacity() or \p ctx was
  /// built by another engine — the caller scores that range eagerly.
  bool ScoreRange(const SharedContext& ctx,
                  const std::vector<int32_t>& candidates, size_t begin,
                  size_t end, float* out, std::string* error) const;

  /// Most candidates one ScoreRange call scores: the rows the body's frame
  /// is planned for.
  size_t capacity() const { return body_.count; }

  /// Number of slot tensors a context carries.
  size_t num_slots() const { return prologue_.slot_outputs.size(); }

  /// Re-checks the slot ABI between the prologue and the body: each body
  /// value of kind kSlot must name a slot the prologue actually produces,
  /// with the exact shape the prologue parks in the context. Compile
  /// establishes this by construction; serving re-verifies it at every
  /// checkpoint reload (Predictor::ReloadCheckpoint) because a body scoring
  /// through a stale or miswired slot reads the wrong floats — garbage
  /// rankings, no crash. Returns Internal naming the first mismatched
  /// (value, slot).
  Status ReverifySlotAbi() const;

  /// Test hook: miswires the body's first kSlot value — \p corrupt_shape
  /// distorts its shape, otherwise its slot index is pushed out of range.
  /// Exists so reload tests can prove ReverifySlotAbi catches both failure
  /// classes; never called outside tests.
  void CorruptSlotWiringForTest(bool corrupt_shape);

  uint64_t uid() const { return uid_; }

  EngineStats stats() const { return stats_; }

 private:
  Engine() = default;

  /// Traces, factors, optimizes, verifies, and self-checks the engine's
  /// programs (see Compile). The model is read only here: Predictor builds
  /// a new Engine from fresh traces on every checkpoint reload.
  bool Build(core::Model* model, const data::BatchBuilder& builder,
             size_t num_objects, size_t capacity, std::string* error);

  // Index synthesis geometry (see RunProgram in exec.cc).
  int32_t cand_base_ = 0;         // FeatureSpace::CandidateIndex(0)
  int32_t unified_dyn_base_ = 0;  // static_dim: unified id of dynamic 0
  size_t n_seq_ = 0;
  uint64_t uid_ = 0;
  // Liveness token: the per-thread frames this engine's programs run in
  // hold it weakly and are evicted once it expires (see FrameFor).
  const std::shared_ptr<const void> liveness_ = std::make_shared<char>();

  Program prologue_;
  Program body_;  // planned for body_.count rows
  EngineStats stats_;
};

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_EXEC_H_
