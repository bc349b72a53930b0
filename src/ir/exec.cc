#include "ir/exec.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "ir/passes.h"
#include "ir/trace.h"
#include "ir/verify.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace ir {

// ---------------------------------------------------------------------------
// EvalPure: one instruction, one call. Each case is the tensor:: kernel the
// eager op it was traced from calls (src/autograd/ops_*.cc), so compiled
// scores are bit-identical to the taped forward at every thread count and
// SIMD level by construction.
// ---------------------------------------------------------------------------

bool EvalPure(const Instr& instr, const std::vector<const tensor::Tensor*>& in,
              tensor::Tensor* out) {
  switch (instr.kind) {
    case OpKind::kAdd:
      tensor::Add(*in[0], *in[1], out);
      return true;
    case OpKind::kSub:
      tensor::Sub(*in[0], *in[1], out);
      return true;
    case OpKind::kMul:
      tensor::Mul(*in[0], *in[1], out);
      return true;
    case OpKind::kScale:
      tensor::Scale(*in[0], instr.alpha, out);
      return true;
    case OpKind::kAddScalar:
      tensor::AddScalar(*in[0], instr.alpha, out);
      return true;
    case OpKind::kAddBias:
      tensor::AddBiasLastDim(*in[0], *in[1], out);
      return true;
    case OpKind::kAddBroadcastBatch:
      tensor::AddBroadcastBatch(*in[0], *in[1], out);
      return true;
    case OpKind::kRelu:
      tensor::Relu(*in[0], out);
      return true;
    case OpKind::kSigmoid:
      tensor::Sigmoid(*in[0], out);
      return true;
    case OpKind::kTanh:
      tensor::Tanh(*in[0], out);
      return true;
    case OpKind::kMatMul:
      tensor::MatMul(*in[0], *in[1], out);
      return true;
    case OpKind::kBmmShared:
      tensor::BatchedMatMulShared(*in[0], *in[1], out, instr.trans_b);
      return true;
    case OpKind::kBmm:
      tensor::BatchedMatMul(*in[0], *in[1], out, instr.trans_a, instr.trans_b);
      return true;
    case OpKind::kBmmLeftShared:
      tensor::BatchedMatMulLeftShared(*in[0], *in[1], out, instr.trans_b);
      return true;
    case OpKind::kRowDot:
      tensor::RowDot(*in[0], *in[1], out);
      return true;
    case OpKind::kMaskedSoftmax:
      tensor::SoftmaxLastDim(*in[0], in.size() > 1 ? in[1] : nullptr, out);
      return true;
    case OpKind::kLayerNorm:
      tensor::LayerNormLastDim(*in[0], *in[1], *in[2], instr.eps, out);
      return true;
    case OpKind::kConcatLast:
      tensor::ConcatLastDim(in, out);
      return true;
    case OpKind::kConcatAxis1:
      tensor::ConcatAxis1(*in[0], *in[1], out);
      return true;
    case OpKind::kReduceAxis1:
      tensor::SumAxis1(*in[0], instr.alpha, out);
      return true;
    case OpKind::kSliceRow:
      tensor::SliceRow(*in[0], instr.row, out);
      return true;
    case OpKind::kSliceBlock:
      tensor::SliceBlock(*in[0], instr.row, instr.col, out);
      return true;
    case OpKind::kSumLast:
      tensor::SumLastDim(*in[0], out);
      return true;
    case OpKind::kReshape:
      if (out->data() == in[0]->data()) return true;  // fused: copy elided
      tensor::Copy(*in[0], out);
      return true;
    case OpKind::kExpandRows:
      tensor::ExpandRows(*in[0], out);
      return true;
    case OpKind::kPairwiseUpper:
      tensor::PairwiseProductUpper(*in[0], out);
      return true;
    case OpKind::kPairwiseCross:
      tensor::PairwiseProductCross(*in[0], *in[1], out);
      return true;
    case OpKind::kEmbeddingGather:
    case OpKind::kEmbeddingSumGather:
    case OpKind::kPaddingMask:
    case OpKind::kHistoryMask:
    case OpKind::kCrossPaddingMask:
    case OpKind::kZeros:
    case OpKind::kTileRows:
    case OpKind::kDropout:
    case OpKind::kSumAll:
    case OpKind::kMeanAll:
    case OpKind::kBprLoss:
    case OpKind::kBceLoss:
    case OpKind::kMseLoss:
      return false;
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Execution frames: one per (thread, program). The block tensor backs every
// planned local at its PlanArena offset; the index arrays are the synthesized
// replacements for BatchBuilder's per-request vectors. Sized once for the
// program's row capacity, reused for every request — the steady-state scoring
// loop allocates nothing. Each frame watches its engine's liveness token, so
// frames of destroyed engines are freed on the next cache miss of every
// thread that ran them.
// ---------------------------------------------------------------------------

struct Frame {
  std::weak_ptr<const void> owner;  // the engine's liveness token
  tensor::Tensor block;
  std::vector<tensor::Tensor> locals;  // WrapExternal views into block
  /// (value id, per-row extent) of each planned row-scaled local.
  std::vector<std::pair<uint32_t, size_t>> scaled;
  size_t rows = 0;  // the row count the scaled locals are viewed at
  std::vector<int32_t> sids, dids, uids;
  std::vector<const tensor::Tensor*> inputs;  // one instruction's operands
  bool needs_static = false;
  bool needs_dynamic = false;
  bool needs_unified = false;
};

using FrameMap = std::unordered_map<uint64_t, std::unique_ptr<Frame>>;

FrameMap& ThreadFrames() {
  thread_local FrameMap frames;
  return frames;
}

Frame* FrameFor(const Program& prog,
                const std::shared_ptr<const void>& owner) {
  FrameMap& frames = ThreadFrames();
  auto it = frames.find(prog.uid);
  if (it != frames.end()) return it->second.get();

  // A miss is the only time this thread grows its cache, so it first drops
  // the frames whose engine is gone. Only this thread touches the map, and an
  // engine running on it is alive, so no frame in use is ever freed here.
  for (auto e = frames.begin(); e != frames.end();) {
    e = e->second->owner.expired() ? frames.erase(e) : std::next(e);
  }
  auto frame = std::make_unique<Frame>();
  frame->owner = owner;
  // Uninitialized: rows past the largest chunk a thread scores are never
  // touched, so their pages cost no resident memory.
  frame->block =
      tensor::Tensor::Uninitialized({std::max<size_t>(prog.frame_floats, 1)});
  frame->locals.resize(prog.values.size());
  for (uint32_t i = 0; i < prog.values.size(); ++i) {
    const Value& v = prog.values[i];
    if (v.kind != ValueKind::kLocal || v.offset == kNoOffset) continue;
    frame->locals[i] = tensor::Tensor::WrapExternal(
        v.shape, frame->block.data() + v.offset, v.size());
    if (v.row_axis != kNoRowAxis) {
      frame->scaled.emplace_back(i, v.shape[v.row_axis] / prog.count);
    }
  }
  frame->rows = prog.count;
  for (const Instr& ins : prog.instrs) {
    switch (ins.binding.source) {
      case IndexSource::kStatic: frame->needs_static = true; break;
      case IndexSource::kDynamic: frame->needs_dynamic = true; break;
      case IndexSource::kUnified: frame->needs_unified = true; break;
      case IndexSource::kNone: break;
    }
  }
  if (frame->needs_static) frame->sids.resize(prog.count * prog.n_static);
  if (frame->needs_dynamic) frame->dids.resize(prog.count * prog.n_seq);
  if (frame->needs_unified) frame->uids.resize(prog.count * prog.n_unified);

  Frame* raw = frame.get();
  frames.emplace(prog.uid, std::move(frame));
  return raw;
}

/// Synthesizes the BatchBuilder index layout for \p rows serving rows
/// straight into the frame arrays: every row shares (user, history) and
/// differs only in the candidate column. \p cands is one object id per row
/// (null for prologues, whose gathers provably never read the candidate
/// column).
void FillIndexArrays(const Program& prog, Frame* f, size_t rows,
                     int32_t user_index, const int32_t* history,
                     const int32_t* cands, int32_t cand_base,
                     int32_t unified_dyn_base) {
  if (f->needs_static) {
    for (size_t b = 0; b < rows; ++b) {
      int32_t* row = f->sids.data() + b * prog.n_static;
      row[0] = user_index;
      row[1] = cand_base + (cands != nullptr ? cands[b] : 0);
    }
  }
  if (f->needs_dynamic) {
    for (size_t b = 0; b < rows; ++b) {
      std::memcpy(f->dids.data() + b * prog.n_seq, history,
                  prog.n_seq * sizeof(int32_t));
    }
  }
  if (f->needs_unified) {
    for (size_t b = 0; b < rows; ++b) {
      int32_t* row = f->uids.data() + b * prog.n_unified;
      row[0] = user_index;
      row[1] = cand_base + (cands != nullptr ? cands[b] : 0);
      for (size_t j = 0; j < prog.n_seq; ++j) {
        const int32_t id = history[j];
        row[2 + j] = id < 0 ? -1 : unified_dyn_base + id;
      }
    }
  }
}

/// Runs one program over \p rows rows (at most prog.count) against a frame:
/// the row-scaled locals are re-viewed when the count changes, so every
/// instruction covers rows [0, rows). \p slots backs kSlot reads (bodies);
/// \p cands is the per-row candidate array (null for prologues).
void RunProgram(const Program& prog, Frame* f,
                const std::vector<tensor::Tensor>* slots, int32_t user_index,
                const int32_t* history, const int32_t* cands, size_t rows,
                int32_t cand_base, int32_t unified_dyn_base) {
  SEQFM_CHECK(rows >= 1 && rows <= prog.count);
  if (f->rows != rows) {
    for (const auto& [id, unit] : f->scaled) {
      f->locals[id].ResizeWrappedAxis(prog.values[id].row_axis, unit * rows);
    }
    f->rows = rows;
  }
  FillIndexArrays(prog, f, rows, user_index, history, cands, cand_base,
                  unified_dyn_base);

  auto resolve = [&](uint32_t id) -> const tensor::Tensor* {
    const Value& v = prog.values[id];
    switch (v.kind) {
      case ValueKind::kLocal: return &f->locals[id];
      case ValueKind::kParam: return &v.param->value;
      case ValueKind::kConstant: return &prog.constants[v.index];
      case ValueKind::kSlot: return &(*slots)[v.index];
    }
    return nullptr;
  };
  auto index_source = [&](const IndexBinding& b,
                          size_t* width) -> const int32_t* {
    switch (b.source) {
      case IndexSource::kStatic: *width = prog.n_static; return f->sids.data();
      case IndexSource::kDynamic: *width = prog.n_seq; return f->dids.data();
      case IndexSource::kUnified:
        *width = prog.n_unified;
        return f->uids.data();
      case IndexSource::kNone: break;
    }
    *width = 0;
    return static_cast<const int32_t*>(nullptr);
  };

  std::vector<const tensor::Tensor*>& in = f->inputs;
  for (const Instr& ins : prog.instrs) {
    tensor::Tensor& out = f->locals[ins.out];
    switch (ins.kind) {
      case OpKind::kEmbeddingGather:
      case OpKind::kEmbeddingSumGather: {
        // The eager gathers' kernels, with each index computed on the fly
        // from the binding instead of read from a per-request vector.
        const uint32_t* cols = ins.binding.cols.data();
        const int32_t* deltas = ins.binding.deltas.data();
        const size_t n = ins.binding.cols.size();
        size_t w = 0;
        const int32_t* src = index_source(ins.binding, &w);
        auto index = [=](size_t i) {
          const size_t b = i / n, j = i % n;
          const int32_t sv = src[b * w + cols[j]];
          return sv < 0 ? sv : sv + deltas[j];
        };
        if (ins.kind == OpKind::kEmbeddingGather) {
          tensor::GatherRows(*resolve(ins.in[0]), index, &out);
        } else {
          tensor::SumGatherRows(*resolve(ins.in[0]), n, index, &out);
        }
        break;
      }
      case OpKind::kPaddingMask: {
        const size_t n = prog.n_seq;
        MaterializeMask(ins.kind, ins.causal, 0, history,
                        out.size() / (n * n), n, out.size(), out.data());
        break;
      }
      case OpKind::kHistoryMask: {
        const size_t n = prog.n_seq;
        MaterializeMask(ins.kind, false, 0, history, out.size() / n, n,
                        out.size(), out.data());
        break;
      }
      case OpKind::kCrossPaddingMask: {
        const size_t n = prog.n_seq;
        const size_t ns = ins.row;
        const size_t block = (ns + n) * (ns + n);
        MaterializeMask(ins.kind, false, ns, history, out.size() / block, n,
                        out.size(), out.data());
        break;
      }
      case OpKind::kZeros:
        MaterializeMask(OpKind::kZeros, false, 0, history, 1, prog.n_seq,
                        out.size(), out.data());
        break;
      case OpKind::kTileRows: {
        const tensor::Tensor& src = *resolve(ins.in[0]);
        const size_t s = src.size();
        const size_t rep = out.size() / s;
        for (size_t r = 0; r < rep; ++r) {
          std::memcpy(out.data() + r * s, src.data(), s * sizeof(float));
        }
        break;
      }
      default: {
        in.clear();
        for (uint32_t u : ins.in) in.push_back(resolve(u));
        SEQFM_CHECK(EvalPure(ins, in, &out))
            << "unexecutable op " << OpKindName(ins.kind);
        break;
      }
    }
  }
}

bool BindingReadsCandidate(const IndexBinding& b) {
  if (b.source != IndexSource::kStatic && b.source != IndexSource::kUnified) {
    return false;
  }
  for (uint32_t c : b.cols) {
    if (c == 1) return true;
  }
  return false;
}

bool BitEqual(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Structural verification gate between passes: a rejected program aborts
/// the compile (the Predictor falls back to eager scoring) with a diagnostic
/// naming the pass that broke it.
bool VerifyStage(const Program& p, const char* stage, const char* half,
                 const VerifyOptions& options, std::string* error) {
  const Status st = Verify(p, options);
  if (st.ok()) return true;
  *error = std::string("verify after ") + stage + " (" + half +
           "): " + st.message();
  SEQFM_LOG(Warning) << "ir: " << *error;
  return false;
}

/// True when the frame's first \p want.size() index entries are \p want.
bool SamePrefix(const std::vector<int32_t>& frame,
                const std::vector<int32_t>& want) {
  return frame.size() >= want.size() &&
         std::equal(want.begin(), want.end(), frame.begin());
}

std::string CheckArrays(const Frame& f, const data::Batch& batch) {
  if (f.needs_static && !SamePrefix(f.sids, batch.static_ids)) {
    return "synthesized static ids diverge from BatchBuilder layout";
  }
  if (f.needs_dynamic && !SamePrefix(f.dids, batch.dynamic_ids)) {
    return "synthesized dynamic ids diverge from BatchBuilder layout";
  }
  if (f.needs_unified && !SamePrefix(f.uids, batch.unified_ids)) {
    return "synthesized unified ids diverge from BatchBuilder layout";
  }
  return std::string();
}

}  // namespace

size_t CachedFrameCount() { return ThreadFrames().size(); }

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::unique_ptr<Engine> Engine::Compile(core::Model* model,
                                        const data::BatchBuilder* builder,
                                        size_t num_objects, size_t capacity,
                                        std::string* error) {
  SEQFM_CHECK(model != nullptr && builder != nullptr && error != nullptr);
  if (num_objects < 2) {
    *error = "compile: need >= 2 catalog objects to disambiguate the "
             "candidate column";
    return nullptr;
  }
  std::unique_ptr<Engine> e(new Engine());
  const data::FeatureSpace& space = builder->space();
  e->cand_base_ = space.CandidateIndex(0);
  e->unified_dyn_base_ = static_cast<int32_t>(space.static_dim());
  e->n_seq_ = builder->max_seq_len();
  e->uid_ = NextProgramUid();
  if (!e->Build(model, *builder, num_objects, std::max<size_t>(capacity, 2),
                error)) {
    return nullptr;
  }
  return e;
}

bool Engine::Build(core::Model* model, const data::BatchBuilder& builder,
                   size_t num_objects, size_t capacity, std::string* error) {
  constexpr size_t kCount = 2;  // the body is factored at two candidates
  // The probe request gather bindings are fitted against: user 0 and a
  // history that is full length (a padded -1 column would fit ANY padding
  // source column), nonzero (a history value equal to the user value makes
  // the user column ambiguous), and mutually distinct whenever the catalog
  // has enough objects, so every position is identifiable by value.
  const size_t span = num_objects - 1;  // ids drawn from [1, num_objects)
  data::SequenceExample probe;
  probe.user = 0;
  probe.target = 0;
  probe.history.resize(n_seq_);
  for (size_t j = 0; j < n_seq_; ++j) {
    probe.history[j] = static_cast<int32_t>(1 + (j % span));
  }
  // A serving batch of `rows` copies of `ex` scoring \p cands: candidates
  // (i + shift) mod the catalog size.
  auto build_batch = [&](const data::SequenceExample& ex, size_t rows,
                         size_t shift, std::vector<int32_t>* cands) {
    std::vector<const data::SequenceExample*> exs(rows, &ex);
    cands->resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      (*cands)[i] = static_cast<int32_t>((i + shift) % num_objects);
    }
    return builder.Build(exs, cands);
  };
  std::vector<int32_t> cands1, candsC;
  const data::Batch batch1 = build_batch(probe, 1, 0, &cands1);
  const data::Batch batchC = build_batch(probe, kCount, 0, &candsC);

  // Both counts are traced fresh on every compile (never against stored
  // tensors): parameters live in the model's nodes, so traces made before a
  // checkpoint reload would verify against stale values.
  TraceResult t1 = Trace(model, batch1);
  if (!t1.ok()) {
    *error = t1.error;
    return false;
  }
  TraceResult tC = Trace(model, batchC);
  if (!tC.ok()) {
    *error = tC.error;
    return false;
  }
  if (t1.program.n_static != 2 ||
      t1.program.n_unified != 2 + t1.program.n_seq) {
    *error = "compile: unexpected batch index geometry";
    return false;
  }
  const VerifyOptions trace_opts;  // no slots, no arena plan yet
  if (!VerifyStage(t1.program, "trace", "count 1", trace_opts, error) ||
      !VerifyStage(tC.program, "trace", "count C", trace_opts, error)) {
    return false;
  }

  // Row-block the cross-view-style attention sites so that Factor can hoist
  // their candidate-invariant blocks; programs without one are unchanged.
  // The replay checks below compare fresh traces against the traced
  // skeleton, so keep it.
  const std::vector<Instr> traced_instrs = tC.program.instrs;
  const size_t traced_values = tC.program.values.size();
  SplitAttention(&t1, &tC, batch1, batchC);
  if (!VerifyStage(t1.program, "split_attention", "count 1", trace_opts,
                   error) ||
      !VerifyStage(tC.program, "split_attention", "count C", trace_opts,
                   error)) {
    return false;
  }
  FactorResult f = Factor(t1, tC, batch1, batchC);
  if (!f.ok()) {
    *error = f.error;
    return false;
  }
  const VerifyOptions prologue_opts;
  VerifyOptions body_opts;
  body_opts.allow_slots = true;
  body_opts.num_slots = f.prologue.slot_outputs.size();
  if (!VerifyStage(f.prologue, "factor", "prologue", prologue_opts, error) ||
      !VerifyStage(f.body, "factor", "body", body_opts, error)) {
    return false;
  }
  // Belt and braces: an invariant (prologue) gather must never read the
  // candidate column — the prologue runs once per request with no candidate.
  for (const Instr& ins : f.prologue.instrs) {
    if (BindingReadsCandidate(ins.binding)) {
      *error = "compile: prologue gather reads the candidate column";
      return false;
    }
  }
  // The one body serves every chunk: size it for the largest.
  ResizeRows(&f.body, capacity);
  if (!VerifyStage(f.body, "resize_rows", "body", body_opts, error)) {
    return false;
  }

  for (Program* p : {&f.prologue, &f.body}) {
    const bool is_body = p == &f.body;
    const char* half = is_body ? "body" : "prologue";
    VerifyOptions opts = is_body ? body_opts : prologue_opts;
    stats_.folded += FoldConstants(p);
    if (!VerifyStage(*p, "fold_constants", half, opts, error)) return false;
    stats_.dce_removed += DeadCodeElim(p);
    if (!VerifyStage(*p, "dead_code_elim", half, opts, error)) return false;
    stats_.fused += FuseElementwise(p);
    if (!VerifyStage(*p, "fuse_elementwise", half, opts, error)) return false;
    PlanArena(p);
    opts.check_arena = true;
    if (!VerifyStage(*p, "plan_arena", half, opts, error)) return false;
  }

  // Self-check, prologue half: replay it for the probe request and demand
  // bit-identical slot tensors and BatchBuilder-identical index arrays.
  Frame* pf = FrameFor(f.prologue, liveness_);
  Frame* bf = FrameFor(f.body, liveness_);
  std::vector<tensor::Tensor> slots;
  auto run_prologue = [&](const data::Batch& batch) {
    RunProgram(f.prologue, pf, nullptr, batch.static_ids[0],
               batch.dynamic_ids.data(), nullptr, 1, cand_base_,
               unified_dyn_base_);
    slots.clear();
    for (uint32_t id : f.prologue.slot_outputs) {
      slots.push_back(pf->locals[id]);  // deep copy
    }
  };
  run_prologue(batch1);
  std::string arrays = CheckArrays(*pf, batch1);
  if (!arrays.empty()) {
    *error = "compile (prologue): " + arrays;
    return false;
  }
  for (size_t s = 0; s < slots.size(); ++s) {
    const uint32_t id = f.prologue.slot_outputs[s];
    if (!BitEqual(slots[s], t1.value_nodes[id]->value)) {
      *error = "compile: prologue slot diverges from traced forward";
      return false;
    }
  }

  // Self-check, body half: replay it over the probe candidates against the
  // freshly computed slots and demand the traced scores, bit-for-bit.
  auto run_body = [&](const data::Batch& batch,
                      const std::vector<int32_t>& cands,
                      const TraceResult& traced, const char* what) {
    RunProgram(f.body, bf, &slots, batch.static_ids[0],
               batch.dynamic_ids.data(), cands.data(), cands.size(),
               cand_base_, unified_dyn_base_);
    const std::string bad = CheckArrays(*bf, batch);
    if (!bad.empty()) {
      *error = std::string("compile (") + what + "): " + bad;
      return false;
    }
    if (!BitEqual(bf->locals[f.body.output],
                  traced.value_nodes[f.body.output]->value)) {
      *error = std::string("compile (") + what +
               "): body output diverges from traced forward";
      return false;
    }
    return true;
  };
  if (!run_body(batchC, candsC, tC, "body")) return false;

  // Replays for requests the factoring never saw. The gather bindings,
  // captured constants, and the invariant/variant split were all inferred
  // from probe A at two candidates, so replay the compiled halves end to end
  // for a SECOND request — different user, different history, different
  // candidates — and for probe A at another row count, demanding a fresh
  // trace's scores bit-for-bit. Any inference that held only coincidentally,
  // or a value that does not really scale with the row count, dies here, so
  // the Predictor falls back to the eager path instead of silently serving
  // wrong bits.
  auto replay = [&](const data::SequenceExample& ex, size_t rows,
                    size_t shift, const char* what) {
    std::vector<int32_t> cands;
    const data::Batch batch = build_batch(ex, rows, shift, &cands);
    const TraceResult t = Trace(model, batch);
    if (!t.ok()) {
      *error = std::string("compile (") + what + "): " + t.error;
      return false;
    }
    bool same = t.program.instrs.size() == traced_instrs.size() &&
                t.program.values.size() == traced_values;
    for (size_t i = 0; same && i < traced_instrs.size(); ++i) {
      same = t.program.instrs[i].kind == traced_instrs[i].kind &&
             t.program.instrs[i].out == traced_instrs[i].out;
    }
    if (!same) {
      *error = std::string("compile (") + what +
               "): program structure varies across requests";
      return false;
    }
    run_prologue(batch);
    return run_body(batch, cands, t, what);
  };
  data::SequenceExample probe_b;
  probe_b.user = builder.space().num_users() > 1 ? 1 : 0;
  probe_b.target = 0;
  probe_b.history.resize(n_seq_);
  for (size_t j = 0; j < n_seq_; ++j) {
    probe_b.history[j] = static_cast<int32_t>(1 + ((5 * j + 3) % span));
  }
  if (!replay(probe_b, kCount, 1, "cross-probe") ||
      !replay(probe, capacity >= 3 ? 3 : 1, 0, "row count")) {
    return false;
  }

  stats_.prologue_instrs = f.prologue.instrs.size();
  stats_.body_instrs = f.body.instrs.size();
  stats_.slots = f.prologue.slot_outputs.size();
  stats_.prologue_frame_floats = f.prologue.frame_floats;
  stats_.body_frame_floats = f.body.frame_floats;
  stats_.compiled_counts = 1;
  prologue_ = std::move(f.prologue);
  body_ = std::move(f.body);
  return true;
}

size_t SharedContext::ApproxBytes() const {
  size_t total = dynamic_ids.size() * sizeof(int32_t) + sizeof(*this);
  for (const tensor::Tensor& t : slots) total += t.size() * sizeof(float);
  return total;
}

void Engine::MakeContext(int32_t user_index,
                         const std::vector<int32_t>& dynamic_ids,
                         SharedContext* ctx) const {
  SEQFM_CHECK_EQ(dynamic_ids.size(), n_seq_);
  Frame* pf = FrameFor(prologue_, liveness_);
  RunProgram(prologue_, pf, nullptr, user_index, dynamic_ids.data(), nullptr,
             1, cand_base_, unified_dyn_base_);
  ctx->slots.clear();
  ctx->slots.reserve(prologue_.slot_outputs.size());
  for (uint32_t id : prologue_.slot_outputs) {
    ctx->slots.push_back(pf->locals[id]);  // deep copy: outlives the frame
  }
  ctx->engine_uid = uid_;
  ctx->user_index = user_index;
  ctx->dynamic_ids = dynamic_ids;
}

bool Engine::ScoreRange(const SharedContext& ctx,
                        const std::vector<int32_t>& candidates, size_t begin,
                        size_t end, float* out, std::string* error) const {
  const size_t rows = end - begin;
  if (rows == 0) return true;
  if (ctx.engine_uid != uid_) {
    *error = "score: context was built by a different engine";
    return false;
  }
  if (rows > capacity()) {
    *error = "score: " + std::to_string(rows) +
             " candidates exceed the body's capacity of " +
             std::to_string(capacity()) + " rows";
    return false;
  }
  Frame* bf = FrameFor(body_, liveness_);
  RunProgram(body_, bf, &ctx.slots, ctx.user_index, ctx.dynamic_ids.data(),
             candidates.data() + begin, rows, cand_base_, unified_dyn_base_);
  std::memcpy(out, bf->locals[body_.output].data(), rows * sizeof(float));
  return true;
}

Status Engine::ReverifySlotAbi() const {
  const size_t slots = prologue_.slot_outputs.size();
  for (size_t v = 0; v < body_.values.size(); ++v) {
    const Value& val = body_.values[v];
    if (val.kind != ValueKind::kSlot) continue;
    if (val.index >= slots) {
      return Status::Internal(
          "slot ABI: body value " + std::to_string(v) + " reads slot " +
          std::to_string(val.index) + " but the prologue produces only " +
          std::to_string(slots) + " slots");
    }
    const Value& produced = prologue_.values[prologue_.slot_outputs[val.index]];
    if (val.shape != produced.shape) {
      auto shape_str = [](const std::vector<size_t>& s) {
        std::string r = "[";
        for (size_t i = 0; i < s.size(); ++i) {
          if (i) r += ", ";
          r += std::to_string(s[i]);
        }
        return r + "]";
      };
      return Status::Internal(
          "slot ABI: body value " + std::to_string(v) + " expects slot " +
          std::to_string(val.index) + " with shape " + shape_str(val.shape) +
          " but the prologue produces " + shape_str(produced.shape));
    }
  }
  return Status::OK();
}

void Engine::CorruptSlotWiringForTest(bool corrupt_shape) {
  for (Value& val : body_.values) {
    if (val.kind != ValueKind::kSlot) continue;
    if (corrupt_shape) {
      val.shape.push_back(3);
    } else {
      val.index = static_cast<uint32_t>(prologue_.slot_outputs.size()) + 7;
    }
    return;
  }
  SEQFM_CHECK(false) << "CorruptSlotWiringForTest: the body reads no slot";
}

}  // namespace ir
}  // namespace seqfm
