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
#include "util/ordered_mutex.h"
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
// replacements for BatchBuilder's per-request vectors. Sized once, reused for
// every request — the steady-state scoring loop allocates nothing. Each frame
// watches its engine's liveness token, so frames of destroyed engines are
// freed on the next cache miss of every thread that ran them.
// ---------------------------------------------------------------------------

struct Frame {
  std::weak_ptr<const void> owner;  // the engine's liveness token
  tensor::Tensor block;
  std::vector<tensor::Tensor> locals;  // WrapExternal views into block
  std::vector<int32_t> sids, dids, uids;
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
  frame->block =
      tensor::Tensor::Uninitialized({std::max<size_t>(prog.frame_floats, 1)});
  frame->locals.resize(prog.values.size());
  for (size_t i = 0; i < prog.values.size(); ++i) {
    const Value& v = prog.values[i];
    if (v.kind != ValueKind::kLocal || v.offset == kNoOffset) continue;
    frame->locals[i] = tensor::Tensor::WrapExternal(
        v.shape, frame->block.data() + v.offset, v.size());
  }
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

/// Synthesizes the BatchBuilder index layout for a serving chunk straight
/// into the frame arrays: every row shares (user, history) and differs only
/// in the candidate column. \p cands is one object id per row (null for
/// prologues, whose gathers provably never read the candidate column).
void FillIndexArrays(const Program& prog, Frame* f, int32_t user_index,
                     const int32_t* history, const int32_t* cands,
                     int32_t cand_base, int32_t unified_dyn_base) {
  const size_t count = prog.count;
  if (f->needs_static) {
    for (size_t b = 0; b < count; ++b) {
      int32_t* row = f->sids.data() + b * prog.n_static;
      row[0] = user_index;
      row[1] = cand_base + (cands != nullptr ? cands[b] : 0);
    }
  }
  if (f->needs_dynamic) {
    for (size_t b = 0; b < count; ++b) {
      std::memcpy(f->dids.data() + b * prog.n_seq, history,
                  prog.n_seq * sizeof(int32_t));
    }
  }
  if (f->needs_unified) {
    for (size_t b = 0; b < count; ++b) {
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

/// Runs one program against a frame. \p slots backs kSlot reads (bodies);
/// \p cands is the per-row candidate array (null for prologues).
void RunProgram(const Program& prog, Frame* f,
                const std::vector<tensor::Tensor>* slots, int32_t user_index,
                const int32_t* history, const int32_t* cands,
                int32_t cand_base, int32_t unified_dyn_base) {
  FillIndexArrays(prog, f, user_index, history, cands, cand_base,
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

  std::vector<const tensor::Tensor*> in;
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

std::string CheckArrays(const Frame& f, const data::Batch& batch) {
  if (f.needs_static && f.sids != batch.static_ids) {
    return "synthesized static ids diverge from BatchBuilder layout";
  }
  if (f.needs_dynamic && f.dids != batch.dynamic_ids) {
    return "synthesized dynamic ids diverge from BatchBuilder layout";
  }
  if (f.needs_unified && f.uids != batch.unified_ids) {
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
                                        size_t num_objects,
                                        std::string* error) {
  SEQFM_CHECK(model != nullptr && builder != nullptr && error != nullptr);
  if (num_objects < 2) {
    *error = "compile: need >= 2 catalog objects to disambiguate the "
             "candidate column";
    return nullptr;
  }
  std::unique_ptr<Engine> e(new Engine());
  e->model_ = model;
  e->builder_ = builder;
  e->num_objects_ = num_objects;
  // The probe history gather bindings are fitted against: full length (a
  // padded -1 column would fit ANY padding source column), nonzero ids (the
  // probe user is 0, and a history value equal to the user value makes the
  // user column ambiguous), and mutually distinct whenever the catalog has
  // enough objects, so every position is identifiable by value.
  {
    const size_t n = builder->max_seq_len();
    const size_t span = num_objects - 1;  // ids drawn from [1, num_objects)
    e->probe_history_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      e->probe_history_[j] = static_cast<int32_t>(1 + (j % span));
    }
  }
  const data::FeatureSpace& space = builder->space();
  e->cand_base_ = space.CandidateIndex(0);
  e->unified_dyn_base_ = static_cast<int32_t>(space.static_dim());
  e->n_seq_ = builder->max_seq_len();
  e->uid_ = NextProgramUid();
  if (!e->CompileCount(2, /*adopt_prologue=*/true, error)) return nullptr;
  return e;
}

bool Engine::CompileCount(size_t count, bool adopt_prologue,
                          std::string* error) const {
  SEQFM_CHECK_GE(count, 2u);
  data::SequenceExample probe;
  probe.user = 0;
  probe.target = 0;
  probe.history = probe_history_;
  std::vector<const data::SequenceExample*> ex1(1, &probe);
  std::vector<const data::SequenceExample*> exC(count, &probe);
  std::vector<int32_t> ovr1 = {0};
  std::vector<int32_t> ovrC(count);
  for (size_t i = 0; i < count; ++i) {
    ovrC[i] = static_cast<int32_t>(i % num_objects_);
  }
  const data::Batch batch1 = builder_->Build(ex1, &ovr1);
  const data::Batch batchC = builder_->Build(exC, &ovrC);

  // Both counts are traced fresh on every compile (never against stored
  // tensors): parameters live in the model's nodes, so traces made before a
  // checkpoint reload would verify against stale values.
  TraceResult t1 = Trace(model_, batch1);
  if (!t1.ok()) {
    *error = t1.error;
    return false;
  }
  TraceResult tC = Trace(model_, batchC);
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
  // The cross-probe check below compares a fresh trace against the traced
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

  EngineStats delta;
  for (Program* p : {&f.prologue, &f.body}) {
    const bool is_body = p == &f.body;
    const char* half = is_body ? "body" : "prologue";
    VerifyOptions opts = is_body ? body_opts : prologue_opts;
    delta.folded += FoldConstants(p);
    if (!VerifyStage(*p, "fold_constants", half, opts, error)) return false;
    delta.dce_removed += DeadCodeElim(p);
    if (!VerifyStage(*p, "dead_code_elim", half, opts, error)) return false;
    delta.fused += FuseElementwise(p);
    if (!VerifyStage(*p, "fuse_elementwise", half, opts, error)) return false;
    PlanArena(p);
    opts.check_arena = true;
    if (!VerifyStage(*p, "plan_arena", half, opts, error)) return false;
  }

  if (!adopt_prologue) {
    // A later per-count compile must reproduce the factoring the engine was
    // built with: same slots, same prologue skeleton. Anything else means
    // cached contexts would feed the wrong tensors into this body.
    if (f.prologue.slot_outputs != prologue_.slot_outputs ||
        f.prologue.instrs.size() != prologue_.instrs.size()) {
      *error = "compile: factoring diverged across candidate counts";
      return false;
    }
    for (size_t i = 0; i < f.prologue.instrs.size(); ++i) {
      if (f.prologue.instrs[i].kind != prologue_.instrs[i].kind ||
          f.prologue.instrs[i].out != prologue_.instrs[i].out) {
        *error = "compile: factoring diverged across candidate counts";
        return false;
      }
    }
  }

  // Self-check, prologue half: replay it for the probe request and demand
  // bit-identical slot tensors and BatchBuilder-identical index arrays.
  const int32_t probe_user = batch1.static_ids[0];
  const int32_t* probe_hist = batch1.dynamic_ids.data();
  Frame* pf = FrameFor(f.prologue, liveness_);
  RunProgram(f.prologue, pf, nullptr, probe_user, probe_hist, nullptr,
             cand_base_, unified_dyn_base_);
  std::string arrays = CheckArrays(*pf, batch1);
  if (!arrays.empty()) {
    *error = "compile (prologue): " + arrays;
    return false;
  }
  std::vector<tensor::Tensor> slots;
  slots.reserve(f.prologue.slot_outputs.size());
  for (uint32_t id : f.prologue.slot_outputs) {
    if (!BitEqual(pf->locals[id], t1.value_nodes[id]->value)) {
      *error = "compile: prologue slot diverges from traced forward";
      return false;
    }
    slots.push_back(pf->locals[id]);  // deep copy
  }

  // Self-check, body half: replay it over the probe candidates against the
  // freshly computed slots and demand the traced scores, bit-for-bit.
  Frame* bf = FrameFor(f.body, liveness_);
  RunProgram(f.body, bf, &slots, probe_user, probe_hist, ovrC.data(),
             cand_base_, unified_dyn_base_);
  arrays = CheckArrays(*bf, batchC);
  if (!arrays.empty()) {
    *error = "compile (body): " + arrays;
    return false;
  }
  if (!BitEqual(bf->locals[f.body.output],
                tC.value_nodes[f.body.output]->value)) {
    *error = "compile: body output diverges from traced forward";
    return false;
  }

  // Cross-probe verification: the gather bindings, captured constants, and
  // the invariant/variant split were all inferred from probe A. Replay the
  // compiled halves end-to-end for a SECOND request — different user,
  // different history, different candidates — and demand the traced scores
  // bit-for-bit. Any inference that held only coincidentally at probe A dies
  // here, so the Predictor falls back to the eager path instead of silently
  // serving wrong bits.
  {
    data::SequenceExample probe_b;
    probe_b.user = builder_->space().num_users() > 1 ? 1 : 0;
    probe_b.target = 0;
    const size_t span = num_objects_ - 1;
    probe_b.history.resize(n_seq_);
    for (size_t j = 0; j < n_seq_; ++j) {
      probe_b.history[j] = static_cast<int32_t>(1 + ((5 * j + 3) % span));
    }
    std::vector<const data::SequenceExample*> exB(count, &probe_b);
    std::vector<int32_t> ovrB(count);
    for (size_t i = 0; i < count; ++i) {
      ovrB[i] = static_cast<int32_t>((i + 1) % num_objects_);
    }
    const data::Batch batchB = builder_->Build(exB, &ovrB);
    TraceResult tB = Trace(model_, batchB);
    if (!tB.ok()) {
      *error = "compile (cross-probe): " + tB.error;
      return false;
    }
    if (tB.program.instrs.size() != traced_instrs.size() ||
        tB.program.values.size() != traced_values) {
      *error = "compile: program structure varies across requests";
      return false;
    }
    for (size_t i = 0; i < tB.program.instrs.size(); ++i) {
      if (tB.program.instrs[i].kind != traced_instrs[i].kind ||
          tB.program.instrs[i].out != traced_instrs[i].out) {
        *error = "compile: program structure varies across requests";
        return false;
      }
    }
    const int32_t user_b = batchB.static_ids[0];
    const int32_t* hist_b = batchB.dynamic_ids.data();
    RunProgram(f.prologue, pf, nullptr, user_b, hist_b, nullptr, cand_base_,
               unified_dyn_base_);
    std::vector<tensor::Tensor> slots_b;
    slots_b.reserve(f.prologue.slot_outputs.size());
    for (uint32_t id : f.prologue.slot_outputs) {
      slots_b.push_back(pf->locals[id]);
    }
    RunProgram(f.body, bf, &slots_b, user_b, hist_b, ovrB.data(), cand_base_,
               unified_dyn_base_);
    arrays = CheckArrays(*bf, batchB);
    if (!arrays.empty()) {
      *error = "compile (cross-probe body): " + arrays;
      return false;
    }
    if (!BitEqual(bf->locals[f.body.output],
                  tB.value_nodes[f.body.output]->value)) {
      *error = "compile: compiled program does not generalize across "
               "requests (cross-probe output mismatch)";
      return false;
    }
  }

  // Publication is the only part of a compile that needs the engine lock.
  // Everything above (tracing, passes, self-checks) runs lock-free: tracing
  // takes the thread pool's region lock via ParallelFor, and ScoreRange is
  // itself called from inside pool regions, so holding mu_ across the heavy
  // work would invert the pool/engine lock order (see ordered_mutex.h).
  bool kept_body = false;
  {
    util::OrderedMutexLock lock(mu_);
    if (adopt_prologue) {
      stats_.prologue_instrs = f.prologue.instrs.size();
      stats_.body_instrs = f.body.instrs.size();
      stats_.slots = f.prologue.slot_outputs.size();
      stats_.prologue_frame_floats = f.prologue.frame_floats;
      stats_.body_frame_floats = f.body.frame_floats;
      prologue_ = std::move(f.prologue);
    }
    if (bodies_.find(count) == bodies_.end()) {
      stats_.folded += delta.folded;
      stats_.dce_removed += delta.dce_removed;
      stats_.fused += delta.fused;
      stats_.compiled_counts += 1;
      bodies_[count] = std::make_unique<Program>(std::move(f.body));
      kept_body = true;
    }
    // else: a concurrent ScoreRange compiled this count first. Both compiles
    // trace the same deterministic model, so the programs are equivalent;
    // keeping the first insertion keeps frame uids stable.
  }
  // The frames of the programs this compile discards (a later count's copy
  // of the prologue, a body that lost the race) only served the self-checks.
  if (!adopt_prologue) ThreadFrames().erase(f.prologue.uid);
  if (!kept_body) ThreadFrames().erase(f.body.uid);
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
             cand_base_, unified_dyn_base_);
  ctx->slots.clear();
  ctx->slots.reserve(prologue_.slot_outputs.size());
  for (uint32_t id : prologue_.slot_outputs) {
    ctx->slots.push_back(pf->locals[id]);  // deep copy: outlives the frame
  }
  ctx->engine_uid = uid_;
  ctx->user_index = user_index;
  ctx->dynamic_ids = dynamic_ids;
}

const Program* Engine::BodyFor(size_t count, std::string* error) const {
  // Bodies are specialized to >= 2 candidates (compile needs two distinct
  // probes); ScoreRange runs a single-candidate chunk through the count-2
  // body with the candidate doubled.
  const size_t body_count = std::max<size_t>(count, 2);
  // Look up the body under the lock, but never compile under it: a wave
  // chunk task calling in here already holds the pool's region lock, and a
  // fresh compile takes that same lock through tracing's ParallelFor — the
  // old hold-mu_-across-compile shape deadlocked against exactly that.
  // Losing a duplicate-compile race costs one discarded program, not bits.
  {
    util::OrderedMutexLock lock(mu_);
    auto it = bodies_.find(body_count);
    if (it != bodies_.end()) return it->second.get();
  }
  if (!CompileCount(body_count, /*adopt_prologue=*/false, error)) {
    return nullptr;
  }
  util::OrderedMutexLock lock(mu_);
  auto it = bodies_.find(body_count);
  SEQFM_CHECK(it != bodies_.end());
  return it->second.get();  // unique_ptr target: stable after unlock
}

bool Engine::PrepareBody(size_t count, std::string* error) const {
  return count == 0 || BodyFor(count, error) != nullptr;
}

bool Engine::ScoreRange(const SharedContext& ctx,
                        const std::vector<int32_t>& candidates, size_t begin,
                        size_t end, float* out, std::string* error) const {
  const size_t count = end - begin;
  if (count == 0) return true;
  if (ctx.engine_uid != uid_) {
    *error = "score: context was built by a different engine";
    return false;
  }
  // Rows are independent in every op, so row 0 of the count-2 body matches
  // the single-row program's bits exactly.
  int32_t padded[2];
  const int32_t* cands = candidates.data() + begin;
  if (count == 1) {
    padded[0] = padded[1] = candidates[begin];
    cands = padded;
  }
  const Program* body = BodyFor(count, error);
  if (body == nullptr) return false;

  Frame* bf = FrameFor(*body, liveness_);
  RunProgram(*body, bf, &ctx.slots, ctx.user_index, ctx.dynamic_ids.data(),
             cands, cand_base_, unified_dyn_base_);
  std::memcpy(out, bf->locals[body->output].data(), count * sizeof(float));
  return true;
}

EngineStats Engine::stats() const {
  util::OrderedMutexLock lock(mu_);
  return stats_;
}

Status Engine::ReverifySlotAbi() const {
  util::OrderedMutexLock lock(mu_);
  const size_t slots = prologue_.slot_outputs.size();
  for (const auto& [count, body] : bodies_) {
    for (size_t v = 0; v < body->values.size(); ++v) {
      const Value& val = body->values[v];
      if (val.kind != ValueKind::kSlot) continue;
      if (val.index >= slots) {
        return Status::Internal(
            "slot ABI: body for count " + std::to_string(count) + " value " +
            std::to_string(v) + " reads slot " + std::to_string(val.index) +
            " but the prologue produces only " + std::to_string(slots) +
            " slots");
      }
      const Value& produced =
          prologue_.values[prologue_.slot_outputs[val.index]];
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
            "slot ABI: body for count " + std::to_string(count) + " value " +
            std::to_string(v) + " expects slot " + std::to_string(val.index) +
            " with shape " + shape_str(val.shape) +
            " but the prologue produces " + shape_str(produced.shape));
      }
    }
  }
  return Status::OK();
}

void Engine::CorruptSlotWiringForTest(bool corrupt_shape) {
  util::OrderedMutexLock lock(mu_);
  for (auto& [count, body] : bodies_) {
    (void)count;
    for (Value& val : body->values) {
      if (val.kind != ValueKind::kSlot) continue;
      if (corrupt_shape) {
        val.shape.push_back(3);
      } else {
        val.index =
            static_cast<uint32_t>(prologue_.slot_outputs.size()) + 7;
      }
      return;
    }
  }
  SEQFM_CHECK(false) << "CorruptSlotWiringForTest: no compiled body reads "
                        "a slot";
}

}  // namespace ir
}  // namespace seqfm
