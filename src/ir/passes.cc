#include "ir/passes.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "ir/exec.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace seqfm {
namespace ir {
namespace {

bool IsGather(OpKind k) {
  return k == OpKind::kEmbeddingGather || k == OpKind::kEmbeddingSumGather;
}

bool IsSynthesized(OpKind k) {
  return k == OpKind::kPaddingMask || k == OpKind::kHistoryMask ||
         k == OpKind::kCrossPaddingMask || k == OpKind::kZeros;
}

/// Candidate ids live in column 1 of the static and unified arrays
/// ([UserIndex, CandidateIndex, ...]); the dynamic array is pure history.
bool BindingUsesCandidate(const IndexBinding& b) {
  if (b.source != IndexSource::kStatic && b.source != IndexSource::kUnified) {
    return false;
  }
  for (uint32_t c : b.cols) {
    if (c == 1) return true;
  }
  return false;
}

/// True iff \p big is exactly \p small repeated back-to-back, bit-for-bit
/// (the shape a candidate-invariant tensor must take across counts).
bool TilesTo(const tensor::Tensor& small, const tensor::Tensor& big) {
  const size_t s = small.size();
  const size_t b = big.size();
  if (s == 0 || b % s != 0) return false;
  const float* sv = small.data();
  const float* bv = big.data();
  const size_t rep = b / s;
  for (size_t r = 0; r < rep; ++r) {
    if (std::memcmp(bv + r * s, sv, s * sizeof(float)) != 0) return false;
  }
  return true;
}

/// Sets \p axis to the one axis along which \p shapeC is \p count times
/// \p shape1 (kNoRowAxis when the shapes are equal); false when \p shapeC
/// scales in some other way.
bool FindRowAxis(const std::vector<size_t>& shape1,
                 const std::vector<size_t>& shapeC, size_t count,
                 uint8_t* axis) {
  *axis = kNoRowAxis;
  if (shape1.size() != shapeC.size()) return false;
  for (size_t a = 0; a < shape1.size(); ++a) {
    if (shape1[a] == shapeC[a]) continue;
    if (*axis != kNoRowAxis || shapeC[a] != count * shape1[a]) return false;
    *axis = static_cast<uint8_t>(a);
  }
  return true;
}

/// Instruction-level alignment between the two traces: same op, same value
/// ids (the traces share a construction order, hence an id space), same
/// scalar attributes. traced_indices and bindings are reconciled separately.
bool InstrsAlign(const Instr& a, const Instr& b) {
  return a.kind == b.kind && a.in == b.in && a.out == b.out &&
         a.alpha == b.alpha && a.eps == b.eps && a.row == b.row &&
         a.col == b.col &&
         a.trans_a == b.trans_a && a.trans_b == b.trans_b &&
         a.causal == b.causal;
}

bool ValuesAlign(const Value& a, const Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ValueKind::kParam:
      return a.param == b.param;
    case ValueKind::kConstant:
      return a.index == b.index;
    default:
      return true;  // locals may differ in shape across counts
  }
}

/// Checks that two traces of one model align value-for-value and
/// instruction-for-instruction, and reconciles their gather bindings: a
/// count-1 fit can be ambiguous (one row cannot separate the user and
/// candidate columns), so the count-C binding wins whenever both explain the
/// count-1 indices. On success \p bindings holds each instruction's binding.
bool AlignTraces(const TraceResult& trace1, const TraceResult& traceC,
                 const data::Batch& batch1,
                 std::vector<IndexBinding>* bindings, std::string* error) {
  const Program& p1 = trace1.program;
  const Program& pC = traceC.program;
  if (p1.instrs.size() != pC.instrs.size() ||
      p1.values.size() != pC.values.size()) {
    *error = "factor: traces diverge in length (count-dependent control "
             "flow)";
    return false;
  }
  for (size_t i = 0; i < p1.values.size(); ++i) {
    if (!ValuesAlign(p1.values[i], pC.values[i])) {
      *error = "factor: value " + std::to_string(i) + " diverges";
      return false;
    }
  }
  bindings->assign(p1.instrs.size(), IndexBinding());
  for (size_t i = 0; i < p1.instrs.size(); ++i) {
    const Instr& a = p1.instrs[i];
    const Instr& b = pC.instrs[i];
    if (!InstrsAlign(a, b)) {
      *error = "factor: instr " + std::to_string(i) + " (" +
               OpKindName(a.kind) + " vs " + OpKindName(b.kind) +
               ") diverges";
      return false;
    }
    if (!IsGather(a.kind)) continue;
    if (a.binding != b.binding) {
      const size_t n = b.binding.cols.size();
      if (a.traced_indices.size() != batch1.batch_size * n ||
          !VerifyIndexBinding(b.binding, a.traced_indices.data(),
                              batch1.batch_size, n, batch1)) {
        *error = "factor: gather binding at instr " + std::to_string(i) +
                 " is not count-stable";
        return false;
      }
    }
    (*bindings)[i] = b.binding;
  }
  return true;
}

/// Structural taint: a value is candidate-variant when its instruction reads
/// the candidate column (gathers, per \p bindings) or any variant input
/// (transitive). Synthesized masks depend only on the shared history.
/// \p demoted forces values variant (empirical refutations).
void PropagateTaint(const Program& p, const std::vector<IndexBinding>& bindings,
                    const std::vector<char>& demoted,
                    std::vector<char>* variant) {
  variant->assign(p.values.size(), 0);
  for (size_t i = 0; i < p.instrs.size(); ++i) {
    const Instr& ins = p.instrs[i];
    bool v = demoted[ins.out] != 0;
    if (IsGather(ins.kind)) {
      v = v || BindingUsesCandidate(bindings[i]);
    } else if (!IsSynthesized(ins.kind)) {
      for (uint32_t u : ins.in) v = v || (*variant)[u] != 0;
    }
    (*variant)[ins.out] = v ? 1 : 0;
  }
}

/// Rewrites one trace for SplitAttention. Every decision reads only the
/// program's structure, the bindings and taint both traces share, and
/// captured constants, so the count-1 and count-C traces get the same
/// rewrite and stay aligned value-for-value. Every new instruction is
/// evaluated on the traced tensors (EvalPure, or the gather loop), and each
/// rewritten value that replaces a traced one must reproduce it bit-for-bit.
class BlockSplitter {
 public:
  BlockSplitter(const TraceResult& trace, const data::Batch& batch,
                const std::vector<IndexBinding>& bindings,
                const std::vector<char>& variant)
      : src_(trace.program),
        batch_(batch),
        bindings_(bindings),
        variant_(variant) {
    out_.program = trace.program;
    out_.program.instrs.clear();
    out_.value_nodes = trace.value_nodes;
    parts_.resize(src_.values.size());
    def_.assign(src_.values.size(), kNoDef);
  }

  /// Rewrites the whole program; false (with \p error) when a rewritten
  /// value fails its bit check.
  bool Run(std::string* error) {
    for (size_t i = 0; i < src_.instrs.size() && error_.empty(); ++i) {
      Instr ins = src_.instrs[i];
      if (IsGather(ins.kind)) ins.binding = bindings_[i];
      if (ins.kind == OpKind::kEmbeddingGather && MixesCandidate(ins.binding)) {
        SplitGather(ins);
      } else if (IsRowWise(ins.kind) && Mixed(Leaves(ins.in[0]))) {
        PushThroughConcat(ins);
      } else if (!SplitAttentionAt(ins)) {
        Append(ins);
      }
    }
    if (!error_.empty()) {
      *error = error_;
      return false;
    }
    if (sites_ > 0) DeadCodeElim(&out_.program);
    return true;
  }

  size_t sites() const { return sites_; }
  TraceResult Take() { return std::move(out_); }

 private:
  static constexpr size_t kNoDef = static_cast<size_t>(-1);

  /// Row-wise ops: each row of in[0] maps to the same row of the output and
  /// no other input is row-dependent, so an axis-1 concatenation commutes.
  static bool IsRowWise(OpKind k) {
    switch (k) {
      case OpKind::kBmmShared:
      case OpKind::kAddBias:
      case OpKind::kLayerNorm:
      case OpKind::kScale:
      case OpKind::kAddScalar:
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kTanh:
        return true;
      default:
        return false;
    }
  }

  /// A gather binding that reads the candidate column and another column.
  static bool MixesCandidate(const IndexBinding& b) {
    if (!BindingUsesCandidate(b)) return false;
    for (uint32_t c : b.cols) {
      if (c != 1) return true;
    }
    return false;
  }

  const Value& Val(uint32_t v) const { return out_.program.values[v]; }
  size_t Rows(uint32_t v) const { return Val(v).shape[1]; }

  /// The row blocks \p v concatenates along axis 1 (itself when none).
  std::vector<uint32_t> Leaves(uint32_t v) const {
    return parts_[v].empty() ? std::vector<uint32_t>{v} : parts_[v];
  }

  bool Mixed(const std::vector<uint32_t>& leaves) const {
    bool any_variant = false, any_invariant = false;
    for (uint32_t v : leaves) {
      (variant_[v] ? any_variant : any_invariant) = true;
    }
    return any_variant && any_invariant;
  }

  /// The instruction defining \p v in the rewritten program, if any.
  const Instr* DefOf(uint32_t v) const {
    return def_[v] == kNoDef ? nullptr : &out_.program.instrs[def_[v]];
  }

  void Append(const Instr& ins) {
    def_[ins.out] = out_.program.instrs.size();
    if (ins.kind == OpKind::kConcatAxis1) {
      std::vector<uint32_t> leaves = Leaves(ins.in[0]);
      for (uint32_t v : Leaves(ins.in[1])) leaves.push_back(v);
      parts_[ins.out] = std::move(leaves);
    }
    out_.program.instrs.push_back(ins);
  }

  /// Evaluates \p ins on the traced inputs and appends it. It writes a new
  /// value of \p shape, or \p existing, whose traced tensor it must then
  /// reproduce bit-for-bit.
  uint32_t Emit(Instr ins, std::vector<size_t> shape,
                uint32_t existing = kNoValue) {
    tensor::Tensor value = tensor::Tensor::Uninitialized(shape);
    if (IsGather(ins.kind)) {
      size_t w = 0;
      const std::vector<int32_t>& src =
          BindingSourceArray(batch_, ins.binding.source, &w);
      const IndexBinding& b = ins.binding;
      const size_t n = b.cols.size();
      auto index = [&](size_t i) {
        const int32_t sv = src[(i / n) * w + b.cols[i % n]];
        return sv < 0 ? sv : sv + b.deltas[i % n];
      };
      ins.traced_indices.resize(batch_.batch_size * n);
      for (size_t i = 0; i < ins.traced_indices.size(); ++i) {
        ins.traced_indices[i] = index(i);
      }
      tensor::GatherRows(out_.value_nodes[ins.in[0]]->value, index, &value);
    } else if (ins.kind == OpKind::kZeros) {
      value.Zero();
    } else {
      std::vector<const tensor::Tensor*> in;
      for (uint32_t u : ins.in) in.push_back(&out_.value_nodes[u]->value);
      SEQFM_CHECK(EvalPure(ins, in, &value))
          << "split_attention: impure op " << OpKindName(ins.kind);
    }
    bool variant = false;
    if (IsGather(ins.kind)) {
      variant = BindingUsesCandidate(ins.binding);
    } else {
      for (uint32_t u : ins.in) variant = variant || variant_[u] != 0;
    }
    if (existing != kNoValue) {
      const tensor::Tensor& traced = out_.value_nodes[existing]->value;
      if (traced.size() != value.size() ||
          std::memcmp(traced.data(), value.data(),
                      value.size() * sizeof(float)) != 0) {
        error_ = std::string("split_attention: rewritten ") +
                 OpKindName(ins.kind) +
                 " value " + std::to_string(existing) +
                 " diverges from the traced forward";
      }
      ins.out = existing;
    } else {
      ins.out = NewValue(ValueKind::kLocal, std::move(shape), std::move(value),
                         variant);
    }
    Append(ins);
    return ins.out;
  }

  uint32_t NewValue(ValueKind kind, std::vector<size_t> shape,
                    tensor::Tensor value, bool variant) {
    Value v;
    v.kind = kind;
    v.shape = std::move(shape);
    v.offset = kNoOffset;
    auto node = std::make_shared<autograd::Node>();
    node->value = std::move(value);
    out_.program.values.push_back(std::move(v));
    out_.value_nodes.push_back(std::move(node));
    variant_.push_back(variant ? 1 : 0);
    parts_.emplace_back();
    def_.push_back(kNoDef);
    return static_cast<uint32_t>(out_.program.values.size() - 1);
  }

  /// Left-folds \p leaves into axis-1 concatenations (Append records their
  /// row blocks); the last one writes \p existing when given.
  uint32_t ConcatRows(const std::vector<uint32_t>& leaves,
                      uint32_t existing = kNoValue) {
    SEQFM_CHECK(!leaves.empty());
    if (leaves.size() == 1 && existing == kNoValue) return leaves[0];
    SEQFM_CHECK_GE(leaves.size(), 2u);
    uint32_t acc = leaves[0];
    for (size_t j = 1; j < leaves.size(); ++j) {
      Instr c;
      c.kind = OpKind::kConcatAxis1;
      c.in = {acc, leaves[j]};
      std::vector<size_t> shape = Val(acc).shape;
      shape[1] += Rows(leaves[j]);
      acc = Emit(std::move(c), std::move(shape),
                 j + 1 == leaves.size() ? existing : kNoValue);
    }
    return acc;
  }

  /// The [rows, d] first batch item of a candidate-invariant [B, rows, d]
  /// value: every item is equal, so it can be a GEMM's shared operand.
  uint32_t FirstItem(uint32_t v) {
    Instr s;
    s.kind = OpKind::kSliceBlock;
    s.in = {v};
    return Emit(std::move(s), {Rows(v), Val(v).shape[2]});
  }

  /// A gather over the user and candidate columns becomes one gather per
  /// run of columns with the same candidate-ness, concatenated on axis 1.
  void SplitGather(const Instr& ins) {
    const IndexBinding& b = ins.binding;
    const size_t d = Val(ins.out).shape[2];
    std::vector<uint32_t> leaves;
    size_t j0 = 0;
    while (j0 < b.cols.size()) {
      const bool cand = b.cols[j0] == 1;
      size_t j1 = j0 + 1;
      while (j1 < b.cols.size() && (b.cols[j1] == 1) == cand) ++j1;
      Instr g = ins;
      g.binding.cols.assign(b.cols.begin() + j0, b.cols.begin() + j1);
      g.binding.deltas.assign(b.deltas.begin() + j0, b.deltas.begin() + j1);
      leaves.push_back(Emit(std::move(g), {src_.count, j1 - j0, d}));
      j0 = j1;
    }
    ConcatRows(leaves, ins.out);
  }

  /// op(concat(A, B, ...)) -> concat(op(A), op(B), ...) for a row-wise op.
  void PushThroughConcat(const Instr& ins) {
    std::vector<uint32_t> leaves;
    for (uint32_t leaf : Leaves(ins.in[0])) {
      Instr op = ins;
      op.in[0] = leaf;
      std::vector<size_t> shape = Val(leaf).shape;
      shape.back() = Val(ins.out).shape.back();
      leaves.push_back(Emit(std::move(op), std::move(shape)));
    }
    ConcatRows(leaves, ins.out);
  }

  /// Matches H = Bmm(MaskedSoftmax([Scale](Bmm(Q, K^T)), M), V) over
  /// row-blocked Q, K, V and rewrites it into one attention per row block of
  /// Q over the column blocks the mask may leave open. False (nothing
  /// emitted) when \p ins is not such a site or splitting gains nothing.
  bool SplitAttentionAt(const Instr& h) {
    if (h.kind != OpKind::kBmm || h.trans_a || h.trans_b) return false;
    const Instr* soft = DefOf(h.in[0]);
    if (soft == nullptr || soft->kind != OpKind::kMaskedSoftmax ||
        soft->in.size() != 2) {
      return false;
    }
    const uint32_t mask = soft->in[1];
    const Instr* sd = DefOf(soft->in[0]);
    const bool scaled = sd != nullptr && sd->kind == OpKind::kScale;
    const float alpha = scaled ? sd->alpha : 0.0f;
    if (scaled) sd = DefOf(sd->in[0]);
    if (sd == nullptr || sd->kind != OpKind::kBmm || sd->trans_a ||
        !sd->trans_b) {
      return false;
    }
    const std::vector<uint32_t> lq = Leaves(sd->in[0]);
    const std::vector<uint32_t> lk = Leaves(sd->in[1]);
    const std::vector<uint32_t> lv = Leaves(h.in[1]);
    if (lk.size() < 2 || lk.size() != lv.size()) return false;
    for (size_t j = 0; j < lk.size(); ++j) {
      if (Rows(lk[j]) != Rows(lv[j])) return false;
    }
    std::vector<uint32_t> all = lq;
    all.insert(all.end(), lk.begin(), lk.end());
    all.insert(all.end(), lv.begin(), lv.end());
    if (!Mixed(all)) return false;

    // Which mask entries may be open (not -inf) for some request.
    const size_t rq = Rows(sd->in[0]);
    const size_t rk = Rows(sd->in[1]);
    const Value& mv = Val(mask);
    const float* captured = nullptr;
    size_t ns = 0;
    if (mv.kind == ValueKind::kConstant &&
        mv.shape == std::vector<size_t>{rq, rk}) {
      captured = out_.program.constants[mv.index].data();
    } else {
      const Instr* md = DefOf(mask);
      // nn::CrossMaskBlock: rows and columns of different category, and
      // the diagonal of a static row whose history is all padding.
      if (md == nullptr || md->kind != OpKind::kCrossPaddingMask ||
          md->row == 0 || rq != rk || md->row + src_.n_seq != rk) {
        return false;
      }
      ns = md->row;
    }
    auto open = [&](size_t r, size_t c) {
      if (captured != nullptr) {
        return captured[r * rk + c] != -std::numeric_limits<float>::infinity();
      }
      return (r < ns) != (c < ns) || (r == c && r < ns);
    };

    // Per row block: the range of column blocks it may attend to; the
    // closed blocks inside that range become zero rows.
    struct RowBlock {
      size_t r0, first, last;
      std::vector<char> open;
    };
    std::vector<size_t> c0(lk.size());
    for (size_t j = 1; j < lk.size(); ++j) c0[j] = c0[j - 1] + Rows(lk[j - 1]);
    std::vector<RowBlock> blocks;
    bool gains = false;
    size_t r0 = 0;
    for (uint32_t q : lq) {
      RowBlock blk{r0, lk.size(), 0, std::vector<char>(lk.size(), 0)};
      for (size_t j = 0; j < lk.size(); ++j) {
        for (size_t r = r0; r < r0 + Rows(q) && !blk.open[j]; ++r) {
          for (size_t c = c0[j]; c < c0[j] + Rows(lk[j]); ++c) {
            if (open(r, c)) {
              blk.open[j] = 1;
              break;
            }
          }
        }
        if (blk.open[j]) {
          blk.first = std::min(blk.first, j);
          blk.last = j;
        } else {
          gains = true;
        }
      }
      if (blk.first == lk.size()) return false;  // fully masked rows
      blocks.push_back(std::move(blk));
      r0 += Rows(q);
    }
    if (!gains) return false;

    std::vector<uint32_t> heads;
    for (size_t i = 0; i < lq.size(); ++i) {
      const RowBlock& blk = blocks[i];
      const uint32_t q = lq[i];
      std::vector<uint32_t> kw, vw;
      for (size_t j = blk.first; j <= blk.last; ++j) {
        if (blk.open[j]) {
          kw.push_back(lk[j]);
          vw.push_back(lv[j]);
        } else {
          kw.push_back(Zeros(Val(lk[j]).shape));
          vw.push_back(Zeros(Val(lv[j]).shape));
        }
      }
      const uint32_t k = ConcatRows(kw);
      const uint32_t v = ConcatRows(vw);
      const size_t col = c0[blk.first];
      const size_t w = Rows(k);
      const size_t batch = Val(q).shape[0];

      // Scores; a candidate-invariant operand is shared across the batch.
      Instr sc;
      sc.trans_b = true;
      if (variant_[q] && !variant_[k]) {
        sc.kind = OpKind::kBmmShared;
        sc.in = {q, FirstItem(k)};
      } else if (!variant_[q] && variant_[k]) {
        sc.kind = OpKind::kBmmLeftShared;
        sc.in = {FirstItem(q), k};
      } else {
        sc.kind = OpKind::kBmm;
        sc.in = {q, k};
      }
      uint32_t scores = Emit(std::move(sc), {batch, Rows(q), w});
      if (scaled) {
        Instr s;
        s.kind = OpKind::kScale;
        s.alpha = alpha;
        s.in = {scores};
        scores = Emit(std::move(s), {batch, Rows(q), w});
      }

      // The mask's [rows of the block, window columns] block.
      uint32_t m;
      if (captured != nullptr) {
        tensor::Tensor t = tensor::Tensor::Uninitialized({Rows(q), w});
        tensor::SliceBlock(out_.program.constants[mv.index], blk.r0, col, &t);
        m = NewValue(ValueKind::kConstant, {Rows(q), w}, t, false);
        out_.program.values[m].index =
            static_cast<uint32_t>(out_.program.constants.size());
        out_.program.constants.push_back(std::move(t));
      } else {
        Instr s;
        s.kind = OpKind::kSliceBlock;
        s.in = {mask};
        s.row = static_cast<uint32_t>(blk.r0);
        s.col = static_cast<uint32_t>(col);
        m = Emit(std::move(s), {Rows(q), w});
      }
      Instr sm;
      sm.kind = OpKind::kMaskedSoftmax;
      sm.in = {scores, m};
      const uint32_t p = Emit(std::move(sm), {batch, Rows(q), w});

      Instr av;
      if (variant_[p] && !variant_[v]) {
        av.kind = OpKind::kBmmShared;
        av.in = {p, FirstItem(v)};
      } else if (!variant_[p] && variant_[v]) {
        av.kind = OpKind::kBmmLeftShared;
        av.in = {FirstItem(p), v};
      } else {
        av.kind = OpKind::kBmm;
        av.in = {p, v};
      }
      heads.push_back(
          Emit(std::move(av), {batch, Rows(q), Val(v).shape[2]}));
    }
    ConcatRows(heads, h.out);
    ++sites_;
    return true;
  }

  uint32_t Zeros(std::vector<size_t> shape) {
    Instr z;
    z.kind = OpKind::kZeros;
    return Emit(std::move(z), std::move(shape));
  }

  const Program& src_;
  const data::Batch& batch_;
  const std::vector<IndexBinding>& bindings_;
  std::vector<char> variant_;
  TraceResult out_;
  /// Per value: the row blocks it concatenates (empty: not a concatenation).
  std::vector<std::vector<uint32_t>> parts_;
  /// Per value: its defining instruction's index in out_.program.instrs.
  std::vector<size_t> def_;
  size_t sites_ = 0;
  std::string error_;
};

}  // namespace

FactorResult Factor(const TraceResult& trace1, const TraceResult& traceC,
                    const data::Batch& batch1, const data::Batch& batchC) {
  FactorResult res;
  const Program& p1 = trace1.program;
  const Program& pC = traceC.program;
  if (pC.count < 2) {
    res.error = "factor: need >= 2 candidates to disambiguate bindings";
    return res;
  }
  std::vector<IndexBinding> bindings;
  if (!AlignTraces(trace1, traceC, batch1, &bindings, &res.error)) return res;

  // Structural taint; demoted[] carries empirical refutations into each
  // re-propagation.
  const size_t nvals = p1.values.size();
  std::vector<char> variant;
  std::vector<char> demoted(nvals, 0);
  auto propagate = [&]() { PropagateTaint(pC, bindings, demoted, &variant); };
  propagate();

  // Empirical fixpoint: every structurally invariant value must have its
  // count-C tensor equal to its count-1 tensor block-tiled, bit-for-bit.
  // A refuted claim is demoted and the taint re-propagated, so numeric
  // candidate dependence the structure missed can never be hoisted.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Instr& ins : pC.instrs) {
      const uint32_t v = ins.out;
      if (variant[v]) continue;
      const autograd::NodePtr& n1 = trace1.value_nodes[v];
      const autograd::NodePtr& nC = traceC.value_nodes[v];
      SEQFM_CHECK(n1 != nullptr && nC != nullptr);
      if (!TilesTo(n1->value, nC->value)) {
        demoted[v] = 1;
        changed = true;
      }
    }
    if (changed) propagate();
  }

  if (pC.output == kNoValue || variant[pC.output] == 0) {
    res.error = "factor: score is candidate-invariant";
    return res;
  }

  // Slots: invariant locals consumed by at least one variant instruction.
  std::vector<char> is_slot(nvals, 0);
  for (const Instr& ins : pC.instrs) {
    if (!variant[ins.out]) continue;
    for (uint32_t u : ins.in) {
      if (!variant[u] && pC.values[u].kind == ValueKind::kLocal) {
        is_slot[u] = 1;
      }
    }
  }
  std::vector<uint32_t> slots;
  for (uint32_t v = 0; v < nvals; ++v) {
    if (is_slot[v]) slots.push_back(v);
  }

  // Prologue: the invariant sub-program at count 1, writing the slots.
  res.prologue = p1;
  res.prologue.instrs.clear();
  for (size_t i = 0; i < p1.instrs.size(); ++i) {
    if (variant[p1.instrs[i].out]) continue;
    Instr ins = p1.instrs[i];
    if (IsGather(ins.kind)) ins.binding = bindings[i];
    res.prologue.instrs.push_back(std::move(ins));
  }
  res.prologue.output = kNoValue;
  res.prologue.slot_outputs = slots;
  res.prologue.uid = NextProgramUid();

  // Body: the variant sub-program at count C, reading the slots at their
  // count-1 shape. A slot read where the count-C program saw it tiled gets
  // one kTileRows copy, except as an operand of a concat_axis1 with a
  // per-candidate partner: that kernel broadcasts a batch-1 operand itself.
  res.body = pC;
  res.body.instrs.clear();
  res.body.slot_outputs.clear();
  std::vector<uint32_t> tiled(nvals, kNoValue);
  std::vector<std::vector<size_t>> shape1(nvals);  // count-1 shapes
  for (uint32_t v = 0; v < nvals; ++v) shape1[v] = p1.values[v].shape;
  for (size_t pos = 0; pos < slots.size(); ++pos) {
    Value& sv = res.body.values[slots[pos]];
    sv.kind = ValueKind::kSlot;
    sv.index = static_cast<uint32_t>(pos);
    sv.shape = shape1[slots[pos]];
  }
  for (size_t i = 0; i < pC.instrs.size(); ++i) {
    if (!variant[pC.instrs[i].out]) continue;
    Instr ins = pC.instrs[i];
    if (IsGather(ins.kind)) ins.binding = bindings[i];
    for (size_t j = 0; j < ins.in.size(); ++j) {
      const uint32_t s = ins.in[j];
      if (!is_slot[s] || p1.values[s].size() == pC.values[s].size()) continue;
      if (ins.kind == OpKind::kConcatAxis1 && shape1[s][0] == 1 &&
          variant[ins.in[1 - j]]) {
        continue;
      }
      if (tiled[s] == kNoValue) {
        Value t;
        t.kind = ValueKind::kLocal;
        t.shape = pC.values[s].shape;
        tiled[s] = static_cast<uint32_t>(res.body.values.size());
        res.body.values.push_back(std::move(t));
        shape1.push_back(shape1[s]);
        Instr tile;
        tile.kind = OpKind::kTileRows;
        tile.in = {s};
        tile.out = tiled[s];
        res.body.instrs.push_back(std::move(tile));
      }
      ins.in[j] = tiled[s];
    }
    res.body.instrs.push_back(std::move(ins));
  }

  // Row axes: every value the body touches must have its count-1 shape, or
  // that shape with one axis C times as long — the axis the executor
  // re-views for each call's row count.
  std::vector<char> used(res.body.values.size(), 0);
  for (const Instr& ins : res.body.instrs) {
    used[ins.out] = 1;
    for (uint32_t u : ins.in) used[u] = 1;
  }
  for (uint32_t v = 0; v < res.body.values.size(); ++v) {
    Value& val = res.body.values[v];
    if (!used[v] || val.kind == ValueKind::kSlot) continue;
    if (!FindRowAxis(shape1[v], val.shape, pC.count, &val.row_axis)) {
      res.error = "factor: value " + std::to_string(v) +
                  " does not scale with the candidate count along one axis";
      return res;
    }
  }
  res.body.uid = NextProgramUid();
  return res;
}

size_t SplitAttention(TraceResult* trace1, TraceResult* traceC,
                      const data::Batch& batch1, const data::Batch& batchC) {
  std::vector<IndexBinding> bindings;
  std::string error;
  if (traceC->program.count < 2 ||
      !AlignTraces(*trace1, *traceC, batch1, &bindings, &error)) {
    return 0;  // Factor reports the misalignment
  }
  std::vector<char> variant;
  PropagateTaint(traceC->program, bindings,
                 std::vector<char>(traceC->program.values.size(), 0),
                 &variant);
  BlockSplitter s1(*trace1, batch1, bindings, variant);
  BlockSplitter sC(*traceC, batchC, bindings, variant);
  if (!s1.Run(&error) || !sC.Run(&error)) {
    SEQFM_LOG(Warning) << "ir: " << error << "; compiling unsplit";
    return 0;
  }
  if (sC.sites() == 0 || s1.sites() != sC.sites()) return 0;
  *trace1 = s1.Take();
  *traceC = sC.Take();
  return sC.sites();
}

size_t FoldConstants(Program* program) {
  // Never fold a program output or a slot output: the executor resolves both
  // through the frame's locals, so re-kinding one to kConstant would hand its
  // consumers an empty tensor. (A constant-valued slot is possible — a
  // constant subgraph feeding a candidate-variant op is selected as a slot.)
  std::vector<char> pinned(program->values.size(), 0);
  if (program->output != kNoValue) pinned[program->output] = 1;
  for (uint32_t s : program->slot_outputs) pinned[s] = 1;

  size_t folded = 0;
  std::vector<Instr> kept;
  kept.reserve(program->instrs.size());
  for (Instr& ins : program->instrs) {
    bool foldable = !pinned[ins.out] && !ins.in.empty() && !IsGather(ins.kind) &&
                    !IsSynthesized(ins.kind) && ins.kind != OpKind::kTileRows;
    for (uint32_t u : ins.in) {
      foldable = foldable &&
                 program->values[u].kind == ValueKind::kConstant;
    }
    if (!foldable) {
      kept.push_back(std::move(ins));
      continue;
    }
    std::vector<const tensor::Tensor*> in;
    in.reserve(ins.in.size());
    for (uint32_t u : ins.in) {
      in.push_back(&program->constants[program->values[u].index]);
    }
    Value& out = program->values[ins.out];
    tensor::Tensor value = tensor::Tensor::Uninitialized(out.shape);
    SEQFM_CHECK(EvalPure(ins, in, &value))
        << "unfoldable pure op " << OpKindName(ins.kind);
    out.kind = ValueKind::kConstant;
    out.index = static_cast<uint32_t>(program->constants.size());
    program->constants.push_back(std::move(value));
    ++folded;
  }
  program->instrs = std::move(kept);
  return folded;
}

size_t DeadCodeElim(Program* program) {
  std::vector<char> live(program->values.size(), 0);
  if (program->output != kNoValue) live[program->output] = 1;
  for (uint32_t s : program->slot_outputs) live[s] = 1;
  std::vector<char> keep(program->instrs.size(), 0);
  size_t removed = 0;
  for (size_t i = program->instrs.size(); i-- > 0;) {
    const Instr& ins = program->instrs[i];
    if (!live[ins.out]) {
      ++removed;
      continue;
    }
    keep[i] = 1;
    for (uint32_t u : ins.in) live[u] = 1;
  }
  if (removed > 0) {
    std::vector<Instr> kept;
    kept.reserve(program->instrs.size() - removed);
    for (size_t i = 0; i < program->instrs.size(); ++i) {
      if (keep[i]) kept.push_back(std::move(program->instrs[i]));
    }
    program->instrs = std::move(kept);
  }
  return removed;
}

size_t FuseElementwise(Program* program) {
  std::vector<uint32_t> consumers(program->values.size(), 0);
  for (const Instr& ins : program->instrs) {
    for (uint32_t u : ins.in) ++consumers[u];
  }
  std::vector<char> pinned(program->values.size(), 0);
  if (program->output != kNoValue) pinned[program->output] = 1;
  for (uint32_t s : program->slot_outputs) pinned[s] = 1;

  size_t fused = 0;
  for (const Instr& ins : program->instrs) {
    switch (ins.kind) {
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kTanh:
      case OpKind::kScale:
      case OpKind::kAddScalar:
      case OpKind::kReshape:
        break;
      default:
        continue;
    }
    const uint32_t src = ins.in[0];
    if (program->values[src].kind != ValueKind::kLocal) continue;
    if (consumers[src] != 1 || pinned[src]) continue;
    program->values[ins.out].alias_of = src;
    ++fused;
  }
  return fused;
}

void PlanArena(Program* program) {
  const size_t nvals = program->values.size();
  const size_t ninstr = program->instrs.size();
  constexpr size_t kAlignFloats = 16;  // 64-byte lanes
  auto align_up = [](size_t n) {
    return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  };
  auto root_of = [&](uint32_t v) {
    while (program->values[v].alias_of != kNoValue) {
      v = program->values[v].alias_of;
    }
    return v;
  };

  // Lifetimes per alias root: from the root's defining instruction to the
  // last instruction that reads or redefines (in place) any alias of it;
  // externally visible values live past the end of the program.
  constexpr size_t kNoDef = static_cast<size_t>(-1);
  std::vector<size_t> def(nvals, kNoDef);
  std::vector<size_t> end(nvals, 0);
  for (size_t i = 0; i < ninstr; ++i) {
    const Instr& ins = program->instrs[i];
    const uint32_t r = root_of(ins.out);
    if (def[r] == kNoDef) def[r] = i;
    end[r] = std::max(end[r], i);
    for (uint32_t u : ins.in) {
      if (program->values[u].kind != ValueKind::kLocal) continue;
      end[root_of(u)] = std::max(end[root_of(u)], i);
    }
  }
  if (program->output != kNoValue &&
      program->values[program->output].kind == ValueKind::kLocal) {
    end[root_of(program->output)] = ninstr;
  }
  for (uint32_t s : program->slot_outputs) {
    if (program->values[s].kind == ValueKind::kLocal) {
      end[root_of(s)] = ninstr;
    }
  }

  // First-fit over a merged free list, sweeping roots in definition order.
  struct Block {
    size_t offset;
    size_t size;
  };
  std::vector<Block> free_list;
  size_t high_water = 0;
  auto release = [&](size_t offset, size_t size) {
    Block blk{offset, size};
    auto it = std::lower_bound(
        free_list.begin(), free_list.end(), blk,
        [](const Block& a, const Block& b) { return a.offset < b.offset; });
    it = free_list.insert(it, blk);
    if (it + 1 != free_list.end() && it->offset + it->size == (it + 1)->offset) {
      it->size += (it + 1)->size;
      free_list.erase(it + 1);
    }
    if (it != free_list.begin() &&
        (it - 1)->offset + (it - 1)->size == it->offset) {
      (it - 1)->size += it->size;
      free_list.erase(it);
    }
  };
  auto acquire = [&](size_t size) {
    for (auto it = free_list.begin(); it != free_list.end(); ++it) {
      if (it->size < size) continue;
      const size_t offset = it->offset;
      it->offset += size;
      it->size -= size;
      if (it->size == 0) free_list.erase(it);
      return offset;
    }
    const size_t offset = high_water;
    high_water += size;
    return offset;
  };

  std::vector<uint32_t> order;
  for (uint32_t v = 0; v < nvals; ++v) {
    if (program->values[v].kind == ValueKind::kLocal &&
        program->values[v].alias_of == kNoValue && def[v] != kNoDef) {
      order.push_back(v);
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return def[a] < def[b];
  });

  struct LiveRoot {
    size_t end;
    size_t offset;
    size_t size;
  };
  std::vector<LiveRoot> active;
  for (uint32_t v : order) {
    for (size_t i = active.size(); i-- > 0;) {
      if (active[i].end < def[v]) {
        release(active[i].offset, active[i].size);
        active.erase(active.begin() + i);
      }
    }
    const size_t size = align_up(program->values[v].size());
    const size_t offset = acquire(size);
    program->values[v].offset = offset;
    active.push_back({end[v], offset, size});
  }

  for (uint32_t v = 0; v < nvals; ++v) {
    Value& val = program->values[v];
    if (val.kind != ValueKind::kLocal) continue;
    if (val.alias_of != kNoValue) {
      val.offset = program->values[root_of(v)].offset;
    } else if (def[v] == kNoDef) {
      val.offset = kNoOffset;  // dead local (DCE removed its def)
    }
  }
  program->frame_floats = high_water;
}

}  // namespace ir
}  // namespace seqfm
