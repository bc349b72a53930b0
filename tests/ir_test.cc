// Lockdown suite for the serving compiler (src/ir/):
//   - trace round-trip: the recorded program's output tensor is bit-equal to
//     a fresh tape-free forward, for SeqFM and every registry baseline;
//   - trace refusals: a training-only op or an unannotated constant poisons
//     the trace with a named diagnostic, and serving stays eager;
//   - pass units on hand-built programs: constant folding, dead-code
//     elimination, elementwise fusion, and arena planning (buffer reuse);
//   - compiled-vs-eager serving parity: bit-for-bit equal scores for every
//     model at 1/2 threads, 1/3 shards, and both SIMD levels;
//   - compiler lifecycle: recompile on checkpoint reload, graceful eager
//     fallback when the catalog is too small to disambiguate probes,
//     execution frames freed with their engine, and loss-curve invariance
//     (tracing/compiling never perturbs training).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "baselines/registry.h"
#include "core/seqfm.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "ir/exec.h"
#include "ir/passes.h"
#include "ir/program.h"
#include "ir/trace.h"
#include "ir/verify.h"
#include "nn/module.h"
#include "serve/checkpoint.h"
#include "serve/predictor.h"
#include "serve/shard.h"
#include "tensor/kernels.h"
#include "util/cpu.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures (mirrors tests/serve_test.cc so parity claims line up)
// ---------------------------------------------------------------------------

const std::vector<std::string>& AllBaselines() {
  static const std::vector<std::string> kNames = {
      "FM",  "HOFM",    "NFM", "AFM", "Wide&Deep", "DeepCross",
      "xDeepFM", "DIN", "SASRec",  "TFM", "RRN"};
  return kNames;
}

constexpr size_t kSeqLen = 6;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(5, 9); }

baselines::BaselineConfig SmallBaselineConfig() {
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.mlp_hidden = 8;
  cfg.keep_prob = 1.0f;
  cfg.num_blocks = 2;
  cfg.seed = 123;
  return cfg;
}

core::SeqFmConfig SmallSeqFmConfig() {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.ffn_layers = 2;
  cfg.keep_prob = 1.0f;
  cfg.seed = 321;
  return cfg;
}

/// SeqFM configurations whose attention sites split differently: each view
/// alone removed, the padding-aware cross mask, one FFN layer, and a
/// sequence length and dimension that are not multiples of the 8 reduction
/// lanes (so the softmax and dot-product tails run, with and without the
/// padding-aware mask).
std::vector<std::string> SeqFmVariants() {
  return {"SeqFM/no_static", "SeqFM/no_dynamic", "SeqFM/no_cross",
          "SeqFM/pad_keys",  "SeqFM/ffn1",       "SeqFM/seq13_dim12",
          "SeqFM/seq13_dim12_pad_keys"};
}

/// Sequence length a model name is built for (SeqFM/seq13* variants: 13).
size_t SeqLenFor(const std::string& name) {
  return name.find("seq13") != std::string::npos ? 13 : kSeqLen;
}

std::unique_ptr<core::Model> MakeModelByName(const std::string& name,
                                             const data::FeatureSpace& space,
                                             uint64_t seed = 0) {
  if (name.rfind("SeqFM", 0) == 0) {
    core::SeqFmConfig cfg = SmallSeqFmConfig();
    if (seed != 0) cfg.seed = seed;
    auto has = [&](const char* tag) {
      return name.find(tag) != std::string::npos;
    };
    cfg.use_static_view = !has("no_static");
    cfg.use_dynamic_view = !has("no_dynamic");
    cfg.use_cross_view = !has("no_cross");
    cfg.mask_padding_keys = has("pad_keys");
    if (has("ffn1")) cfg.ffn_layers = 1;
    if (has("dim12")) cfg.embedding_dim = 12;
    cfg.max_seq_len = SeqLenFor(name);
    return std::make_unique<core::SeqFm>(space, cfg);
  }
  baselines::BaselineConfig cfg = SmallBaselineConfig();
  if (seed != 0) cfg.seed = seed;
  return baselines::CreateBaseline(name, space, cfg).ValueOrDie();
}

std::vector<std::string> AllModels() {
  std::vector<std::string> names = AllBaselines();
  names.insert(names.begin(), "SeqFM");
  return names;
}

/// Deterministic requests covering empty, short, and overflowing histories.
std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(4);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};  // longer than kSeqLen
  examples[1] = {2, 6, 0.5f, {5}};
  examples[2] = {3, 0, 2.0f, {}};  // cold start
  examples[3] = {4, 8, 4.0f, {8, 7, 6}};
  return examples;
}

/// A serving-style batch: every sample shares \p ex's (user, history) and
/// sample i scores candidate \p candidates[i] — the batch shape ir::Trace
/// requires.
data::Batch ServingBatch(const data::BatchBuilder& builder,
                         const data::SequenceExample& ex,
                         const std::vector<int32_t>& candidates) {
  std::vector<const data::SequenceExample*> ptrs(candidates.size(), &ex);
  return builder.Build(ptrs, &candidates);
}

void ExpectBitEqual(const float* a, const float* b, size_t n,
                    const std::string& context) {
  EXPECT_EQ(std::memcmp(a, b, n * sizeof(float)), 0) << context;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Trace round-trip: recorded program output == tape-free forward, bit-for-bit
// ---------------------------------------------------------------------------

class TraceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceTest, TracedProgramRoundTripsTheForward) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const std::vector<int32_t> candidates = {0, 3, 7, 8};
  const data::Batch batch =
      ServingBatch(builder, TestExamples()[0], candidates);

  const ir::TraceResult traced = ir::Trace(model.get(), batch);
  ASSERT_TRUE(traced.ok()) << GetParam() << ": " << traced.error;
  const ir::Program& prog = traced.program;
  ASSERT_FALSE(prog.instrs.empty());
  ASSERT_NE(prog.output, ir::kNoValue);
  ASSERT_EQ(prog.values.size(), traced.value_nodes.size());
  ASSERT_EQ(prog.count, candidates.size());

  // Well-formed SSA: every id in range, every instruction's output recorded.
  for (const ir::Instr& ins : prog.instrs) {
    EXPECT_LT(ins.out, prog.values.size());
    for (uint32_t u : ins.in) EXPECT_LT(u, prog.values.size());
  }

  // The traced output tensor is the forward's output, bit-for-bit.
  autograd::NoGradGuard guard;
  const autograd::Variable eager = model->Score(batch, /*training=*/false);
  const tensor::Tensor& recorded = traced.value_nodes[prog.output]->value;
  ASSERT_EQ(recorded.size(), eager.value().size());
  ExpectBitEqual(recorded.data(), eager.value().data(), recorded.size(),
                 GetParam() + " trace round-trip");
}

INSTANTIATE_TEST_SUITE_P(AllModels, TraceTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Trace refusals: a serving forward the compiler cannot reproduce poisons the
// trace with a diagnostic, and the Predictor keeps serving it eagerly.
// ---------------------------------------------------------------------------

/// First-order scorer over the static ids whose serving forward also reaches
/// a training-only op (dropout applied regardless of the training flag).
class DropoutAlwaysModel : public core::Model {
 public:
  explicit DropoutAlwaysModel(const data::FeatureSpace& space)
      : w_(autograd::Variable::Leaf(
            tensor::Tensor::Full({space.static_dim(), 1}, 0.25f), true)) {}

  autograd::Variable Score(const data::Batch& batch, bool) override {
    autograd::Variable s = autograd::EmbeddingSumGather(
        w_, batch.static_ids, batch.batch_size, batch.n_static);
    return autograd::Dropout(s, 0.5f, /*training=*/true, &rng_);
  }
  std::vector<autograd::Variable> TrainableParameters() override {
    return {w_};
  }
  std::string name() const override { return "DropoutAlways"; }

 private:
  autograd::Variable w_;
  Rng rng_{7};
};

/// The same scorer plus a per-request bias built as a plain
/// Variable::Constant that no builder annotated for the tracer.
class UnannotatedConstantModel : public core::Model {
 public:
  explicit UnannotatedConstantModel(const data::FeatureSpace& space)
      : w_(autograd::Variable::Leaf(
            tensor::Tensor::Full({space.static_dim(), 1}, 0.25f), true)) {}

  autograd::Variable Score(const data::Batch& batch, bool) override {
    autograd::Variable s = autograd::EmbeddingSumGather(
        w_, batch.static_ids, batch.batch_size, batch.n_static);
    autograd::Variable bias = autograd::Variable::Constant(
        tensor::Tensor::Full({batch.batch_size, 1}, 0.5f));
    return autograd::Add(s, bias);
  }
  std::vector<autograd::Variable> TrainableParameters() override {
    return {w_};
  }
  std::string name() const override { return "UnannotatedConstant"; }

 private:
  autograd::Variable w_;
};

/// Traces \p model on a serving batch and expects the diagnostic \p want;
/// then checks that a default Predictor declines to compile and still
/// scores the whole catalog eagerly.
void ExpectTraceRefusedAndEagerFallback(core::Model* model,
                                        const data::FeatureSpace& space,
                                        const std::string& want) {
  data::BatchBuilder builder(space, kSeqLen);
  const data::Batch batch =
      ServingBatch(builder, TestExamples()[0], {0, 3, 7, 8});
  const ir::TraceResult traced = ir::Trace(model, batch);
  EXPECT_FALSE(traced.ok());
  EXPECT_NE(traced.error.find(want), std::string::npos) << traced.error;

  serve::Predictor predictor(model, &builder);
  EXPECT_EQ(predictor.engine(), nullptr);
  EXPECT_FALSE(predictor.compiled_active());
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const std::vector<float> scores =
      predictor.ScoreCandidates(TestExamples()[1], catalog);
  EXPECT_EQ(scores.size(), catalog.size());
}

TEST(TraceTest, TrainingOnlyOpIsRefusedByName) {
  const data::FeatureSpace space = SmallSpace();
  DropoutAlwaysModel model(space);
  ExpectTraceRefusedAndEagerFallback(&model, space,
                                     "untraceable op 'dropout'");
}

TEST(TraceTest, UnannotatedConstantIsRefused) {
  const data::FeatureSpace space = SmallSpace();
  UnannotatedConstantModel model(space);
  ExpectTraceRefusedAndEagerFallback(
      &model, space, "unannotated constant in traced forward");
}

// ---------------------------------------------------------------------------
// Pass units on hand-built programs
// ---------------------------------------------------------------------------

/// Appends a kLocal value of \p shape and returns its id.
uint32_t AddLocal(ir::Program* p, std::vector<size_t> shape) {
  ir::Value v;
  v.kind = ir::ValueKind::kLocal;
  v.shape = std::move(shape);
  p->values.push_back(std::move(v));
  return static_cast<uint32_t>(p->values.size() - 1);
}

/// Appends a kConstant value holding \p t and returns its id.
uint32_t AddConstant(ir::Program* p, tensor::Tensor t) {
  ir::Value v;
  v.kind = ir::ValueKind::kConstant;
  v.shape.assign(t.shape().begin(), t.shape().end());
  v.index = static_cast<uint32_t>(p->constants.size());
  p->constants.push_back(std::move(t));
  p->values.push_back(std::move(v));
  return static_cast<uint32_t>(p->values.size() - 1);
}

void AddInstr(ir::Program* p, ir::OpKind kind, std::vector<uint32_t> in,
              uint32_t out, float alpha = 0.0f) {
  ir::Instr ins;
  ins.kind = kind;
  ins.in = std::move(in);
  ins.out = out;
  ins.alpha = alpha;
  p->instrs.push_back(std::move(ins));
}

TEST(PassTest, FoldConstantsEvaluatesConstantSubgraphs) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t c1 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t sum = AddLocal(&p, {2, 2});
  const uint32_t half = AddLocal(&p, {2, 2});
  const uint32_t mask = AddLocal(&p, {2, 2});
  const uint32_t out = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kAdd, {c0, c1}, sum);
  AddInstr(&p, ir::OpKind::kScale, {sum}, half, /*alpha=*/0.5f);
  AddInstr(&p, ir::OpKind::kHistoryMask, {}, mask);
  AddInstr(&p, ir::OpKind::kMul, {half, mask}, out);
  p.output = out;

  // Single in-order sweep folds the whole constant chain: once `sum` is
  // re-kinded to a constant, the scale's input is constant too. The mask and
  // the request-dependent product stay.
  EXPECT_EQ(ir::FoldConstants(&p), 2u);
  ASSERT_EQ(p.instrs.size(), 2u);
  ASSERT_EQ(p.values[half].kind, ir::ValueKind::kConstant);
  const tensor::Tensor& folded = p.constants[p.values[half].index];
  ASSERT_EQ(folded.size(), 4u);
  for (size_t i = 0; i < folded.size(); ++i) {
    EXPECT_EQ(folded.data()[i], 1.0f) << i;  // (1 + 1) * 0.5
  }
}

TEST(PassTest, FoldConstantsNeverFoldsProgramOutputsOrSlots) {
  // The executor resolves program outputs and slot outputs through the
  // frame's locals, so folding one to a constant would hand its consumer an
  // empty tensor. A constant-valued slot is reachable in practice: a
  // constant subgraph consumed by a candidate-variant op gets selected as a
  // slot by Factor. Regression for the verifier-surfaced pinning rule.
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t slot = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, slot);
  p.output = ir::kNoValue;
  p.slot_outputs = {slot};
  EXPECT_EQ(ir::FoldConstants(&p), 0u);
  ASSERT_EQ(p.instrs.size(), 1u);
  EXPECT_EQ(p.values[slot].kind, ir::ValueKind::kLocal);

  ir::Program q;
  const uint32_t d0 = AddConstant(&q, tensor::Tensor::Ones({2, 2}));
  const uint32_t out = AddLocal(&q, {2, 2});
  AddInstr(&q, ir::OpKind::kScale, {d0}, out, /*alpha=*/2.0f);
  q.output = out;
  EXPECT_EQ(ir::FoldConstants(&q), 0u);
  ASSERT_EQ(q.instrs.size(), 1u);
  EXPECT_EQ(q.values[out].kind, ir::ValueKind::kLocal);
}

TEST(PassTest, FoldConstantsLeavesRequestDependentOpsAlone) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t mask = AddLocal(&p, {2, 2});
  const uint32_t out = AddLocal(&p, {2, 2});
  // Synthesized masks depend on the request history even with no tensor
  // inputs; they must never fold.
  AddInstr(&p, ir::OpKind::kHistoryMask, {}, mask);
  AddInstr(&p, ir::OpKind::kMul, {c0, mask}, out);
  p.output = out;
  EXPECT_EQ(ir::FoldConstants(&p), 0u);
  EXPECT_EQ(p.instrs.size(), 2u);
}

TEST(PassTest, DeadCodeElimDropsValuesUnreachableFromOutputs) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t dead = AddLocal(&p, {2, 2});
  const uint32_t dead2 = AddLocal(&p, {2, 2});
  const uint32_t live = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, dead);
  AddInstr(&p, ir::OpKind::kSigmoid, {dead}, dead2);  // dead chain
  AddInstr(&p, ir::OpKind::kTanh, {c0}, live);
  p.output = live;

  EXPECT_EQ(ir::DeadCodeElim(&p), 2u);
  ASSERT_EQ(p.instrs.size(), 1u);
  EXPECT_EQ(p.instrs[0].kind, ir::OpKind::kTanh);
  EXPECT_EQ(p.instrs[0].out, live);
}

TEST(PassTest, DeadCodeElimKeepsSlotOutputsAlive) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t slot = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, slot);
  p.output = ir::kNoValue;  // prologue shape: only slot outputs matter
  p.slot_outputs = {slot};
  EXPECT_EQ(ir::DeadCodeElim(&p), 0u);
  EXPECT_EQ(p.instrs.size(), 1u);
}

TEST(PassTest, FuseElementwiseAliasesSingleConsumerChains) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t base = AddLocal(&p, {2, 2});
  const uint32_t relued = AddLocal(&p, {2, 2});
  const uint32_t scaled = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kAdd, {c0, c0}, base);
  AddInstr(&p, ir::OpKind::kRelu, {base}, relued);
  AddInstr(&p, ir::OpKind::kScale, {relued}, scaled, 2.0f);
  p.output = scaled;

  EXPECT_EQ(ir::FuseElementwise(&p), 2u);
  EXPECT_EQ(p.values[relued].alias_of, base);
  EXPECT_EQ(p.values[scaled].alias_of, relued);
  EXPECT_EQ(p.values[base].alias_of, ir::kNoValue);

  // The whole aliased chain shares one planned buffer.
  ir::PlanArena(&p);
  EXPECT_EQ(p.values[relued].offset, p.values[base].offset);
  EXPECT_EQ(p.values[scaled].offset, p.values[base].offset);
  EXPECT_EQ(p.frame_floats, 16u);  // one 64-byte-aligned 2x2 block
}

TEST(PassTest, FuseElementwiseSkipsMultiConsumerInputs) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t base = AddLocal(&p, {2, 2});
  const uint32_t relued = AddLocal(&p, {2, 2});
  const uint32_t both = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kAdd, {c0, c0}, base);
  AddInstr(&p, ir::OpKind::kRelu, {base}, relued);
  AddInstr(&p, ir::OpKind::kMul, {base, relued}, both);  // base read again
  p.output = both;
  // Running relu in place would corrupt base before the mul reads it.
  EXPECT_EQ(ir::FuseElementwise(&p), 0u);
  EXPECT_EQ(p.values[relued].alias_of, ir::kNoValue);
}

TEST(PassTest, PlanArenaReusesBuffersAcrossDisjointLifetimes) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t temp = AddLocal(&p, {2, 2});
  const uint32_t kept = AddLocal(&p, {2, 2});
  const uint32_t late = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, temp);     // temp: instrs [0, 1]
  AddInstr(&p, ir::OpKind::kAdd, {temp, c0}, kept);  // kept: live to the end
  AddInstr(&p, ir::OpKind::kSigmoid, {c0}, late);  // late: defined after temp
  AddInstr(&p, ir::OpKind::kMul, {kept, late}, kept);
  p.output = kept;

  ir::PlanArena(&p);
  // temp is dead before late is defined, so late reuses its block; kept
  // overlaps both and needs its own.
  EXPECT_EQ(p.values[late].offset, p.values[temp].offset);
  EXPECT_NE(p.values[kept].offset, p.values[temp].offset);
  EXPECT_EQ(p.frame_floats, 32u);  // two aligned 2x2 blocks, not three
}

// ---------------------------------------------------------------------------
// Verifier: hand-corrupted programs are rejected with precise diagnostics.
// Each test takes a valid program, breaks exactly one invariant, and asserts
// ir::Verify names the broken rule — the lockdown that keeps a future pass
// bug from shipping a structurally-wrong program to the executor.
// ---------------------------------------------------------------------------

/// c0 -> relu -> a; (a, c0) -> add -> b; output b. Verifies clean.
ir::Program SmallValidProgram() {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 4}));
  const uint32_t a = AddLocal(&p, {2, 4});
  const uint32_t b = AddLocal(&p, {2, 4});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, a);
  AddInstr(&p, ir::OpKind::kAdd, {a, c0}, b);
  p.output = b;
  return p;
}

void ExpectVerifyRejects(const ir::Program& p, const std::string& substr,
                         const ir::VerifyOptions& opts = {}) {
  const Status st = ir::Verify(p, opts);
  ASSERT_FALSE(st.ok()) << "verifier accepted a program that should fail: "
                        << substr;
  EXPECT_NE(st.message().find(substr), std::string::npos)
      << "diagnostic \"" << st.message() << "\" lacks \"" << substr << "\"";
}

TEST(VerifierTest, AcceptsAWellFormedProgram) {
  const ir::Program p = SmallValidProgram();
  const Status st = ir::Verify(p);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(VerifierTest, RejectsUseBeforeDefinition) {
  ir::Program p = SmallValidProgram();
  // The add now runs first and reads %1 (relu's output) one instruction
  // before it exists.
  std::swap(p.instrs[0], p.instrs[1]);
  ExpectVerifyRejects(p, "before its definition");
}

TEST(VerifierTest, RejectsDoubleDefinition) {
  ir::Program p = SmallValidProgram();
  // Second write to the relu output: SSA violation.
  AddInstr(&p, ir::OpKind::kSigmoid, {0}, 1);
  ExpectVerifyRejects(p, "defined twice");
}

TEST(VerifierTest, RejectsConstantShapeDisagreement) {
  ir::Program p = SmallValidProgram();
  p.values[0].shape = {3, 3};  // tensor holds 8 floats, shape now claims 9
  ExpectVerifyRejects(p, "disagrees with declared shape");
}

TEST(VerifierTest, RejectsSlotValueWhereSlotsAreNotAllowed) {
  ir::Program p = SmallValidProgram();
  ir::Value slot;
  slot.kind = ir::ValueKind::kSlot;
  slot.shape = {2, 4};
  slot.index = 0;
  p.values.push_back(slot);
  const uint32_t sid = static_cast<uint32_t>(p.values.size() - 1);
  p.instrs[1].in[1] = sid;  // add now reads the slot instead of c0
  // Prologue-style verification (no slots) must reject...
  ExpectVerifyRejects(p, "takes no slots");
  // ...an in-range slot under body options is fine...
  ir::VerifyOptions body;
  body.allow_slots = true;
  body.num_slots = 1;
  const Status ok = ir::Verify(p, body);
  EXPECT_TRUE(ok.ok()) << ok.message();
  // ...and an out-of-range slot index is named precisely.
  p.values[sid].index = 7;
  ExpectVerifyRejects(p, "slot index 7 out of range", body);
}

TEST(VerifierTest, RejectsOutOfRangeBindingColumn) {
  ir::Program p;
  p.count = 2;
  p.n_static = 2;  // static index row has columns {0, 1}
  const uint32_t table = AddConstant(&p, tensor::Tensor::Ones({5, 3}));
  const uint32_t rows = AddLocal(&p, {2, 1, 3});
  AddInstr(&p, ir::OpKind::kEmbeddingGather, {table}, rows);
  p.instrs.back().binding.source = ir::IndexSource::kStatic;
  p.instrs.back().binding.cols = {0};
  p.instrs.back().binding.deltas = {0};
  p.output = rows;
  const Status ok = ir::Verify(p);
  ASSERT_TRUE(ok.ok()) << ok.message();

  p.instrs.back().binding.cols = {5};  // reads past the synthesized row
  ExpectVerifyRejects(p, "binding column 5 (position 0) exceeds source width 2");
}

TEST(VerifierTest, RejectsSliceBlockOutsideItsInput) {
  ir::Program p;
  const uint32_t m = AddConstant(&p, tensor::Tensor::Ones({3, 4}));
  const uint32_t blk = AddLocal(&p, {2, 3});
  AddInstr(&p, ir::OpKind::kSliceBlock, {m}, blk);
  p.instrs.back().row = 1;
  p.instrs.back().col = 1;
  p.output = blk;
  const Status ok = ir::Verify(p);
  ASSERT_TRUE(ok.ok()) << ok.message();

  p.instrs.back().col = 2;  // columns 2..4 of a 4-wide matrix
  ExpectVerifyRejects(p, "block [1 +2, 2 +3] exceeds the 3 x 4 input matrix");
  p.instrs.back().col = 1;
  p.instrs.back().row = 2;  // rows 2..3 of 3
  ExpectVerifyRejects(p, "exceeds the 3 x 4 input matrix");
  p.instrs.back().row = 1;
  p.values[blk].shape = {6};  // a block is a matrix
  ExpectVerifyRejects(p, "out must be rank-2");
}

TEST(VerifierTest, RejectsSharedOperandTransposesThatDoNotFit) {
  // q [2, 1, 4] against a shared key matrix stored [5, 4]: scores [2, 1, 5].
  ir::Program p;
  const uint32_t q = AddConstant(&p, tensor::Tensor::Ones({2, 1, 4}));
  const uint32_t keys = AddConstant(&p, tensor::Tensor::Ones({5, 4}));
  const uint32_t scores = AddLocal(&p, {2, 1, 5});
  AddInstr(&p, ir::OpKind::kBmmShared, {q, keys}, scores);
  p.instrs.back().trans_b = true;
  // A shared query block [3, 4] against per-item keys [2, 2, 4]: [2, 3, 2].
  const uint32_t qs = AddConstant(&p, tensor::Tensor::Ones({3, 4}));
  const uint32_t k = AddConstant(&p, tensor::Tensor::Ones({2, 2, 4}));
  const uint32_t left = AddLocal(&p, {2, 3, 2});
  AddInstr(&p, ir::OpKind::kBmmLeftShared, {qs, k}, left);
  p.instrs.back().trans_b = true;
  p.output = left;
  const Status ok = ir::Verify(p);
  ASSERT_TRUE(ok.ok()) << ok.message();

  p.instrs[0].trans_b = false;  // [4] x [5, 4] does not chain
  ExpectVerifyRejects(p, "instr #0 (bmm_shared): shape mismatch: inner dims 4 vs 5");
  p.instrs[0].trans_b = true;
  p.instrs[1].trans_b = false;  // W [3, 4] x P[b] [2, 4] does not chain
  ExpectVerifyRejects(p, "instr #1 (bmm_left_shared): shape mismatch: inner dims 4 vs 2");
  p.instrs[1].trans_b = true;
  p.instrs[1].trans_a = true;
  ExpectVerifyRejects(p, "trans_a set on a non-bmm op");
}

TEST(VerifierTest, ConcatAxis1BroadcastsOnlyABatchOneOperand) {
  // A shared [1, 1, 3] row ahead of a per-row [4, 2, 3] block: [4, 3, 3].
  ir::Program p;
  const uint32_t row = AddConstant(&p, tensor::Tensor::Ones({1, 1, 3}));
  const uint32_t blk = AddConstant(&p, tensor::Tensor::Ones({4, 2, 3}));
  const uint32_t cat = AddLocal(&p, {4, 3, 3});
  AddInstr(&p, ir::OpKind::kConcatAxis1, {row, blk}, cat);
  p.output = cat;
  const Status ok = ir::Verify(p);
  ASSERT_TRUE(ok.ok()) << ok.message();

  // Batches 2 and 4 do not broadcast.
  p.constants[p.values[row].index] = tensor::Tensor::Ones({2, 1, 3});
  p.values[row].shape = {2, 1, 3};
  ExpectVerifyRejects(p, "operands disagree outside axis 1");
}

TEST(VerifierTest, RowScaledValuesKeepEveryContractAtOneRow) {
  // A body planned for 4 rows: a shared row tiled per row, then a relu.
  ir::Program p;
  p.count = 4;
  const uint32_t shared = AddConstant(&p, tensor::Tensor::Ones({1, 1, 3}));
  const uint32_t tiled = AddLocal(&p, {4, 1, 3});
  const uint32_t act = AddLocal(&p, {4, 1, 3});
  AddInstr(&p, ir::OpKind::kTileRows, {shared}, tiled);
  AddInstr(&p, ir::OpKind::kRelu, {tiled}, act);
  p.values[tiled].row_axis = 0;
  p.values[act].row_axis = 0;
  p.output = act;
  const Status ok = ir::Verify(p);
  ASSERT_TRUE(ok.ok()) << ok.message();

  // The relu output keeps its 4 rows while its operand scales: sound at 4
  // rows, not at 1.
  p.values[act].row_axis = ir::kNoRowAxis;
  ExpectVerifyRejects(p, "at 1 row: instr #1 (relu): shape mismatch");
  p.values[act].row_axis = 2;  // extent 3 is no multiple of 4 rows
  ExpectVerifyRejects(p, "is not a multiple of the program's 4 rows");
  p.values[act].row_axis = 0;
  // A captured constant cannot change with the row count.
  p.values[shared].row_axis = 0;
  ExpectVerifyRejects(p, "cannot scale with the row count");
}

TEST(VerifierTest, RejectsIllegalFusionAlias) {
  ir::Program p = SmallValidProgram();
  // kAdd is not a pointwise in-place op: writing its output over in[0]
  // while also reading in[1] would clobber mid-instruction.
  p.values[p.output].alias_of = 1;
  ExpectVerifyRejects(p, "illegal fusion alias");
}

TEST(VerifierTest, RejectsReadAfterInPlaceOverwrite) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 4}));
  const uint32_t a = AddLocal(&p, {2, 4});
  const uint32_t scaled = AddLocal(&p, {2, 4});
  const uint32_t sum = AddLocal(&p, {2, 4});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, a);
  AddInstr(&p, ir::OpKind::kScale, {a}, scaled, /*alpha=*/2.0f);
  p.values[scaled].alias_of = a;  // legal in-place scale...
  AddInstr(&p, ir::OpKind::kAdd, {a, c0}, sum);  // ...but %a's bits are gone
  p.output = sum;
  ExpectVerifyRejects(p, "overwritten in place");
}

TEST(VerifierTest, RejectsDanglingSlotOutput) {
  ir::Program p = SmallValidProgram();
  p.slot_outputs.push_back(AddLocal(&p, {2, 4}));  // never defined
  ExpectVerifyRejects(p, "dangling slot");
}

TEST(VerifierTest, RejectsOverlappingLiveArenaRanges) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 4}));
  const uint32_t a = AddLocal(&p, {2, 4});
  const uint32_t b = AddLocal(&p, {2, 4});
  const uint32_t sum = AddLocal(&p, {2, 4});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, a);
  AddInstr(&p, ir::OpKind::kSigmoid, {c0}, b);
  AddInstr(&p, ir::OpKind::kAdd, {a, b}, sum);  // a and b live together
  p.output = sum;
  ir::PlanArena(&p);
  ir::VerifyOptions arena;
  arena.check_arena = true;
  const Status ok = ir::Verify(p, arena);
  ASSERT_TRUE(ok.ok()) << ok.message();

  p.values[b].offset = p.values[a].offset;  // sabotage the plan
  ExpectVerifyRejects(p, "overlap", arena);
}

// ---------------------------------------------------------------------------
// Verifier x pipeline: for every model, each pass of the default pipeline
// leaves both factored halves verifier-clean (the same sequence — and the
// same options — Engine::Compile checks after every stage).
// ---------------------------------------------------------------------------

class VerifierPipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VerifierPipelineTest, EveryPassLeavesTheProgramVerifierClean) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const data::SequenceExample ex = TestExamples()[0];
  const data::Batch b1 = ServingBatch(builder, ex, {0});
  const data::Batch bC = ServingBatch(builder, ex, {0, 3, 7, 8});

  ir::TraceResult t1 = ir::Trace(model.get(), b1);
  ir::TraceResult tC = ir::Trace(model.get(), bC);
  ASSERT_TRUE(t1.ok()) << GetParam() << ": " << t1.error;
  ASSERT_TRUE(tC.ok()) << GetParam() << ": " << tC.error;
  Status st = ir::Verify(t1.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " trace(1): " << st.message();
  st = ir::Verify(tC.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " trace(C): " << st.message();
  ir::SplitAttention(&t1, &tC, b1, bC);
  st = ir::Verify(t1.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " split(1): " << st.message();
  st = ir::Verify(tC.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " split(C): " << st.message();

  ir::FactorResult f = ir::Factor(t1, tC, b1, bC);
  ASSERT_TRUE(f.ok()) << GetParam() << ": " << f.error;

  ir::VerifyOptions prologue_opts;
  ir::VerifyOptions body_opts;
  body_opts.allow_slots = true;
  body_opts.num_slots = f.prologue.slot_outputs.size();
  for (ir::Program* half : {&f.prologue, &f.body}) {
    const bool is_body = half == &f.body;
    ir::VerifyOptions opts = is_body ? body_opts : prologue_opts;
    const std::string who =
        GetParam() + (is_body ? " body " : " prologue ");
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after factor: " << st.message();
    if (is_body) {
      ir::ResizeRows(half, 256);
      st = ir::Verify(*half, opts);
      EXPECT_TRUE(st.ok()) << who << "after resize_rows: " << st.message();
    }
    ir::FoldConstants(half);
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after fold_constants: " << st.message();
    ir::DeadCodeElim(half);
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after dead_code_elim: " << st.message();
    ir::FuseElementwise(half);
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after fuse_elementwise: " << st.message();
    ir::PlanArena(half);
    opts.check_arena = true;
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after plan_arena: " << st.message();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, VerifierPipelineTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Compiled-vs-eager serving parity: every model, threads x shards x SIMD
// ---------------------------------------------------------------------------

class CompiledParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CompiledParityTest, CompiledServingMatchesEagerBitForBit) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, SeqLenFor(GetParam()));
  auto model = MakeModelByName(GetParam(), space);

  serve::PredictorOptions compiled_opts;
  compiled_opts.micro_batch = 4;  // several chunks (and row counts) per scan
  compiled_opts.context_cache_bytes = 1 << 20;
  serve::Predictor compiled(model.get(), &builder, compiled_opts);
  // The default 256-row body, for chunks of up to 256 candidates.
  serve::Predictor wide(model.get(), &builder);
  ASSERT_TRUE(wide.compiled_active()) << GetParam();
  ASSERT_TRUE(compiled.compiled_active())
      << GetParam() << " must compile into an op program";
  ASSERT_NE(compiled.engine(), nullptr);
  // Sequence models gather the history separately from the candidate, so
  // factoring must hoist a non-trivial candidate-invariant prologue. The
  // FM family embeds one unified (user, candidate, history) row through a
  // single candidate-dependent gather — zero slots is correct there.
  const bool sequence_model =
      GetParam().rfind("SeqFM", 0) == 0 || GetParam() == "DIN" ||
      GetParam() == "SASRec" || GetParam() == "TFM" || GetParam() == "RRN";
  if (sequence_model) {
    EXPECT_GT(compiled.engine()->num_slots(), 0u) << GetParam();
  }

  serve::PredictorOptions eager_opts;
  eager_opts.use_compiled_program = false;
  serve::Predictor eager(model.get(), &builder, eager_opts);
  EXPECT_FALSE(eager.compiled_active());

  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);

  std::vector<util::SimdLevel> levels = {util::SimdLevel::kScalar};
  if (tensor::kernels::Avx2KernelsAvailable()) {
    levels.push_back(util::SimdLevel::kAvx2);
  }
  const util::SimdLevel prev_level = util::ActiveSimdLevel();

  for (util::SimdLevel level : levels) {
    util::SetSimdLevel(level);
    for (size_t threads : {1u, 2u}) {
      util::SetGlobalThreads(threads);
      for (const auto& ex : TestExamples()) {
        const std::string where =
            GetParam() + " simd=" + util::SimdLevelName(level) +
            " threads=" + std::to_string(threads) +
            " user=" + std::to_string(ex.user);
        const std::vector<float> want = eager.ScoreCandidates(ex, catalog);
        const std::vector<float> got = compiled.ScoreCandidates(ex, catalog);
        ASSERT_EQ(want.size(), got.size());
        ExpectBitEqual(want.data(), got.data(), want.size(), where);

        // One body at every row count: around 1, the factoring count 2, the
        // self-checked count 3, and the 256-row capacity (257 runs 256 + 1).
        for (size_t count : {1u, 2u, 3u, 7u, 8u, 9u, 255u, 256u, 257u}) {
          std::vector<int32_t> cands(count);
          for (size_t i = 0; i < count; ++i) {
            cands[i] = static_cast<int32_t>((7 * i + count) % catalog.size());
          }
          const std::vector<float> w = eager.ScoreCandidates(ex, cands);
          const std::vector<float> g = wide.ScoreCandidates(ex, cands);
          ASSERT_EQ(w.size(), g.size());
          ExpectBitEqual(w.data(), g.data(), w.size(),
                         where + " count=" + std::to_string(count));
        }

        // Sharded serving over the compiled predictor reproduces the eager
        // unsharded ranking exactly (scores compared as bits).
        const std::vector<serve::ScoredItem> ref = eager.TopKAll(ex, 5);
        for (size_t shards : {1u, 3u}) {
          serve::ShardedPredictor sharded(&compiled, {shards});
          const std::vector<serve::ScoredItem> top = sharded.TopKAll(ex, 5);
          ASSERT_EQ(top.size(), ref.size()) << where;
          for (size_t i = 0; i < top.size(); ++i) {
            EXPECT_EQ(top[i].item, ref[i].item)
                << where << " shards=" << shards << " rank=" << i;
            EXPECT_EQ(std::memcmp(&top[i].score, &ref[i].score,
                                  sizeof(float)),
                      0)
                << where << " shards=" << shards << " rank=" << i;
          }
        }
      }
    }
  }
  for (const serve::Predictor* p : {&compiled, &wide}) {
    EXPECT_TRUE(p->compiled_active()) << GetParam() << " fell back to eager";
    EXPECT_EQ(p->engine()->stats().compiled_counts, 1u) << GetParam();
  }
  util::SetGlobalThreads(1);
  util::SetSimdLevel(prev_level);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CompiledParityTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(SeqFmVariants, CompiledParityTest,
                         ::testing::ValuesIn(SeqFmVariants()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Attention row blocks: SeqFM's cross view costs O(n·d) per candidate, and
// every program without a splittable site compiles exactly as traced.
// ---------------------------------------------------------------------------

/// Runs the compiler's pipeline up to Factor for SeqFM with its default
/// configuration (d = 64, n = 20), optionally with the padding-aware mask.
ir::FactorResult FactorDefaultSeqFm(bool mask_padding_keys, size_t count,
                                    size_t* sites) {
  const data::FeatureSpace space = SmallSpace();
  core::SeqFmConfig cfg;
  cfg.mask_padding_keys = mask_padding_keys;
  core::SeqFm model(space, cfg);
  data::BatchBuilder builder(space, cfg.max_seq_len);
  const data::SequenceExample ex = TestExamples()[0];
  std::vector<int32_t> cands(count);
  for (size_t i = 0; i < count; ++i) cands[i] = static_cast<int32_t>(i);
  const data::Batch b1 = ServingBatch(builder, ex, {0});
  const data::Batch bC = ServingBatch(builder, ex, cands);
  ir::TraceResult t1 = ir::Trace(&model, b1);
  ir::TraceResult tC = ir::Trace(&model, bC);
  EXPECT_TRUE(t1.ok() && tC.ok());
  *sites = ir::SplitAttention(&t1, &tC, b1, bC);
  return ir::Factor(t1, tC, b1, bC);
}

TEST(SplitAttentionTest, SeqFmBodyHoldsNoPerCandidateScoreSquare) {
  for (const bool pad_keys : {false, true}) {
    const std::string name = pad_keys ? "pad_keys" : "default";
    constexpr size_t kCount = 4;
    size_t sites = 0;
    const ir::FactorResult f = FactorDefaultSeqFm(pad_keys, kCount, &sites);
    ASSERT_TRUE(f.ok()) << name << ": " << f.error;
    EXPECT_EQ(sites, 1u) << name << ": the cross view splits";
    const ir::Program& body = f.body;
    const size_t r = 2 + core::SeqFmConfig().max_seq_len;  // stacked rows
    size_t shared_gemms = 0;
    size_t tiles = 0;
    for (const ir::Instr& ins : body.instrs) {
      if (ins.kind == ir::OpKind::kTileRows) ++tiles;
      const std::vector<size_t>& shape = body.values[ins.out].shape;
      const bool square =
          (shape.size() == 3 && shape[1] == r && shape[2] == r) ||
          (shape.size() == 2 && shape[0] == kCount * r && shape[1] == r);
      EXPECT_FALSE(square) << name << ": body " << ir::OpKindName(ins.kind)
                           << " holds a per-candidate " << r << "x" << r
                           << " block";
      if (ins.kind != ir::OpKind::kBmmShared) continue;
      ++shared_gemms;
      const std::vector<size_t>& a = body.values[ins.in[0]].shape;
      ASSERT_EQ(a.size(), 3u);
      EXPECT_EQ(a[0], kCount) << name;
      EXPECT_EQ(a[1], 1u) << name << ": a body bmm_shared reads " << a[1]
                          << " rows per candidate";
    }
    // The candidate row's static- and cross-view q/k/v projections; with
    // the captured cross mask also its scores against, and its sum over,
    // the shared history keys and values.
    EXPECT_EQ(shared_gemms, pad_keys ? 6u : 8u) << name;
    // A concat_axis1 broadcasts the user row's shared blocks itself, so the
    // captured-mask body copies at most two slots per candidate.
    if (!pad_keys) {
      EXPECT_LE(tiles, 2u) << name;
    }
  }
}

/// Every baseline traces to a program without a splittable attention site,
/// so the rewrite leaves both traces exactly as recorded: their compiled
/// programs, instruction counts and bits are what they were without it.
class SplitAttentionBaselineTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SplitAttentionBaselineTest, LeavesTheTracesUntouched) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const data::SequenceExample ex = TestExamples()[0];
  const data::Batch b1 = ServingBatch(builder, ex, {0});
  const data::Batch bC = ServingBatch(builder, ex, {0, 3, 7, 8});
  ir::TraceResult t1 = ir::Trace(model.get(), b1);
  ir::TraceResult tC = ir::Trace(model.get(), bC);
  ASSERT_TRUE(t1.ok() && tC.ok()) << GetParam();
  const ir::TraceResult before1 = t1;
  const ir::TraceResult beforeC = tC;
  EXPECT_EQ(ir::SplitAttention(&t1, &tC, b1, bC), 0u) << GetParam();
  for (const auto& [got, want] :
       {std::make_pair(&t1, &before1), std::make_pair(&tC, &beforeC)}) {
    ASSERT_EQ(got->program.instrs.size(), want->program.instrs.size());
    ASSERT_EQ(got->program.values.size(), want->program.values.size());
    for (size_t i = 0; i < got->program.instrs.size(); ++i) {
      EXPECT_EQ(got->program.instrs[i].kind, want->program.instrs[i].kind);
      EXPECT_EQ(got->program.instrs[i].in, want->program.instrs[i].in);
      EXPECT_EQ(got->program.instrs[i].out, want->program.instrs[i].out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, SplitAttentionBaselineTest,
                         ::testing::ValuesIn(AllBaselines()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Compiler lifecycle
// ---------------------------------------------------------------------------

TEST(CompiledLifecycleTest, OptionOffDisablesTheEngine) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("SeqFM", space);
  serve::PredictorOptions opts;
  opts.use_compiled_program = false;
  serve::Predictor predictor(model.get(), &builder, opts);
  EXPECT_EQ(predictor.engine(), nullptr);
  EXPECT_FALSE(predictor.compiled_active());
}

TEST(CompiledLifecycleTest, SingleObjectCatalogFallsBackToEagerServing) {
  // One catalog object leaves no second probe candidate to disambiguate the
  // candidate column, so the compiler must decline — and serving must still
  // produce taped-parity scores through the generic path.
  const data::FeatureSpace space(2, 1);
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("FM", space);
  serve::Predictor predictor(model.get(), &builder);
  EXPECT_EQ(predictor.engine(), nullptr);
  EXPECT_FALSE(predictor.compiled_active());

  const data::SequenceExample ex{/*user=*/1, /*target=*/0, /*rating=*/1.0f,
                                 {0, 0}};
  const std::vector<int32_t> catalog = {0};
  const std::vector<float> scores = predictor.ScoreCandidates(ex, catalog);
  ASSERT_EQ(scores.size(), 1u);

  const data::Batch batch = ServingBatch(builder, ex, catalog);
  const autograd::Variable taped = model->Score(batch, /*training=*/false);
  ExpectBitEqual(scores.data(), taped.value().data(), 1, "tiny catalog");
}

TEST(CompiledLifecycleTest, OneBodyServesEveryCandidateCount) {
  // The body compiled in the constructor runs any row count up to its
  // capacity: requests of 1, 3, 4 and 9 candidates in mixed order compile
  // nothing more and keep the taped forward's bits.
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("SeqFM", space);
  serve::PredictorOptions opts;
  opts.micro_batch = 16;
  util::SetGlobalThreads(2);
  serve::Predictor predictor(model.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  EXPECT_EQ(predictor.engine()->capacity(), 16u);
  EXPECT_EQ(predictor.engine()->stats().compiled_counts, 1u);

  const data::SequenceExample ex = TestExamples()[0];
  autograd::NoGradGuard guard;
  for (size_t count : {9u, 1u, 4u, 3u, 9u, 1u}) {
    std::vector<int32_t> cands(count);
    for (size_t i = 0; i < count; ++i) {
      cands[i] = static_cast<int32_t>((2 * i + count) % space.num_objects());
    }
    const std::vector<float> got = predictor.ScoreCandidates(ex, cands);
    const data::Batch batch = ServingBatch(builder, ex, cands);
    const autograd::Variable want = model->Score(batch, /*training=*/false);
    ASSERT_EQ(got.size(), want.value().size());
    ExpectBitEqual(got.data(), want.value().data(), got.size(),
                   "count " + std::to_string(count));
    EXPECT_EQ(predictor.engine()->stats().compiled_counts, 1u);
  }
  EXPECT_TRUE(predictor.compiled_active());
  util::SetGlobalThreads(1);
}

TEST(CompiledLifecycleTest, RangesBeyondTheCapacityScoreEagerly) {
  // ScoreContextRange over more candidates than the body's rows: the
  // engine refuses the range, and the predictor scores it eagerly without
  // giving up the compiled path.
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("SeqFM", space);
  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor predictor(model.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());

  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const data::SequenceExample ex = TestExamples()[2];
  const serve::Predictor::ContextPtr ctx = predictor.AcquireContext(ex);
  std::vector<float> out(catalog.size());
  std::string error;
  EXPECT_FALSE(predictor.engine()->ScoreRange(*ctx, catalog, 0, catalog.size(),
                                              out.data(), &error));
  EXPECT_NE(error.find("9 candidates exceed the body's capacity of 4 rows"),
            std::string::npos)
      << error;

  predictor.ScoreContextRange(*ctx, ex, catalog, 0, catalog.size(),
                              out.data());
  EXPECT_TRUE(predictor.compiled_active());
  const data::Batch batch = ServingBatch(builder, ex, catalog);
  autograd::NoGradGuard guard;
  const autograd::Variable want = model->Score(batch, /*training=*/false);
  ExpectBitEqual(out.data(), want.value().data(), out.size(),
                 "over-capacity range");
}

TEST(CompiledLifecycleTest, DestroyedEnginesFreeTheirExecutionFrames) {
  // Every Predictor compiles a fresh engine whose programs run in frames
  // cached on the calling thread (one thread: nothing runs elsewhere). Once
  // an engine is gone its frames must go too, so a serving process that
  // reloads or rebuilds predictors keeps a flat frame count.
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("SeqFM", space);
  util::SetGlobalThreads(1);
  const data::SequenceExample ex = TestExamples()[0];
  size_t first = 0;
  for (int round = 0; round < 5; ++round) {
    {
      serve::Predictor predictor(model.get(), &builder);
      ASSERT_TRUE(predictor.compiled_active());
      EXPECT_EQ(predictor.TopKAll(ex, 3).size(), 3u);
      // One frame for the prologue and one for the body.
      EXPECT_EQ(ir::CachedFrameCount(), 2u);
    }
    if (round == 0) {
      first = ir::CachedFrameCount();
      EXPECT_GT(first, 0u);
    } else {
      EXPECT_EQ(ir::CachedFrameCount(), first) << "round " << round;
    }
  }
}

TEST(CompiledLifecycleTest, CheckpointReloadRecompilesTheProgram) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);
  auto trained = MakeModelByName("SeqFM", space, /*seed=*/777);

  const std::string path = TempPath("ir_reload_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(trained.get()), path)
                  .ok());

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor predictor(serving.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  const uint64_t uid_before = predictor.engine()->uid();

  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  ASSERT_TRUE(predictor.compiled_active());
  // A fresh engine: the candidate-invariant split is verified against live
  // parameter values, so stale programs must never survive a reload.
  EXPECT_NE(predictor.engine()->uid(), uid_before);

  // And the recompiled program scores the *new* parameters bit-exactly.
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const data::SequenceExample ex = TestExamples()[0];
  const std::vector<float> got = predictor.ScoreCandidates(ex, catalog);
  const data::Batch batch = ServingBatch(builder, ex, catalog);
  autograd::NoGradGuard guard;
  const autograd::Variable want = trained->Score(batch, /*training=*/false);
  ASSERT_EQ(got.size(), want.value().size());
  ExpectBitEqual(got.data(), want.value().data(), got.size(),
                 "post-reload parity");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Slot-ABI re-verification at reload: a body whose slot wiring no longer
// matches the prologue would read the wrong context floats and serve garbage
// rankings WITHOUT crashing — the reload path must catch it and fall back.
// ---------------------------------------------------------------------------

namespace {

// Saves a checkpoint, reloads it with the slot wiring corrupted via the
// test hook, and asserts the predictor detected the miswiring, latched the
// compiled path off, and still serves the new parameters bit-exactly
// through the eager fallback.
void RunCorruptedReload(bool corrupt_shape) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);
  auto trained = MakeModelByName("SeqFM", space, /*seed=*/4242);

  const std::string path = TempPath(corrupt_shape
                                        ? "ir_abi_shape_test.bin"
                                        : "ir_abi_index_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(trained.get()), path)
                  .ok());

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor predictor(serving.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  // The healthy engine's ABI verifies — the check itself is not trigger-
  // happy, or every clean reload would forfeit the compiled path.
  ASSERT_TRUE(predictor.engine()->ReverifySlotAbi().ok());

  predictor.SetReloadCorruptionHookForTest([corrupt_shape](ir::Engine* e) {
    e->CorruptSlotWiringForTest(corrupt_shape);
  });
  // The reload itself succeeds: the parameters ARE the new checkpoint.
  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  // But the miswired program was caught and latched off.
  EXPECT_FALSE(predictor.compiled_active());

  // The fallback path serves the NEW parameters bit-exactly — degraded to
  // eager, never degraded to wrong.
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const data::SequenceExample ex = TestExamples()[0];
  const std::vector<float> got = predictor.ScoreCandidates(ex, catalog);
  const data::Batch batch = ServingBatch(builder, ex, catalog);
  autograd::NoGradGuard guard;
  const autograd::Variable want = trained->Score(batch, /*training=*/false);
  ASSERT_EQ(got.size(), want.value().size());
  ExpectBitEqual(got.data(), want.value().data(), got.size(),
                 "corrupted-reload eager parity");
  std::remove(path.c_str());
}

}  // namespace

TEST(SlotAbiReverifyTest, ReloadCatchesOutOfRangeSlotIndex) {
  RunCorruptedReload(/*corrupt_shape=*/false);
}

TEST(SlotAbiReverifyTest, ReloadCatchesSlotShapeMismatch) {
  RunCorruptedReload(/*corrupt_shape=*/true);
}

TEST(SlotAbiReverifyTest, CleanReloadKeepsCompiledPathAndVerifiesAbi) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);

  const std::string path = TempPath("ir_abi_clean_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(serving.get()), path)
                  .ok());

  serve::Predictor predictor(serving.get(), &builder);
  ASSERT_TRUE(predictor.compiled_active());

  // Hook installed but benign: prove the re-verification actually runs on
  // every reload (the hook observes the fresh engine) and passes clean.
  bool reverified = false;
  predictor.SetReloadCorruptionHookForTest([&reverified](ir::Engine* e) {
    reverified = e->ReverifySlotAbi().ok();
  });
  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  EXPECT_TRUE(reverified);
  EXPECT_TRUE(predictor.compiled_active());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Loss-curve invariance: tracing/compiling a model never perturbs training
// ---------------------------------------------------------------------------

TEST(TraceInvarianceTest, TracingBetweenEpochsLeavesLossCurveUntouched) {
  const auto log = data::SyntheticDatasetGenerator(
                       data::SyntheticDatasetGenerator::Preset("gowalla", 0.1)
                           .ValueOrDie())
                       .Generate()
                       .ValueOrDie();
  const auto dataset = data::TemporalDataset::FromLog(log).ValueOrDie();
  const data::FeatureSpace space(log.num_users(), log.num_objects());
  data::BatchBuilder builder(space, kSeqLen);

  core::TrainConfig tcfg;
  tcfg.task = core::Task::kRanking;
  tcfg.epochs = 2;
  tcfg.batch_size = 64;
  tcfg.num_negatives = 1;

  core::SeqFmConfig mcfg = SmallSeqFmConfig();

  // Reference: two plain epochs.
  core::SeqFm plain(space, mcfg);
  core::Trainer plain_trainer(&plain, &builder, &dataset, tcfg);
  const core::EpochStats plain_e1 = plain_trainer.TrainEpoch();
  const core::EpochStats plain_e2 = plain_trainer.TrainEpoch();

  // Same seed, but the model is traced AND fully compiled before training
  // and again between the epochs — eval forwards that must not disturb
  // parameters, optimizer state, or the trainer's sampling stream.
  core::SeqFm probed(space, mcfg);
  const data::SequenceExample probe{0, 1, 1.0f, {1, 2}};
  const data::Batch probe_batch = ServingBatch(builder, probe, {0, 1});
  ASSERT_TRUE(ir::Trace(&probed, probe_batch).ok());
  core::Trainer probed_trainer(&probed, &builder, &dataset, tcfg);
  const core::EpochStats probed_e1 = probed_trainer.TrainEpoch();
  {
    serve::Predictor predictor(&probed, &builder);  // compiles + self-checks
    ASSERT_TRUE(predictor.compiled_active());
    std::vector<int32_t> catalog(space.num_objects());
    std::iota(catalog.begin(), catalog.end(), 0);
    predictor.ScoreCandidates(probe, catalog);
  }
  const core::EpochStats probed_e2 = probed_trainer.TrainEpoch();

  EXPECT_EQ(plain_e1.mean_loss, probed_e1.mean_loss);
  EXPECT_EQ(plain_e2.mean_loss, probed_e2.mean_loss);
  EXPECT_EQ(plain_e1.steps, probed_e1.steps);
  EXPECT_EQ(plain_e2.steps, probed_e2.steps);
}

}  // namespace
}  // namespace seqfm
