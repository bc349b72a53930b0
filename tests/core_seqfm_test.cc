#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "autograd/ops.h"
#include "core/seqfm.h"
#include "data/dataset.h"

namespace seqfm {
namespace core {
namespace {

data::Batch MakeBatch(const data::FeatureSpace& space, size_t max_seq_len,
                      std::vector<std::vector<int32_t>> histories,
                      std::vector<int32_t> users,
                      std::vector<int32_t> targets) {
  data::BatchBuilder builder(space, max_seq_len);
  std::vector<data::SequenceExample> examples(users.size());
  std::vector<const data::SequenceExample*> ptrs;
  for (size_t i = 0; i < users.size(); ++i) {
    examples[i].user = users[i];
    examples[i].target = targets[i];
    examples[i].history = histories[i];
    ptrs.push_back(&examples[i]);
  }
  return builder.Build(ptrs);
}

SeqFmConfig SmallConfig() {
  SeqFmConfig cfg;
  cfg.embedding_dim = 8;
  cfg.ffn_layers = 1;
  cfg.max_seq_len = 5;
  cfg.keep_prob = 1.0f;
  cfg.seed = 11;
  return cfg;
}

TEST(SeqFmTest, ScoreShapeAndFiniteness) {
  data::FeatureSpace space(4, 6);
  SeqFm model(space, SmallConfig());
  auto batch = MakeBatch(space, 5, {{0, 1}, {2, 3, 4}}, {0, 1}, {5, 2});
  auto out = model.Score(batch, /*training=*/false);
  ASSERT_EQ(out.value().shape(), (std::vector<size_t>{2, 1}));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isfinite(out.value().at(i, 0)));
  }
}

TEST(SeqFmTest, EvaluationIsDeterministic) {
  data::FeatureSpace space(4, 6);
  SeqFm model(space, SmallConfig());
  auto batch = MakeBatch(space, 5, {{0, 1, 2}}, {2}, {3});
  auto a = model.Score(batch, false);
  auto b = model.Score(batch, false);
  EXPECT_EQ(a.value().at(0, 0), b.value().at(0, 0));
}

TEST(SeqFmTest, TrainingWithDropoutVaries) {
  data::FeatureSpace space(4, 6);
  SeqFmConfig cfg = SmallConfig();
  cfg.keep_prob = 0.5f;
  SeqFm model(space, cfg);
  auto batch = MakeBatch(space, 5, {{0, 1, 2}}, {2}, {3});
  // Two training passes consume different dropout masks; scores differ with
  // overwhelming probability.
  auto a = model.Score(batch, true);
  auto b = model.Score(batch, true);
  EXPECT_NE(a.value().at(0, 0), b.value().at(0, 0));
}

TEST(SeqFmTest, SameSeedSameInitialization) {
  data::FeatureSpace space(4, 6);
  SeqFm m1(space, SmallConfig());
  SeqFm m2(space, SmallConfig());
  auto batch = MakeBatch(space, 5, {{1, 2}}, {0}, {4});
  EXPECT_EQ(m1.Score(batch, false).value().at(0, 0),
            m2.Score(batch, false).value().at(0, 0));
}

TEST(SeqFmTest, ParameterCountMatchesArchitecture) {
  data::FeatureSpace space(4, 6);
  SeqFmConfig cfg = SmallConfig();
  SeqFm model(space, cfg);
  const size_t d = cfg.embedding_dim;
  const size_t m_s = space.static_dim(), m_d = space.dynamic_dim();
  // embeddings + 3 views * 3 projections + ffn(l * (W + b + gamma + beta))
  // + w0 + w_s + w_d + p.
  const size_t expected = m_s * d + m_d * d + 3 * 3 * d * d +
                          cfg.ffn_layers * (d * d + 3 * d) + 1 + m_s + m_d +
                          3 * d;
  EXPECT_EQ(model.NumParameters(), expected);
}

TEST(SeqFmTest, GradientsReachEveryParameter) {
  data::FeatureSpace space(3, 5);
  SeqFm model(space, SmallConfig());
  auto batch =
      MakeBatch(space, 5, {{0, 1, 2, 3, 4}, {1, 2}}, {0, 2}, {4, 0});
  model.ZeroGrad();
  auto out = model.Score(batch, /*training=*/true);
  autograd::Backward(autograd::SumAll(out));
  size_t with_grad = 0, total = 0;
  for (const auto& [name, p] : model.NamedParameters()) {
    float norm = 0.0f;
    for (size_t i = 0; i < p.grad().size(); ++i) {
      norm += std::abs(p.grad().data()[i]);
    }
    ++total;
    if (norm > 0.0f) ++with_grad;
    // Every weight matrix/bias should receive nonzero gradient here except
    // embedding/linear rows for features absent from the batch.
    if (name.find("embedding") == std::string::npos &&
        name.find("w_static") == std::string::npos &&
        name.find("w_dynamic") == std::string::npos) {
      EXPECT_GT(norm, 0.0f) << name;
    }
  }
  EXPECT_EQ(with_grad, total);
}

// ---------------------------------------------------------------------------
// The paper's structural properties
// ---------------------------------------------------------------------------

TEST(SeqFmTest, StaticViewIgnoresHistoryWhenOthersDisabled) {
  data::FeatureSpace space(4, 6);
  SeqFmConfig cfg = SmallConfig();
  cfg.use_dynamic_view = false;
  cfg.use_cross_view = false;
  SeqFm model(space, cfg);
  auto b1 = MakeBatch(space, 5, {{0, 1, 2}}, {1}, {3});
  auto b2 = MakeBatch(space, 5, {{4, 5}}, {1}, {3});
  // Only the linear term sees dynamic features; zero it to isolate f(x).
  for (auto& [name, p] : model.NamedParameters()) {
    if (name == "w_dynamic") p.mutable_value().Zero();
  }
  EXPECT_NEAR(model.Score(b1, false).value().at(0, 0),
              model.Score(b2, false).value().at(0, 0), 1e-6f);
}

TEST(SeqFmTest, DynamicViewIsOrderSensitive) {
  data::FeatureSpace space(4, 6);
  SeqFmConfig cfg = SmallConfig();
  SeqFm model(space, cfg);
  auto fwd = MakeBatch(space, 5, {{0, 1, 2, 3, 4}}, {1}, {5});
  auto rev = MakeBatch(space, 5, {{4, 3, 2, 1, 0}}, {1}, {5});
  const float a = model.Score(fwd, false).value().at(0, 0);
  const float b = model.Score(rev, false).value().at(0, 0);
  EXPECT_GT(std::abs(a - b), 1e-6f)
      << "a sequence-aware model must distinguish order";
}

TEST(SeqFmTest, SetCategoryModelsWouldNotDistinguishOrderButSeqFmDoes) {
  // Complementary check: identical multiset, different order, non-trivial
  // difference. Guards against accidentally pooling before attention.
  data::FeatureSpace space(2, 8);
  SeqFmConfig cfg = SmallConfig();
  cfg.max_seq_len = 4;
  SeqFm model(space, cfg);
  auto ab = MakeBatch(space, 4, {{1, 2, 3, 4}}, {0}, {7});
  auto ba = MakeBatch(space, 4, {{2, 1, 4, 3}}, {0}, {7});
  EXPECT_NE(model.Score(ab, false).value().at(0, 0),
            model.Score(ba, false).value().at(0, 0));
}

class SeqFmAblationTest : public ::testing::TestWithParam<int> {};

TEST_P(SeqFmAblationTest, EveryAblationProducesFiniteScoresAndGradients) {
  data::FeatureSpace space(3, 5);
  SeqFmConfig cfg = SmallConfig();
  switch (GetParam()) {
    case 0: cfg.use_static_view = false; break;
    case 1: cfg.use_dynamic_view = false; break;
    case 2: cfg.use_cross_view = false; break;
    case 3: cfg.use_residual = false; break;
    case 4: cfg.use_layer_norm = false; break;
    case 5: cfg.mask_padding_keys = true; break;
    case 6: cfg.ffn_layers = 3; break;
    default: break;
  }
  SeqFm model(space, cfg);
  auto batch = MakeBatch(space, 5, {{0, 1}, {}}, {0, 1}, {2, 3});
  auto out = model.Score(batch, true);
  ASSERT_EQ(out.value().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(std::isfinite(out.value().at(i, 0)));
  }
  autograd::Backward(autograd::SumAll(out));  // must not crash
}

INSTANTIATE_TEST_SUITE_P(AllAblations, SeqFmAblationTest,
                         ::testing::Range(0, 7));

TEST(SeqFmTest, ViewCountReflectsConfig) {
  data::FeatureSpace space(3, 5);
  SeqFmConfig cfg = SmallConfig();
  EXPECT_EQ(SeqFm(space, cfg).num_views(), 3u);
  cfg.use_cross_view = false;
  EXPECT_EQ(SeqFm(space, cfg).num_views(), 2u);
  cfg.use_static_view = false;
  EXPECT_EQ(SeqFm(space, cfg).num_views(), 1u);
}

TEST(SeqFmTest, EmptyHistoryIsHandled) {
  data::FeatureSpace space(3, 5);
  SeqFm model(space, SmallConfig());
  auto batch = MakeBatch(space, 5, {{}}, {0}, {1});
  auto out = model.Score(batch, false);
  EXPECT_TRUE(std::isfinite(out.value().at(0, 0)));
}

TEST(SeqFmTest, PaddingMaskingChangesScores) {
  data::FeatureSpace space(3, 5);
  SeqFmConfig with = SmallConfig();
  with.mask_padding_keys = true;
  SeqFmConfig without = SmallConfig();
  SeqFm m_with(space, with), m_without(space, without);
  // Short history -> padding present -> the extension changes attention.
  auto batch = MakeBatch(space, 5, {{2}}, {1}, {4});
  EXPECT_NE(m_with.Score(batch, false).value().at(0, 0),
            m_without.Score(batch, false).value().at(0, 0));
}

TEST(SeqFmTest, OtherStaticLayoutsLeaveTheModelUntouched) {
  // A batch with one static feature per sample (no candidate column) needs
  // a 1 + n cross mask; Score builds it per call and writes no model state,
  // so both layouts can be scored concurrently, in any order.
  data::FeatureSpace space(3, 5);
  SeqFm model(space, SmallConfig());
  SeqFm fresh(space, SmallConfig());
  const data::Batch standard = MakeBatch(space, 5, {{0, 1, 2}}, {1}, {4});
  data::Batch user_only = standard;
  user_only.n_static = 1;
  user_only.static_ids = {standard.static_ids[0]};
  const float want_standard = fresh.Score(standard, false).value().at(0, 0);
  const float want_user_only = fresh.Score(user_only, false).value().at(0, 0);
  float got_standard[2], got_user_only[2];
  std::thread worker([&] {
    autograd::NoGradGuard no_grad;
    for (float& v : got_user_only) {
      v = model.Score(user_only, false).value().at(0, 0);
    }
  });
  {
    autograd::NoGradGuard no_grad;
    for (float& v : got_standard) {
      v = model.Score(standard, false).value().at(0, 0);
    }
  }
  worker.join();
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got_standard[i], want_standard);
    EXPECT_EQ(got_user_only[i], want_user_only);
  }
}

TEST(SeqFmTest, CheckpointRoundTripPreservesScores) {
  data::FeatureSpace space(3, 5);
  SeqFm a(space, SmallConfig());
  SeqFmConfig other = SmallConfig();
  other.seed = 99;
  SeqFm b(space, other);
  auto batch = MakeBatch(space, 5, {{0, 1, 2}}, {1}, {4});
  const float score_a = a.Score(batch, false).value().at(0, 0);
  EXPECT_NE(score_a, b.Score(batch, false).value().at(0, 0));
  const std::string path = "/tmp/seqfm_model_test.bin";
  ASSERT_TRUE(a.SaveParameters(path).ok());
  ASSERT_TRUE(b.LoadParameters(path).ok());
  EXPECT_EQ(score_a, b.Score(batch, false).value().at(0, 0));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace seqfm
