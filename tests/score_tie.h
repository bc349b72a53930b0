#ifndef SEQFM_TESTS_SCORE_TIE_H_
#define SEQFM_TESTS_SCORE_TIE_H_

// Shared helper for the ranking-order suites (serve_shard, serve_coordinator,
// serve_dist, serve_chaos): forces two catalog items to score bit-identically
// so the deterministic tie-break is exercised on every serving path.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "autograd/variable.h"
#include "core/seqfm.h"
#include "data/feature_space.h"
#include "util/logging.h"

namespace seqfm {
namespace testing_util {

/// Makes items \p a and \p b score bit-identically for every request by
/// copying a's static-embedding row and w_static row onto b's. The model's
/// only candidate-dependent inputs are those two rows, so the forced tie
/// survives every serving path — the duplicate-score workload the
/// deterministic tie-break exists for. Apply it before constructing a
/// Predictor (or saving a checkpoint): the compiled program is verified
/// against the parameter values it was built from.
inline void ForceScoreTie(core::SeqFm* model, const data::FeatureSpace& space,
                          int32_t a, int32_t b) {
  autograd::Variable table, w_static;  // handles share the live parameters
  for (const auto& [name, param] : model->NamedParameters()) {
    if (name == "static_embedding.table") table = param;
    if (name == "w_static") w_static = param;
  }
  SEQFM_CHECK(table.defined() && w_static.defined())
      << "ForceScoreTie: SeqFM parameters not found";
  const size_t dim = model->config().embedding_dim;
  float* rows = table.mutable_value().data();
  const size_t ra = static_cast<size_t>(space.CandidateIndex(a));
  const size_t rb = static_cast<size_t>(space.CandidateIndex(b));
  std::memcpy(rows + rb * dim, rows + ra * dim, dim * sizeof(float));
  w_static.mutable_value().data()[rb] = w_static.value().data()[ra];
}

}  // namespace testing_util
}  // namespace seqfm

#endif  // SEQFM_TESTS_SCORE_TIE_H_
