#include <cmath>

#include "autograd/ops.h"
#include "autograd/ops_common.h"
#include "tensor/ops.h"

namespace seqfm {
namespace autograd {

using internal::MakeNode;
using tensor::Tensor;

Variable BprLoss(const Variable& pos, const Variable& neg) {
  SEQFM_CHECK(pos.value().SameShape(neg.value()));
  SEQFM_CHECK_EQ(pos.rank(), 2u);
  SEQFM_CHECK_EQ(pos.dim(1), 1u);
  const size_t batch = pos.dim(0);
  Tensor out({1});
  float total = 0.0f;
  for (size_t b = 0; b < batch; ++b) {
    const float diff = pos.value().at(b, 0) - neg.value().at(b, 0);
    total += -tensor::LogSigmoid(diff);
  }
  out.at(0) = total / static_cast<float>(batch);
  auto node = MakeNode(OpKind::kBprLoss,
                       {pos.node(), neg.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch]() {
    Node* pp = self->parents[0].get();
    Node* pn = self->parents[1].get();
    const float g = self->grad.at(0) / static_cast<float>(batch);
    for (size_t b = 0; b < batch; ++b) {
      const float diff = pp->value.at(b, 0) - pn->value.at(b, 0);
      // d/d(diff) of -log sigmoid(diff) = sigmoid(diff) - 1.
      const float d = (tensor::StableSigmoid(diff) - 1.0f) * g;
      if (pp->requires_grad) {
        pp->EnsureGrad();
        pp->grad.at(b, 0) += d;
      }
      if (pn->requires_grad) {
        pn->EnsureGrad();
        pn->grad.at(b, 0) -= d;
      }
    }
  };
  return Variable(node);
}

Variable BceWithLogitsLoss(const Variable& logits,
                           const std::vector<float>& labels) {
  SEQFM_CHECK_EQ(logits.rank(), 2u);
  SEQFM_CHECK_EQ(logits.dim(1), 1u);
  const size_t batch = logits.dim(0);
  SEQFM_CHECK_EQ(labels.size(), batch);
  Tensor out({1});
  float total = 0.0f;
  for (size_t b = 0; b < batch; ++b) {
    const float x = logits.value().at(b, 0);
    const float y = labels[b];
    // softplus(x) - y*x = max(x,0) - y*x + log(1 + exp(-|x|)).
    const float m = x > 0.0f ? x : 0.0f;
    total += m - y * x + std::log1p(std::exp(-std::abs(x)));
  }
  out.at(0) = total / static_cast<float>(batch);
  auto node = MakeNode(OpKind::kBceLoss, {logits.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, labels, batch]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    const float g = self->grad.at(0) / static_cast<float>(batch);
    for (size_t b = 0; b < batch; ++b) {
      const float x = p->value.at(b, 0);
      p->grad.at(b, 0) += g * (tensor::StableSigmoid(x) - labels[b]);
    }
  };
  return Variable(node);
}

Variable MseLoss(const Variable& pred, const std::vector<float>& targets) {
  SEQFM_CHECK_EQ(pred.rank(), 2u);
  SEQFM_CHECK_EQ(pred.dim(1), 1u);
  const size_t batch = pred.dim(0);
  SEQFM_CHECK_EQ(targets.size(), batch);
  Tensor out({1});
  float total = 0.0f;
  for (size_t b = 0; b < batch; ++b) {
    const float e = pred.value().at(b, 0) - targets[b];
    total += e * e;
  }
  out.at(0) = total / static_cast<float>(batch);
  auto node = MakeNode(OpKind::kMseLoss, {pred.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, targets, batch]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    const float g = self->grad.at(0) / static_cast<float>(batch);
    for (size_t b = 0; b < batch; ++b) {
      const float e = p->value.at(b, 0) - targets[b];
      p->grad.at(b, 0) += 2.0f * g * e;
    }
  };
  return Variable(node);
}

}  // namespace autograd
}  // namespace seqfm
