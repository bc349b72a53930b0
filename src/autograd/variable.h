#ifndef SEQFM_AUTOGRAD_VARIABLE_H_
#define SEQFM_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "autograd/op_kind.h"
#include "tensor/tensor.h"

namespace seqfm {
namespace autograd {

/// \brief A node of the dynamically built computation graph.
///
/// Each forward op allocates one Node holding its output value, the parent
/// nodes it was computed from, and a closure that pushes the node's gradient
/// back into the parents' gradients. Nodes are reference-counted; dropping
/// the final Variable of a graph frees the whole graph while leaf parameter
/// nodes (owned by modules) survive.
class Node {
 public:
  tensor::Tensor value;
  tensor::Tensor grad;
  bool requires_grad = false;
  bool grad_allocated = false;
  /// Leaves only: how the serving tracer treats this constant
  /// (autograd::TraceAnnotateConstant).
  ConstantKind constant = ConstantKind::kNone;
  std::vector<std::shared_ptr<Node>> parents;
  /// Pushes this->grad into parents. Null for leaves.
  std::function<void()> backward_fn;

  /// Allocates and zeroes the gradient buffer on first use.
  void EnsureGrad() {
    if (!grad_allocated) {
      grad = tensor::Tensor::Zeros(value.shape());
      grad_allocated = true;
    }
  }

  /// grad += g (allocating if needed).
  void AccumulateGrad(const tensor::Tensor& g) {
    EnsureGrad();
    grad.AddScaled(g, 1.0f);
  }
};

using NodePtr = std::shared_ptr<Node>;

/// True while the calling thread records the computation graph (the default).
/// When false, ops still run their forward kernels but build detached nodes:
/// no parents, no backward closures, no saved intermediates — so each
/// intermediate tensor is freed as soon as its consumer finishes. This is the
/// serving fast path; results are bit-for-bit identical to the taped forward.
bool GradMode();

/// Sets the calling thread's grad mode and returns the previous value.
/// Prefer NoGradGuard; this exists for the guard and for tests.
bool SetGradMode(bool enabled);

/// \brief RAII scope that disables graph construction on the current thread.
///
/// \code
///   autograd::NoGradGuard guard;
///   Variable scores = model->Score(batch, /*training=*/false);
/// \endcode
///
/// Guards nest, and each restores the mode it found, so an inference-mode
/// forward interleaved between training steps never leaks into the tape.
class NoGradGuard {
 public:
  NoGradGuard() : prev_(SetGradMode(false)) {}
  ~NoGradGuard() { SetGradMode(prev_); }

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// \brief Handle to a graph node; the user-facing autograd type.
///
/// Variables are cheap to copy (shared_ptr semantics). Leaf variables with
/// requires_grad=true act as trainable parameters: their value persists
/// across steps and optimizers update it in place using the accumulated
/// gradient.
class Variable {
 public:
  Variable() = default;
  explicit Variable(NodePtr node) : node_(std::move(node)) {}

  /// Creates a leaf (no parents). Trainable iff \p requires_grad.
  static Variable Leaf(tensor::Tensor value, bool requires_grad) {
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->requires_grad = requires_grad;
    return Variable(std::move(node));
  }

  /// Creates a constant leaf (never receives gradient).
  static Variable Constant(tensor::Tensor value) {
    return Leaf(std::move(value), /*requires_grad=*/false);
  }

  bool defined() const { return node_ != nullptr; }
  const NodePtr& node() const { return node_; }

  const tensor::Tensor& value() const { return node_->value; }
  tensor::Tensor& mutable_value() { return node_->value; }

  /// Gradient accumulated by the last Backward() call. Allocates a zero
  /// buffer if backward never reached this node.
  const tensor::Tensor& grad() const {
    node_->EnsureGrad();
    return node_->grad;
  }
  tensor::Tensor& mutable_grad() {
    node_->EnsureGrad();
    return node_->grad;
  }

  bool requires_grad() const { return node_->requires_grad; }

  /// Zeroes the gradient buffer (parameters call this between steps).
  void ZeroGrad() {
    if (node_->grad_allocated) node_->grad.Zero();
  }

  /// Shape helpers forwarded to the value tensor.
  size_t rank() const { return value().rank(); }
  size_t dim(size_t i) const { return value().dim(i); }

 private:
  NodePtr node_;
};

/// Runs reverse-mode differentiation from \p root (must be scalar, i.e. a
/// single-element tensor). Seeds d(root)/d(root) = 1 and accumulates
/// gradients into every reachable node with requires_grad.
void Backward(const Variable& root);

/// Graph introspection used by tests: number of nodes reachable from root.
size_t GraphSize(const Variable& root);

}  // namespace autograd
}  // namespace seqfm

#endif  // SEQFM_AUTOGRAD_VARIABLE_H_
