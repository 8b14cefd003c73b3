// Tape-based reverse-mode automatic differentiation.
//
// The convergence experiments (Fig. 10, Table 2) need *real* gradients
// flowing through *real* compression and collectives, so this module
// implements a small eager autodiff: operations evaluate immediately and
// record themselves on a tape; backward() walks the tape in reverse.
//
// Engine layout (the "near-hardware-speed" rebuild):
//   - Every dense product — matmul forward and both backward products
//     (dA = dC*B^T, dB = A^T*dC) — runs through the register-tiled SGEMM
//     in core/gemm.h.
//   - Node value/grad storage is bump-allocated from a core/workspace Arena
//     (thread-local backing buffers), not per-node heap Tensors; reset()
//     rewinds the tape for the next iteration with capacity intact, so
//     steady-state iterations allocate nothing.
//   - add_bias_relu() fuses the rows+bias add with the ReLU clamp (one
//     traversal forward, one masked accumulate backward); it is bitwise
//     equivalent to add_bias() followed by relu().
//
// Leaves reference external storage (the trainer's flat parameter/gradient
// buffers), so parameters persist outside the tape.  backward() writes each
// leaf gradient rather than adding into it, so a caller need not zero the
// buffer first.  Supported ops cover the MLP classifier and the
// embedding-based sequence model used as convergence stand-ins: matmul,
// bias add, (fused) relu, tanh, embedding lookup, mean pooling, and softmax
// cross-entropy.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "core/workspace.h"

namespace hitopk::ad {

using VarId = int;

class Tape {
 public:
  // Reserves room for a typical model's worth of nodes up front; the
  // convergence stand-ins record 10-12 nodes per pass.
  Tape() { nodes_.reserve(16); }

  // Rewinds the tape for a fresh forward/backward pass.  Node storage
  // capacity (arena buffer, node vector, id staging) survives, so a reused
  // tape is bitwise-identical to a fresh one but allocation-free.
  void reset();

  // Leaf over external row-major storage.  `grad` may be empty (constants /
  // inputs); when present, backward() writes it: the pass's first
  // contribution overwrites the buffer, later ones add to it, and a leaf no
  // op reaches comes out zero.  Throws ConfigError if `grad` overlaps an
  // earlier leaf's grad; to tie weights, reuse that leaf's VarId.
  VarId leaf(std::span<const float> value, std::span<float> grad, size_t rows,
             size_t cols);

  // C = A (rows_a x cols_a) * B (cols_a x cols_b).
  VarId matmul(VarId a, VarId b);

  // Row-wise bias add: X (n x c) + b (1 x c).
  VarId add_bias(VarId x, VarId bias);

  VarId relu(VarId x);

  // Fused relu(X + b); bitwise-identical to add_bias() then relu() but one
  // tape node and one memory pass.
  VarId add_bias_relu(VarId x, VarId bias);

  VarId tanh_act(VarId x);

  // Rows of `table` (vocab x width) selected by ids; result is
  // (ids.size() x width).  Backward scatter-adds into the table's grad.
  // The ids are copied into tape-owned staging (reused across reset()).
  VarId embedding(VarId table, std::span<const int> ids);
  VarId embedding(VarId table, std::initializer_list<int> ids) {
    return embedding(table, std::span<const int>(ids.begin(), ids.size()));
  }

  // Mean over consecutive groups of `group` rows: (n x c) -> (n/group x c).
  VarId mean_pool(VarId x, size_t group);

  // Terminal op: mean softmax cross-entropy of logits (n x classes) against
  // integer labels.  Returns the loss; backward() starts here.  Each row's
  // exponentials go through a vectorizable polynomial expf with a float
  // denominator.  That is accurate enough for training: every probability
  // is within 1e-6 relative of a libm/double-denominator softmax
  // (tests/softmax_mode_test.cpp; docs/REPRODUCING.md has the measured
  // tolerance).
  double softmax_cross_entropy(VarId logits, std::span<const int> labels);

  // Writes d(loss)/d(leaf) into every leaf grad (see leaf()).
  // softmax_cross_entropy must have been called exactly once.
  void backward();

  // Read-only access to a variable's value (rows x cols, row-major).
  std::span<const float> value(VarId id) const;
  size_t rows(VarId id) const;
  size_t cols(VarId id) const;

  // Class predictions from logits: true if the correct label is within the
  // top-k logits of its row (utility for accuracy metrics).
  static size_t count_topk_correct(std::span<const float> logits, size_t rows,
                                   size_t cols, std::span<const int> labels,
                                   size_t k);

 private:
  enum class Op {
    kLeaf,
    kMatmul,
    kAddBias,
    kRelu,
    kBiasRelu,
    kTanh,
    kEmbedding,
    kMeanPool,
    kSoftmaxXent,
  };

  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Node {
    Op op = Op::kLeaf;
    VarId a = -1;
    VarId b = -1;
    size_t rows = 0;
    size_t cols = 0;
    size_t value_offset = kNone;       // arena value block (non-leaf)
    size_t grad_offset = kNone;        // arena grad block (set by backward)
    std::span<const float> leaf_value; // leaf external value
    std::span<float> leaf_grad;        // leaf external grad (may be empty)
    bool grad_written = false;         // leaf: this pass wrote leaf_grad
    size_t ids_begin = 0;              // embedding / labels, in ids_
    size_t ids_count = 0;
    size_t group = 1;                  // mean-pool group size
  };

  // Appends the node and allocates its arena value block; returns its id.
  // Accumulating forward kernels pass zeroed = true.
  VarId push(Node n, bool zeroed = false);

  std::span<const float> node_value(const Node& n) const;
  std::span<float> node_grad(Node& n);
  // True, once per backward pass, for a leaf whose grad the pass has not
  // yet written: the caller's contribution must overwrite it.
  bool claim_first_write(Node& n);
  // n's grad, ready for `+=`: a leaf's first contribution zeroes it first.
  std::span<float> grad_for_add(Node& n);
  std::span<const int> node_ids(const Node& n) const;
  Node& check_id(VarId id);
  const Node& check_id(VarId id) const;
  void backward_matmul(Node& n);

  std::vector<Node> nodes_;
  std::vector<int> ids_;  // staging for embedding ids / xent labels
  Arena arena_;
  VarId loss_node_ = -1;
};

}  // namespace hitopk::ad
