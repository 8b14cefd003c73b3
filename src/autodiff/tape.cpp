#include "autodiff/tape.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/check.h"
#include "core/gemm.h"

namespace hitopk::ad {
namespace {

// Vectorizable float exp: range-reduce x = n*ln2 + r via the round-to-
// nearest "magic number" trick (plain float adds and bit casts instead of a
// libm lrintf call), evaluate a degree-6 Taylor polynomial on
// r in [-ln2/2, ln2/2], and scale by 2^n through the exponent bits.  All
// straight-line float/int arithmetic — exactly what GCC12's -O2 cost model
// will vectorize inside a constant-trip-count block.  Max relative error
// ~1.2e-7 (about 1 float ulp) over the clamp range; exp(0) == 1 exactly.
// Inputs are clamped to [-80, 80]: softmax arguments are <= 0 after the
// row-max subtraction, and anything below -80 contributes < 2e-35 to a
// denominator that is >= 1.
inline float fast_expf(float x) {
  constexpr float kLog2e = 1.4426950408889634f;
  constexpr float kLn2Hi = 0.693359375f;        // Cody-Waite split of ln 2
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kMagic = 12582912.0f;         // 1.5 * 2^23
  x = std::min(std::max(x, -80.0f), 80.0f);
  const float zf = x * kLog2e + kMagic;
  const int32_t n = std::bit_cast<int32_t>(zf) - 0x4B400000;
  const float nf = zf - kMagic;
  float r = x - nf * kLn2Hi;
  r -= nf * kLn2Lo;
  float p = 1.3888889e-3f;                      // 1/720
  p = p * r + 8.3333333e-3f;                    // 1/120
  p = p * r + 4.1666667e-2f;                    // 1/24
  p = p * r + 1.6666667e-1f;                    // 1/6
  p = p * r + 0.5f;
  p = p * r + 1.0f;
  p = p * r + 1.0f;
  return std::bit_cast<float>(std::bit_cast<int32_t>(p) + (n << 23));
}

// One softmax row in float: prow[j] = exp(row[j] - max_logit), returning the
// float-accumulated denominator.  Blocked with a compile-time trip count so
// the polynomial exp vectorizes; the remainder reuses the same block helper
// with a runtime count (same scalar operation sequence, so results do not
// depend on where the block boundary falls).
inline float softmax_row_float(const float* __restrict row,
                               float* __restrict prow, size_t cols,
                               float max_logit) {
  constexpr size_t kBlock = 16;
  auto exp_block = [&](size_t base, size_t count) {
    for (size_t j = 0; j < count; ++j) {
      prow[base + j] = fast_expf(row[base + j] - max_logit);
    }
  };
  const size_t full_end = cols - cols % kBlock;
  for (size_t base = 0; base < full_end; base += kBlock) {
    exp_block(base, kBlock);
  }
  exp_block(full_end, cols - full_end);
  float denom = 0.0f;
  for (size_t j = 0; j < cols; ++j) denom += prow[j];
  return denom;
}

}  // namespace

void Tape::reset() {
  nodes_.clear();
  ids_.clear();
  arena_.reset();
  loss_node_ = -1;
}

Tape::Node& Tape::check_id(VarId id) {
  HITOPK_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return nodes_[static_cast<size_t>(id)];
}

const Tape::Node& Tape::check_id(VarId id) const {
  HITOPK_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return nodes_[static_cast<size_t>(id)];
}

std::span<const float> Tape::node_value(const Node& n) const {
  return n.op == Op::kLeaf ? n.leaf_value
                           : arena_.span(n.value_offset, n.rows * n.cols);
}

std::span<float> Tape::node_grad(Node& n) {
  if (n.op == Op::kLeaf) return n.leaf_grad;
  HITOPK_CHECK_NE(n.grad_offset, kNone) << "node grad not allocated";
  return arena_.span(n.grad_offset, n.rows * n.cols);
}

bool Tape::claim_first_write(Node& n) {
  if (n.op != Op::kLeaf || n.grad_written) return false;
  n.grad_written = true;
  return true;
}

std::span<float> Tape::grad_for_add(Node& n) {
  const std::span<float> g = node_grad(n);
  if (!g.empty() && claim_first_write(n)) std::fill(g.begin(), g.end(), 0.0f);
  return g;
}

std::span<const int> Tape::node_ids(const Node& n) const {
  return std::span<const int>(ids_.data() + n.ids_begin, n.ids_count);
}

std::span<const float> Tape::value(VarId id) const {
  return node_value(check_id(id));
}

size_t Tape::rows(VarId id) const { return check_id(id).rows; }
size_t Tape::cols(VarId id) const { return check_id(id).cols; }

VarId Tape::push(Node n, bool zeroed) {
  if (n.op != Op::kLeaf) {
    n.value_offset = arena_.alloc(n.rows * n.cols, zeroed);
  }
  nodes_.push_back(std::move(n));
  return static_cast<VarId>(nodes_.size() - 1);
}

VarId Tape::leaf(std::span<const float> value, std::span<float> grad,
                 size_t rows, size_t cols) {
  HITOPK_CHECK_EQ(value.size(), rows * cols);
  if (!grad.empty()) {
    HITOPK_CHECK_EQ(grad.size(), value.size());
    // A leaf's first contribution overwrites its grad, so a second leaf
    // over the same floats would silently drop the first one's.
    const auto lo = reinterpret_cast<uintptr_t>(grad.data());
    const uintptr_t hi = lo + grad.size_bytes();
    for (size_t id = 0; id < nodes_.size(); ++id) {
      const std::span<float> other = nodes_[id].leaf_grad;
      if (other.empty()) continue;
      const auto other_lo = reinterpret_cast<uintptr_t>(other.data());
      HITOPK_VALIDATE(hi <= other_lo || other_lo + other.size_bytes() <= lo)
          << "leaf grad overlaps the grad of leaf" << id
          << "; to tie weights, reuse that leaf's VarId";
    }
  }
  Node n;
  n.op = Op::kLeaf;
  n.rows = rows;
  n.cols = cols;
  n.leaf_value = value;
  n.leaf_grad = grad;
  return push(std::move(n));
}

VarId Tape::matmul(VarId a, VarId b) {
  const Node& na = check_id(a);
  const Node& nb = check_id(b);
  HITOPK_CHECK_EQ(na.cols, nb.rows) << "matmul shape mismatch";
  Node n;
  n.op = Op::kMatmul;
  n.a = a;
  n.b = b;
  n.rows = na.rows;
  n.cols = nb.cols;
  const size_t inner = na.cols;
  const VarId id = push(std::move(n));  // may move the arena: re-derive spans
  Node& self = nodes_.back();
  gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, self.rows, self.cols, inner,
              node_value(check_id(a)).data(), inner,
              node_value(check_id(b)).data(), self.cols,
              arena_.span(self.value_offset, self.rows * self.cols).data(),
              self.cols, /*accumulate=*/false);
  return id;
}

VarId Tape::add_bias(VarId x, VarId bias) {
  const Node& nx = check_id(x);
  const Node& nb = check_id(bias);
  HITOPK_CHECK_EQ(nb.rows * nb.cols, nx.cols) << "bias width mismatch";
  Node n;
  n.op = Op::kAddBias;
  n.a = x;
  n.b = bias;
  n.rows = nx.rows;
  n.cols = nx.cols;
  const VarId id = push(std::move(n));
  Node& self = nodes_.back();
  const auto vx = node_value(check_id(x));
  const auto vb = node_value(check_id(bias));
  auto out = arena_.span(self.value_offset, self.rows * self.cols);
  for (size_t i = 0; i < self.rows; ++i) {
    for (size_t j = 0; j < self.cols; ++j) {
      out[i * self.cols + j] = vx[i * self.cols + j] + vb[j];
    }
  }
  return id;
}

VarId Tape::relu(VarId x) {
  const Node& nx = check_id(x);
  Node n;
  n.op = Op::kRelu;
  n.a = x;
  n.rows = nx.rows;
  n.cols = nx.cols;
  const VarId id = push(std::move(n));
  Node& self = nodes_.back();
  const auto vx = node_value(check_id(x));
  auto out = arena_.span(self.value_offset, vx.size());
  for (size_t i = 0; i < vx.size(); ++i) {
    out[i] = vx[i] > 0.0f ? vx[i] : 0.0f;
  }
  return id;
}

VarId Tape::add_bias_relu(VarId x, VarId bias) {
  const Node& nx = check_id(x);
  const Node& nb = check_id(bias);
  HITOPK_CHECK_EQ(nb.rows * nb.cols, nx.cols) << "bias width mismatch";
  Node n;
  n.op = Op::kBiasRelu;
  n.a = x;
  n.b = bias;
  n.rows = nx.rows;
  n.cols = nx.cols;
  const VarId id = push(std::move(n));
  Node& self = nodes_.back();
  const auto vx = node_value(check_id(x));
  const auto vb = node_value(check_id(bias));
  auto out = arena_.span(self.value_offset, self.rows * self.cols);
  for (size_t i = 0; i < self.rows; ++i) {
    const float* xrow = &vx[i * self.cols];
    float* orow = &out[i * self.cols];
    for (size_t j = 0; j < self.cols; ++j) {
      const float z = xrow[j] + vb[j];
      orow[j] = z > 0.0f ? z : 0.0f;
    }
  }
  return id;
}

VarId Tape::tanh_act(VarId x) {
  const Node& nx = check_id(x);
  Node n;
  n.op = Op::kTanh;
  n.a = x;
  n.rows = nx.rows;
  n.cols = nx.cols;
  const VarId id = push(std::move(n));
  Node& self = nodes_.back();
  const auto vx = node_value(check_id(x));
  auto out = arena_.span(self.value_offset, vx.size());
  for (size_t i = 0; i < vx.size(); ++i) out[i] = std::tanh(vx[i]);
  return id;
}

VarId Tape::embedding(VarId table, std::span<const int> ids) {
  const Node& nt = check_id(table);
  // Validate before mutating any tape state, so a failed check leaves the
  // tape exactly as it was.
  for (const int row : ids) {
    HITOPK_CHECK(row >= 0 && static_cast<size_t>(row) < nt.rows)
        << "embedding id out of range:" << row;
  }
  Node n;
  n.op = Op::kEmbedding;
  n.a = table;
  n.rows = ids.size();
  n.cols = nt.cols;
  n.ids_begin = ids_.size();
  n.ids_count = ids.size();
  ids_.insert(ids_.end(), ids.begin(), ids.end());
  const VarId id = push(std::move(n));
  Node& self = nodes_.back();
  const auto vt = node_value(check_id(table));
  const auto self_ids = node_ids(self);
  auto out = arena_.span(self.value_offset, self.rows * self.cols);
  for (size_t i = 0; i < self.rows; ++i) {
    const size_t row = static_cast<size_t>(self_ids[i]);
    std::copy_n(&vt[row * self.cols], self.cols, &out[i * self.cols]);
  }
  return id;
}

VarId Tape::mean_pool(VarId x, size_t group) {
  const Node& nx = check_id(x);
  HITOPK_CHECK_GT(group, 0u);
  HITOPK_CHECK_EQ(nx.rows % group, 0u) << "rows not divisible by group";
  Node n;
  n.op = Op::kMeanPool;
  n.a = x;
  n.group = group;
  n.rows = nx.rows / group;
  n.cols = nx.cols;
  const VarId id = push(std::move(n), /*zeroed=*/true);
  Node& self = nodes_.back();
  const auto vx = node_value(check_id(x));
  auto out = arena_.span(self.value_offset, self.rows * self.cols);
  const float inv = 1.0f / static_cast<float>(group);
  for (size_t i = 0; i < self.rows; ++i) {
    for (size_t g = 0; g < group; ++g) {
      const float* src = &vx[(i * group + g) * self.cols];
      for (size_t j = 0; j < self.cols; ++j) out[i * self.cols + j] += src[j];
    }
    for (size_t j = 0; j < self.cols; ++j) out[i * self.cols + j] *= inv;
  }
  return id;
}

double Tape::softmax_cross_entropy(VarId logits, std::span<const int> labels) {
  HITOPK_CHECK_EQ(loss_node_, -1) << "loss already defined on this tape";
  const Node& nl = check_id(logits);
  HITOPK_CHECK_EQ(labels.size(), nl.rows);
  // Validate before mutating any tape state (see embedding()).
  for (const int label : labels) {
    HITOPK_CHECK(label >= 0 && static_cast<size_t>(label) < nl.cols)
        << "label out of range:" << label;
  }
  Node n;
  n.op = Op::kSoftmaxXent;
  n.a = logits;
  n.rows = nl.rows;
  n.cols = nl.cols;
  n.ids_begin = ids_.size();
  n.ids_count = labels.size();
  ids_.insert(ids_.end(), labels.begin(), labels.end());
  const VarId id = push(std::move(n));  // value stores the probabilities
  Node& self = nodes_.back();

  const auto v = node_value(check_id(logits));
  const auto self_ids = node_ids(self);
  auto probs = arena_.span(self.value_offset, self.rows * self.cols);
  double loss = 0.0;
  for (size_t i = 0; i < self.rows; ++i) {
    const float* row = &v[i * self.cols];
    float* prow = &probs[i * self.cols];
    float max_logit = row[0];
    for (size_t j = 1; j < self.cols; ++j) {
      max_logit = std::max(max_logit, row[j]);
    }
    const float inv =
        1.0f / softmax_row_float(row, prow, self.cols, max_logit);
    for (size_t j = 0; j < self.cols; ++j) prow[j] *= inv;
    const size_t label = static_cast<size_t>(self_ids[i]);
    loss -= std::log(std::max(1e-12, static_cast<double>(prow[label])));
  }
  loss /= static_cast<double>(self.rows);
  loss_node_ = id;
  return loss;
}

void Tape::backward_matmul(Node& n) {
  const Node& na = check_id(n.a);
  const size_t inner = na.cols;
  const auto gc = node_grad(n);
  auto ga = node_grad(check_id(n.a));
  auto gb = node_grad(check_id(n.b));
  // A leaf's first contribution is written, not added: the GEMM's sums
  // start at +0.0, so they equal 0 + the sums bit for bit.
  if (!ga.empty()) {
    // dA += dC * B^T
    gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kYes, n.rows, inner, n.cols,
                gc.data(), n.cols, node_value(check_id(n.b)).data(), n.cols,
                ga.data(), inner, !claim_first_write(check_id(n.a)));
  }
  if (!gb.empty()) {
    // dB += A^T * dC
    gemm::sgemm(gemm::Trans::kYes, gemm::Trans::kNo, inner, n.cols, n.rows,
                node_value(check_id(n.a)).data(), inner, gc.data(), n.cols,
                gb.data(), n.cols, !claim_first_write(check_id(n.b)));
  }
}

void Tape::backward() {
  HITOPK_CHECK_NE(loss_node_, -1) << "no loss op recorded";
  // Zeroed arena grad blocks for every non-leaf node; leaf gradients are
  // external storage, written by their first contribution below.  The
  // terminal xent node's own grad is never read (its backward step seeds
  // its input directly), so it gets no block.
  for (auto& n : nodes_) {
    if (n.op == Op::kLeaf) {
      n.grad_written = false;
    } else if (n.op != Op::kSoftmaxXent) {
      n.grad_offset = arena_.alloc(n.rows * n.cols, /*zeroed=*/true);
    }
  }
  // Seed: d(loss)/d(logits) = (P - onehot) / n, written directly into the
  // xent node's input gradient during its backward step below.
  for (size_t idx = nodes_.size(); idx-- > 0;) {
    Node& n = nodes_[idx];
    switch (n.op) {
      case Op::kLeaf:
        break;
      case Op::kSoftmaxXent: {
        auto gx = grad_for_add(check_id(n.a));
        if (gx.empty()) break;
        const auto probs = node_value(n);
        const auto labels = node_ids(n);
        const float inv_n = 1.0f / static_cast<float>(n.rows);
        for (size_t i = 0; i < n.rows; ++i) {
          for (size_t j = 0; j < n.cols; ++j) {
            float g = probs[i * n.cols + j];
            if (static_cast<size_t>(labels[i]) == j) g -= 1.0f;
            gx[i * n.cols + j] += g * inv_n;
          }
        }
        break;
      }
      case Op::kMatmul:
        backward_matmul(n);
        break;
      case Op::kAddBias: {
        const auto gc = node_grad(n);
        auto gx = grad_for_add(check_id(n.a));
        auto gb = grad_for_add(check_id(n.b));
        if (!gx.empty()) {
          for (size_t i = 0; i < gc.size(); ++i) gx[i] += gc[i];
        }
        if (!gb.empty()) {
          for (size_t i = 0; i < n.rows; ++i) {
            for (size_t j = 0; j < n.cols; ++j) {
              gb[j] += gc[i * n.cols + j];
            }
          }
        }
        break;
      }
      case Op::kRelu: {
        auto gx = grad_for_add(check_id(n.a));
        if (gx.empty()) break;
        const auto gc = node_grad(n);
        const auto vx = node_value(check_id(n.a));
        for (size_t i = 0; i < gc.size(); ++i) {
          if (vx[i] > 0.0f) gx[i] += gc[i];
        }
        break;
      }
      case Op::kBiasRelu: {
        // out = relu(x + b): the mask is out > 0 (== x + b > 0); one fused
        // pass accumulates both input grads, matching add_bias-then-relu
        // bitwise.
        const auto gc = node_grad(n);
        const auto out = node_value(n);
        auto gx = grad_for_add(check_id(n.a));
        auto gb = grad_for_add(check_id(n.b));
        for (size_t i = 0; i < n.rows; ++i) {
          const float* orow = &out[i * n.cols];
          const float* grow = &gc[i * n.cols];
          for (size_t j = 0; j < n.cols; ++j) {
            if (orow[j] > 0.0f) {
              if (!gx.empty()) gx[i * n.cols + j] += grow[j];
              if (!gb.empty()) gb[j] += grow[j];
            }
          }
        }
        break;
      }
      case Op::kTanh: {
        auto gx = grad_for_add(check_id(n.a));
        if (gx.empty()) break;
        const auto gc = node_grad(n);
        const auto out = node_value(n);
        for (size_t i = 0; i < gc.size(); ++i) {
          gx[i] += gc[i] * (1.0f - out[i] * out[i]);
        }
        break;
      }
      case Op::kEmbedding: {
        auto gt = grad_for_add(check_id(n.a));
        if (gt.empty()) break;
        const auto gc = node_grad(n);
        const auto ids = node_ids(n);
        for (size_t i = 0; i < n.rows; ++i) {
          const size_t row = static_cast<size_t>(ids[i]);
          for (size_t j = 0; j < n.cols; ++j) {
            gt[row * n.cols + j] += gc[i * n.cols + j];
          }
        }
        break;
      }
      case Op::kMeanPool: {
        auto gx = grad_for_add(check_id(n.a));
        if (gx.empty()) break;
        const auto gc = node_grad(n);
        const float inv = 1.0f / static_cast<float>(n.group);
        for (size_t i = 0; i < n.rows; ++i) {
          for (size_t g = 0; g < n.group; ++g) {
            for (size_t j = 0; j < n.cols; ++j) {
              gx[(i * n.group + g) * n.cols + j] +=
                  gc[i * n.cols + j] * inv;
            }
          }
        }
        break;
      }
    }
  }
  // A leaf no op reached still has its gradient written: zero.
  for (auto& n : nodes_) {
    if (n.op == Op::kLeaf) grad_for_add(n);
  }
}

size_t Tape::count_topk_correct(std::span<const float> logits, size_t rows,
                                size_t cols, std::span<const int> labels,
                                size_t k) {
  HITOPK_CHECK_EQ(logits.size(), rows * cols);
  HITOPK_CHECK_EQ(labels.size(), rows);
  HITOPK_CHECK_GT(k, 0u);
  // Validate every label before any read (as softmax_cross_entropy does).
  for (const int label : labels) {
    HITOPK_CHECK(label >= 0 && static_cast<size_t>(label) < cols)
        << "label out of range:" << label;
  }
  size_t correct = 0;
  for (size_t i = 0; i < rows; ++i) {
    const float* row = &logits[i * cols];
    const float target = row[labels[i]];
    // Rank of the target logit: count strictly-greater entries.
    size_t greater = 0;
    for (size_t j = 0; j < cols; ++j) {
      if (row[j] > target) ++greater;
    }
    if (greater < k) ++correct;
  }
  return correct;
}

}  // namespace hitopk::ad
