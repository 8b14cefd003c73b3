#include "autodiff/tape.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

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

// Writes the im2col lowering of one CHW image into `col` (c_in*k*k rows by
// h*w columns): col[(ci*k+ky)*k+kx][y*w+x] = img[ci][y+ky-pad][x+kx-pad],
// zero outside the image.  Row-major `col`, so conv forward is the plain
// product  out (c_out x hw) = W (c_out x c_in*k*k) * col.
void im2col(const float* img, size_t c_in, size_t h, size_t w, size_t k,
            float* col) {
  const long pad = static_cast<long>(k / 2);
  const size_t hw = h * w;
  size_t row = 0;
  for (size_t ci = 0; ci < c_in; ++ci) {
    for (size_t ky = 0; ky < k; ++ky) {
      const long dy = static_cast<long>(ky) - pad;
      for (size_t kx = 0; kx < k; ++kx, ++row) {
        const long dx = static_cast<long>(kx) - pad;
        float* dst_row = col + row * hw;
        // x + dx must land in [0, w):
        const size_t x0 = static_cast<size_t>(std::max<long>(0, -dx));
        const size_t x1 = static_cast<size_t>(
            std::min<long>(static_cast<long>(w), static_cast<long>(w) - dx));
        for (size_t y = 0; y < h; ++y) {
          const long sy = static_cast<long>(y) + dy;
          float* dst = dst_row + y * w;
          if (sy < 0 || sy >= static_cast<long>(h) || x0 >= x1) {
            std::memset(dst, 0, w * sizeof(float));
            continue;
          }
          const float* src = img + (ci * h + static_cast<size_t>(sy)) * w;
          std::memset(dst, 0, x0 * sizeof(float));
          std::memcpy(dst + x0, src + static_cast<size_t>(
                                          static_cast<long>(x0) + dx),
                      (x1 - x0) * sizeof(float));
          std::memset(dst + x1, 0, (w - x1) * sizeof(float));
        }
      }
    }
  }
}

// Adjoint of im2col: scatter-adds the column gradient back onto the image
// gradient, reversing the zero-padded gather above.
void col2im_add(const float* col, size_t c_in, size_t h, size_t w, size_t k,
                float* img_grad) {
  const long pad = static_cast<long>(k / 2);
  const size_t hw = h * w;
  size_t row = 0;
  for (size_t ci = 0; ci < c_in; ++ci) {
    for (size_t ky = 0; ky < k; ++ky) {
      const long dy = static_cast<long>(ky) - pad;
      for (size_t kx = 0; kx < k; ++kx, ++row) {
        const long dx = static_cast<long>(kx) - pad;
        const float* src_row = col + row * hw;
        const size_t x0 = static_cast<size_t>(std::max<long>(0, -dx));
        const size_t x1 = static_cast<size_t>(
            std::min<long>(static_cast<long>(w), static_cast<long>(w) - dx));
        if (x0 >= x1) continue;
        for (size_t y = 0; y < h; ++y) {
          const long sy = static_cast<long>(y) + dy;
          if (sy < 0 || sy >= static_cast<long>(h)) continue;
          float* dst = img_grad + (ci * h + static_cast<size_t>(sy)) * w +
                       static_cast<size_t>(static_cast<long>(x0) + dx);
          const float* src = src_row + y * w + x0;
          for (size_t x = 0; x < x1 - x0; ++x) dst[x] += src[x];
        }
      }
    }
  }
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

VarId Tape::channel_pool(VarId x, size_t channels) {
  const Node& nx = check_id(x);
  HITOPK_CHECK_GT(channels, 0u);
  HITOPK_CHECK_EQ(nx.cols % channels, 0u) << "cols not divisible by channels";
  Node n;
  n.op = Op::kChannelPool;
  n.a = x;
  n.group = nx.cols / channels;  // spatial size
  n.rows = nx.rows;
  n.cols = channels;
  const size_t in_cols = nx.cols;
  const VarId id = push(std::move(n));
  Node& self = nodes_.back();
  const auto vx = node_value(check_id(x));
  auto out = arena_.span(self.value_offset, self.rows * self.cols);
  const float inv = 1.0f / static_cast<float>(self.group);
  for (size_t b = 0; b < self.rows; ++b) {
    for (size_t c = 0; c < channels; ++c) {
      double acc = 0.0;
      const float* src = &vx[b * in_cols + c * self.group];
      for (size_t j = 0; j < self.group; ++j) acc += src[j];
      out[b * channels + c] = static_cast<float>(acc) * inv;
    }
  }
  return id;
}

VarId Tape::conv2d(VarId x, VarId weight, size_t c_in, size_t h, size_t w,
                   size_t c_out, size_t k) {
  const Node& nx = check_id(x);
  const Node& nw = check_id(weight);
  HITOPK_CHECK_EQ(nx.cols, c_in * h * w) << "conv input shape mismatch";
  HITOPK_CHECK_EQ(nw.rows, c_out);
  HITOPK_CHECK_EQ(nw.cols, c_in * k * k) << "conv kernel shape mismatch";
  HITOPK_CHECK_EQ(k % 2, 1u) << "odd kernel sizes only (same padding)";

  Node n;
  n.op = Op::kConv2d;
  n.a = x;
  n.b = weight;
  n.rows = nx.rows;
  n.cols = c_out * h * w;
  n.conv = ConvShape{c_in, h, w, c_out, k};
  const VarId id = push(std::move(n));

  const size_t hw = h * w;
  const size_t patch = c_in * k * k;
  // The im2col panels are kept in the arena so the backward pass reuses
  // them for dW instead of re-lowering every image — but only when the
  // weight can actually receive a gradient.  Gradient-free forward passes
  // (held-out evaluation) would otherwise size the long-lived arena by
  // batch * patch * hw floats per conv layer for a cache nothing reads.
  const Node& weight_node = check_id(weight);
  const bool needs_cols =
      weight_node.op != Op::kLeaf || !weight_node.leaf_grad.empty();
  const size_t batch = nodes_.back().rows;
  if (needs_cols) {
    nodes_.back().col_offset = arena_.alloc(batch * patch * hw);
  }
  Node& self = nodes_.back();
  const auto vx = node_value(check_id(x));
  const auto vw = node_value(check_id(weight));
  auto out = arena_.span(self.value_offset, self.rows * self.cols);
  Scratch<float> col_scratch(needs_cols ? 0 : patch * hw);
  for (size_t b = 0; b < self.rows; ++b) {
    float* col = needs_cols
                     ? arena_.span(self.col_offset, batch * patch * hw)
                               .data() +
                           b * patch * hw
                     : col_scratch.data();
    im2col(&vx[b * c_in * hw], c_in, h, w, k, col);
    // out_b (c_out x hw) = W (c_out x patch) * col (patch x hw)
    gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, c_out, hw, patch,
                vw.data(), patch, col, hw, &out[b * c_out * hw], hw,
                /*accumulate=*/false);
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

void Tape::backward_conv2d(Node& n) {
  const auto [c_in, h, w, c_out, k] = n.conv;
  const size_t hw = h * w;
  const size_t patch = c_in * k * k;
  const auto vw = node_value(check_id(n.b));
  const auto gout = node_grad(n);
  auto gx = grad_for_add(check_id(n.a));
  auto gw = node_grad(check_id(n.b));
  if (gx.empty() && gw.empty()) return;
  const bool write_gw = !gw.empty() && claim_first_write(check_id(n.b));
  // A weight that can receive a gradient always has its im2col panels
  // cached by the forward pass (see conv2d()).
  HITOPK_CHECK(gw.empty() || n.col_offset != kNone);
  const auto cols = gw.empty() ? std::span<const float>{}
                               : arena_.span(n.col_offset,
                                             n.rows * patch * hw);
  Scratch<float> dcol(gx.empty() ? 0 : patch * hw);
  for (size_t b = 0; b < n.rows; ++b) {
    const float* gout_img = &gout[b * c_out * hw];
    if (!gw.empty()) {
      // dW += dOut (c_out x hw) * col^T (hw x patch); col cached by forward
      gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kYes, c_out, patch, hw,
                  gout_img, hw, &cols[b * patch * hw], hw, gw.data(), patch,
                  /*accumulate=*/!(write_gw && b == 0));
    }
    if (!gx.empty()) {
      // dcol (patch x hw) = W^T (patch x c_out) * dOut (c_out x hw)
      gemm::sgemm(gemm::Trans::kYes, gemm::Trans::kNo, patch, hw, c_out,
                  vw.data(), patch, gout_img, hw, dcol.data(), hw,
                  /*accumulate=*/false);
      col2im_add(dcol.data(), c_in, h, w, k, &gx[b * c_in * hw]);
    }
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
      case Op::kChannelPool: {
        auto gx = grad_for_add(check_id(n.a));
        if (gx.empty()) break;
        const auto gc = node_grad(n);
        const float inv = 1.0f / static_cast<float>(n.group);
        for (size_t b = 0; b < n.rows; ++b) {
          for (size_t c = 0; c < n.cols; ++c) {
            const float g = gc[b * n.cols + c] * inv;
            float* dst = &gx[(b * n.cols + c) * n.group];
            for (size_t j = 0; j < n.group; ++j) dst[j] += g;
          }
        }
        break;
      }
      case Op::kConv2d:
        backward_conv2d(n);
        break;
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
