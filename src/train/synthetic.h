// Synthetic convergence tasks (substitution for ImageNet / WMT17; see
// "Substitutions" in docs/REPRODUCING.md).
//
// The paper's Fig. 10 / Table 2 claims are about the *relative* convergence
// of Dense-SGD vs TopK-SGD vs MSTopK-SGD, which depends on gradient
// sparsification dynamics, not on the specific vision/translation task.
// The stand-ins preserve what matters: real non-convex models trained by
// mini-batch SGD with real per-worker gradients.
//
//   - Vision proxy (ResNet-50 / VGG-19 rows): Gaussian-mixture
//     classification with an MLP; quality metric is top-5 accuracy, like
//     the paper's CNN rows.
//   - Sequence proxy (Transformer row): class-conditional unigram
//     sequences classified by an embedding + mean-pool model; quality is
//     token-classification accuracy standing in for BLEU.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/tensor.h"

namespace hitopk::train {

struct LayerSegment {
  std::string name;
  size_t begin = 0;
  size_t count = 0;
};

// A model + dataset bundle exposing exactly what the distributed
// convergence harness needs: flat parameters, per-batch flat gradients, and
// a held-out quality metric.
class ConvergenceTask {
 public:
  virtual ~ConvergenceTask() = default;

  virtual std::string name() const = 0;
  virtual std::string quality_metric() const = 0;

  virtual size_t train_size() const = 0;
  virtual size_t param_count() const = 0;
  virtual std::span<float> params() = 0;
  virtual const std::vector<LayerSegment>& segments() const = 0;

  // Writes the mean mini-batch gradient of the current parameters over the
  // given training samples into grad_out (every element; its old contents
  // are never read).  Returns the batch loss.
  double gradient(std::span<const size_t> sample_indices,
                  std::span<float> grad_out) {
    return gradient_at(params(), sample_indices, grad_out);
  }

  // Same, but evaluated at an explicit parameter vector (layout identical
  // to params()) without touching task state — what LocalSGD's per-worker
  // parameter copies need.  Implementations must be safe to call
  // concurrently from parallel_for workers: they may read shared training
  // data but keep all mutable scratch per call (thread-local workspace
  // buffers), so the per-worker gradient fan-out in run_convergence can run
  // on the thread pool with bitwise-serial-identical results.
  virtual double gradient_at(std::span<const float> params,
                             std::span<const size_t> sample_indices,
                             std::span<float> grad_out) = 0;

  // Quality on the held-out set (top-5 accuracy or token accuracy, in
  // [0, 1]).
  virtual double evaluate() = 0;
};

// MLP on a Gaussian-mixture classification problem.  `hidden` of {96, 64}
// with 20 classes / 64 input dims gives ~14k parameters.
std::unique_ptr<ConvergenceTask> make_vision_task(
    uint64_t seed, const std::string& name = "resnet50-proxy",
    std::vector<size_t> hidden = {96, 64});

// Embedding + mean-pool classifier on class-conditional token sequences.
std::unique_ptr<ConvergenceTask> make_sequence_task(
    uint64_t seed, const std::string& name = "transformer-proxy");

}  // namespace hitopk::train
