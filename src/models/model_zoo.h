// Parameter-tensor tables for the paper's three workloads.
//
// The communication and LARS experiments never need activations — only the
// exact list of parameter tensors (one per "layer" in the LARS sense): name,
// shape, and kind.  ResNet-50 has 161 such tensors (§4.2: "the ResNet-50
// model, which has 161 layers"), VGG-19 has 38, and the WMT Transformer is
// configured to the paper's ~110 M parameters (Fig. 8).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hitopk::models {

enum class LayerKind {
  kConvWeight,
  kDenseWeight,
  kBias,
  kBatchNormGamma,
  kBatchNormBeta,
  kLayerNormGamma,
  kLayerNormBeta,
  kEmbedding,
};

struct LayerSpec {
  std::string name;
  std::vector<size_t> shape;
  LayerKind kind = LayerKind::kDenseWeight;
  // Relative compute cost per parameter: FLOPs of a layer are roughly
  // params x output positions, so a conv at 56x56 does ~3000x more work per
  // parameter than a fully-connected layer.  Backward wall-time per layer —
  // which decides when its gradient becomes available for communication —
  // is proportional to size() * compute_scale.
  double compute_scale = 1.0;

  size_t size() const;
  double compute_weight() const { return static_cast<double>(size()) * compute_scale; }
};

struct ModelSpec {
  std::string name;
  std::vector<LayerSpec> layers;

  size_t total_params() const;
  size_t num_tensors() const { return layers.size(); }
  size_t max_tensor_size() const;
  // Gradient sizes in backpropagation order (last layer first), as the
  // timeline simulator consumes them.
  std::vector<size_t> backprop_order_sizes() const;

  // Per-tensor compute weights in the same order (see
  // LayerSpec::compute_weight); drives gradient-availability times.
  std::vector<double> backprop_order_compute_weights() const;
};

// ResNet-50 v1 (He et al. 2016), ImageNet head: 161 parameter tensors,
// ~25.56 M parameters.
ModelSpec resnet50();

// ResNet-152 (stages {3, 8, 36, 3}): ~60.2 M parameters; used by the
// cluster-shape ablations as a heavier CNN gradient.
ModelSpec resnet152();

// VGG-19 with the standard 3-layer classifier: 38 tensors, ~143.7 M params.
ModelSpec vgg19();

// Encoder-decoder Transformer (Vaswani et al. 2017) sized to the paper's
// ~110 M parameters: d_model 768, d_ff 3072, 6+6 layers, shared 14k-entry
// vocabulary embedding.
ModelSpec transformer_wmt();

// BERT-base (Devlin et al. 2019, the paper's motivating example: "training
// a BERT model on a single TPU takes more than 1.5 months"): 12 encoder
// layers, hidden 768, vocabulary 30522 — ~110 M parameters.
ModelSpec bert_base();

// Lookup by name ("resnet50", "resnet152", "vgg19", "transformer",
// "bert"); throws ConfigError on unknown names.
ModelSpec model_by_name(const std::string& name);

}  // namespace hitopk::models
