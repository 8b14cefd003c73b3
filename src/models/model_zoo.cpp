#include "models/model_zoo.h"

#include <algorithm>

#include "core/check.h"

namespace hitopk::models {
namespace {

// Builder helpers keep the topology tables readable.
class SpecBuilder {
 public:
  explicit SpecBuilder(std::string name) { spec_.name = std::move(name); }

  void conv(const std::string& name, size_t kh, size_t kw, size_t cin,
            size_t cout, double output_positions) {
    spec_.layers.push_back({name,
                            {kh, kw, cin, cout},
                            LayerKind::kConvWeight,
                            output_positions});
  }

  void bias(const std::string& name, size_t n) {
    spec_.layers.push_back({name, {n}, LayerKind::kBias, 1.0});
  }

  void batch_norm(const std::string& name, size_t channels,
                  double output_positions) {
    spec_.layers.push_back({name + ".gamma",
                            {channels},
                            LayerKind::kBatchNormGamma,
                            output_positions});
    spec_.layers.push_back({name + ".beta",
                            {channels},
                            LayerKind::kBatchNormBeta,
                            output_positions});
  }

  void dense(const std::string& name, size_t in, size_t out, bool bias,
             double scale = 1.0) {
    spec_.layers.push_back(
        {name + ".w", {in, out}, LayerKind::kDenseWeight, scale});
    if (bias) {
      spec_.layers.push_back({name + ".b", {out}, LayerKind::kBias, scale});
    }
  }

  void layer_norm(const std::string& name, size_t width, double scale = 1.0) {
    spec_.layers.push_back(
        {name + ".gamma", {width}, LayerKind::kLayerNormGamma, scale});
    spec_.layers.push_back(
        {name + ".beta", {width}, LayerKind::kLayerNormBeta, scale});
  }

  void embedding(const std::string& name, size_t vocab, size_t width,
                 double scale = 1.0) {
    spec_.layers.push_back({name, {vocab, width}, LayerKind::kEmbedding, scale});
  }

  ModelSpec build() { return std::move(spec_); }

 private:
  ModelSpec spec_;
};

}  // namespace

size_t LayerSpec::size() const {
  size_t n = 1;
  for (size_t dim : shape) n *= dim;
  return n;
}

size_t ModelSpec::total_params() const {
  size_t n = 0;
  for (const auto& layer : layers) n += layer.size();
  return n;
}

size_t ModelSpec::max_tensor_size() const {
  size_t best = 0;
  for (const auto& layer : layers) best = std::max(best, layer.size());
  return best;
}

std::vector<size_t> ModelSpec::backprop_order_sizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(layers.size());
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    sizes.push_back(it->size());
  }
  return sizes;
}

std::vector<double> ModelSpec::backprop_order_compute_weights() const {
  std::vector<double> weights;
  weights.reserve(layers.size());
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    weights.push_back(it->compute_weight());
  }
  return weights;
}

namespace {

// Shared bottleneck-stage builder for the ResNet family.
ModelSpec build_resnet(const std::string& name, const int blocks_per_stage[4]) {
  SpecBuilder b(name);
  b.conv("conv1", 7, 7, 3, 64, 112.0 * 112.0);
  b.batch_norm("bn1", 64, 112.0 * 112.0);
  const size_t widths[4] = {64, 128, 256, 512};
  const double positions[4] = {56.0 * 56.0, 28.0 * 28.0, 14.0 * 14.0,
                               7.0 * 7.0};
  size_t in_channels = 64;
  for (int s = 0; s < 4; ++s) {
    const size_t width = widths[s];
    const size_t out_channels = width * 4;
    for (int block = 0; block < blocks_per_stage[s]; ++block) {
      const std::string prefix =
          "layer" + std::to_string(s + 1) + "." + std::to_string(block);
      b.conv(prefix + ".conv1", 1, 1, in_channels, width, positions[s]);
      b.batch_norm(prefix + ".bn1", width, positions[s]);
      b.conv(prefix + ".conv2", 3, 3, width, width, positions[s]);
      b.batch_norm(prefix + ".bn2", width, positions[s]);
      b.conv(prefix + ".conv3", 1, 1, width, out_channels, positions[s]);
      b.batch_norm(prefix + ".bn3", out_channels, positions[s]);
      if (block == 0) {
        b.conv(prefix + ".downsample", 1, 1, in_channels, out_channels,
               positions[s]);
        b.batch_norm(prefix + ".downsample_bn", out_channels, positions[s]);
      }
      in_channels = out_channels;
    }
  }
  b.dense("fc", 2048, 1000, /*bias=*/true);
  return b.build();
}

}  // namespace

ModelSpec resnet152() {
  const int blocks[4] = {3, 8, 36, 3};
  return build_resnet("resnet152", blocks);
}

ModelSpec bert_base() {
  SpecBuilder b("bert");
  const size_t hidden = 768;
  const size_t d_ff = 3072;
  b.embedding("word_embeddings", 30522, hidden, 0.1);
  b.embedding("position_embeddings", 512, hidden, 0.1);
  b.embedding("token_type_embeddings", 2, hidden, 0.1);
  b.layer_norm("embeddings.ln", hidden);
  for (int l = 0; l < 12; ++l) {
    const std::string prefix = "encoder." + std::to_string(l);
    for (const char* proj : {"q", "k", "v", "o"}) {
      b.dense(prefix + ".attn." + proj, hidden, hidden, true);
    }
    b.layer_norm(prefix + ".ln1", hidden);
    b.dense(prefix + ".ffn1", hidden, d_ff, true);
    b.dense(prefix + ".ffn2", d_ff, hidden, true);
    b.layer_norm(prefix + ".ln2", hidden);
  }
  b.dense("pooler", hidden, hidden, true);
  return b.build();
}

ModelSpec resnet50() {
  const int blocks[4] = {3, 4, 6, 3};
  return build_resnet("resnet50", blocks);
}

ModelSpec vgg19() {
  SpecBuilder b("vgg19");
  // Configuration E: channel widths per conv layer (pooling layers carry no
  // parameters).  Every conv and dense layer has a bias: 19 weight + 19
  // bias tensors.
  const size_t widths[] = {64,  64,  128, 128, 256, 256, 256, 256,
                           512, 512, 512, 512, 512, 512, 512, 512};
  // Output positions per conv block (224^2 input, pool after each block).
  const double positions[] = {224.0 * 224.0, 224.0 * 224.0, 112.0 * 112.0,
                              112.0 * 112.0, 56.0 * 56.0,   56.0 * 56.0,
                              56.0 * 56.0,   56.0 * 56.0,   28.0 * 28.0,
                              28.0 * 28.0,   28.0 * 28.0,   28.0 * 28.0,
                              14.0 * 14.0,   14.0 * 14.0,   14.0 * 14.0,
                              14.0 * 14.0};
  size_t in_channels = 3;
  for (int i = 0; i < 16; ++i) {
    const std::string name = "conv" + std::to_string(i + 1);
    b.conv(name + ".w", 3, 3, in_channels, widths[i], positions[i]);
    b.bias(name + ".b", widths[i]);
    in_channels = widths[i];
  }
  b.dense("fc1", 512 * 7 * 7, 4096, true);
  b.dense("fc2", 4096, 4096, true);
  b.dense("fc3", 4096, 1000, true);
  return b.build();
}

ModelSpec transformer_wmt() {
  SpecBuilder b("transformer");
  const size_t d_model = 768;
  const size_t d_ff = 3072;
  const size_t vocab = 14000;  // shared source/target BPE vocabulary
  // The embedding backward is a cheap scatter-add (no matmul): far less
  // wall-time per parameter than the dense layers, even though the tensor
  // is the largest in the model.
  b.embedding("shared_embedding", vocab, d_model, 0.1);
  b.embedding("positional", 512, d_model, 0.1);

  auto attention = [&](const std::string& prefix) {
    for (const char* proj : {"q", "k", "v", "o"}) {
      b.dense(prefix + "." + proj, d_model, d_model, true);
    }
  };
  auto ffn = [&](const std::string& prefix) {
    b.dense(prefix + ".ffn1", d_model, d_ff, true);
    b.dense(prefix + ".ffn2", d_ff, d_model, true);
  };

  for (int l = 0; l < 6; ++l) {
    const std::string prefix = "encoder." + std::to_string(l);
    attention(prefix + ".self_attn");
    ffn(prefix);
    b.layer_norm(prefix + ".ln1", d_model);
    b.layer_norm(prefix + ".ln2", d_model);
  }
  for (int l = 0; l < 6; ++l) {
    const std::string prefix = "decoder." + std::to_string(l);
    attention(prefix + ".self_attn");
    attention(prefix + ".cross_attn");
    ffn(prefix);
    b.layer_norm(prefix + ".ln1", d_model);
    b.layer_norm(prefix + ".ln2", d_model);
    b.layer_norm(prefix + ".ln3", d_model);
  }
  b.layer_norm("final_ln", d_model);
  return b.build();
}

ModelSpec model_by_name(const std::string& name) {
  if (name == "resnet50") return resnet50();
  if (name == "resnet152") return resnet152();
  if (name == "vgg19") return vgg19();
  if (name == "transformer") return transformer_wmt();
  if (name == "bert") return bert_base();
  HITOPK_VALIDATE(false) << "unknown model:" << name;
  return {};
}

}  // namespace hitopk::models
