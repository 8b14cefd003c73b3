// Tests for the model zoo (exact tensor counts / parameter totals) and the
// calibrated performance model.
#include <gtest/gtest.h>

#include "core/check.h"
#include "models/calibration.h"
#include "models/model_zoo.h"
#include "models/perf_model.h"

namespace hitopk::models {
namespace {

// ------------------------------------------------------------ resnet50
TEST(ResNet50, Has161ParameterTensors) {
  // §4.2: "the ResNet-50 model, which has 161 layers" (LARS layer count).
  EXPECT_EQ(resnet50().num_tensors(), 161u);
}

TEST(ResNet50, ParameterTotalMatchesReference) {
  // torchvision resnet50: 25,557,032 parameters.
  EXPECT_EQ(resnet50().total_params(), 25'557'032u);
}

TEST(ResNet50, TensorKindBreakdown) {
  const ModelSpec spec = resnet50();
  size_t convs = 0, bn = 0, dense = 0, bias = 0;
  for (const auto& layer : spec.layers) {
    switch (layer.kind) {
      case LayerKind::kConvWeight: ++convs; break;
      case LayerKind::kBatchNormGamma:
      case LayerKind::kBatchNormBeta: ++bn; break;
      case LayerKind::kDenseWeight: ++dense; break;
      case LayerKind::kBias: ++bias; break;
      default: break;
    }
  }
  EXPECT_EQ(convs, 53u);  // 1 stem + 48 block + 4 downsample
  EXPECT_EQ(bn, 106u);    // 53 BN layers x (gamma, beta)
  EXPECT_EQ(dense, 1u);
  EXPECT_EQ(bias, 1u);
}

TEST(ResNet50, LargestTensorIsFinalStageConv) {
  // layer4 3x3x512x512 = 2.36 M is the largest single tensor... except the
  // fc (2048x1000 = 2.048 M) and layer4 downsample (1x1x1024x2048 = 2.1 M);
  // the 3x3 conv wins.
  EXPECT_EQ(resnet50().max_tensor_size(), 3u * 3 * 512 * 512);
}

TEST(ResNet50, BackpropOrderStartsWithClassifier) {
  const auto sizes = resnet50().backprop_order_sizes();
  EXPECT_EQ(sizes.size(), 161u);
  EXPECT_EQ(sizes[0], 1000u);           // fc bias is last in forward order
  EXPECT_EQ(sizes[1], 2048u * 1000u);   // fc weight
}

// ------------------------------------------------------------ vgg19
TEST(Vgg19, Has38ParameterTensors) {
  EXPECT_EQ(vgg19().num_tensors(), 38u);
}

TEST(Vgg19, ParameterTotalMatchesReference) {
  // torchvision vgg19: 143,667,240 parameters.
  EXPECT_EQ(vgg19().total_params(), 143'667'240u);
}

TEST(Vgg19, DominatedByFirstDenseLayer) {
  // fc1 (25088 x 4096 = 102.8 M) holds ~70% of all parameters.
  EXPECT_EQ(vgg19().max_tensor_size(), 25088u * 4096u);
}

// ------------------------------------------------------------ transformer
TEST(Transformer, ParameterTotalNearPaper) {
  // Fig. 8 uses "110 million parameters for Transformer".
  const size_t params = transformer_wmt().total_params();
  EXPECT_GT(params, 105'000'000u);
  EXPECT_LT(params, 115'000'000u);
}

TEST(Transformer, HasEncoderAndDecoderStacks) {
  const ModelSpec spec = transformer_wmt();
  size_t encoder = 0, decoder = 0, embeddings = 0;
  for (const auto& layer : spec.layers) {
    if (layer.name.rfind("encoder.", 0) == 0) ++encoder;
    if (layer.name.rfind("decoder.", 0) == 0) ++decoder;
    if (layer.kind == LayerKind::kEmbedding) ++embeddings;
  }
  EXPECT_EQ(embeddings, 2u);
  EXPECT_GT(encoder, 0u);
  // Decoder layers carry cross-attention: more tensors than the encoder.
  EXPECT_GT(decoder, encoder);
}

// ------------------------------------------------------------ resnet152
TEST(ResNet152, ParameterTotalMatchesReference) {
  // torchvision resnet152: 60,192,808 parameters.
  EXPECT_EQ(resnet152().total_params(), 60'192'808u);
}

TEST(ResNet152, TensorCountMatchesStructure) {
  // 50 bottleneck blocks x 3 convs + 4 downsamples + stem = 155 convs;
  // each with a BN pair, plus fc weight + bias: 155 + 310 + 2 = 467.
  EXPECT_EQ(resnet152().num_tensors(), 467u);
}

TEST(ResNet152, SharesResNet50Stem) {
  const auto r50 = resnet50();
  const auto r152 = resnet152();
  EXPECT_EQ(r50.layers[0].shape, r152.layers[0].shape);
  EXPECT_EQ(r50.layers.back().shape, r152.layers.back().shape);
}

// ------------------------------------------------------------ bert
TEST(BertBase, ParameterTotalMatchesReference) {
  // huggingface bert-base-uncased encoder + pooler: ~109.5 M.
  const size_t params = bert_base().total_params();
  EXPECT_GT(params, 108'000'000u);
  EXPECT_LT(params, 111'000'000u);
}

TEST(BertBase, TwelveEncoderLayers) {
  size_t ffn1 = 0;
  for (const auto& layer : bert_base().layers) {
    if (layer.name.find(".ffn1.w") != std::string::npos) ++ffn1;
  }
  EXPECT_EQ(ffn1, 12u);
}

TEST(ModelZoo, LookupByName) {
  EXPECT_EQ(model_by_name("resnet50").name, "resnet50");
  EXPECT_EQ(model_by_name("resnet152").name, "resnet152");
  EXPECT_EQ(model_by_name("bert").name, "bert");
  EXPECT_EQ(model_by_name("vgg19").name, "vgg19");
  EXPECT_EQ(model_by_name("transformer").name, "transformer");
  EXPECT_THROW(model_by_name("alexnet"), ConfigError);
}

// ------------------------------------------------------------ perf model
TEST(PerfModel, MatchesCalibrationAnchors) {
  EXPECT_NEAR(PerfModel::single_gpu_throughput("resnet50", 96), 4400.0, 1.0);
  EXPECT_NEAR(PerfModel::single_gpu_throughput("resnet50", 128), 3010.0, 1.0);
  EXPECT_NEAR(PerfModel::single_gpu_throughput("resnet50", 224), 1240.0, 1.0);
  EXPECT_NEAR(PerfModel::single_gpu_throughput("resnet50", 288), 710.0, 1.0);
  EXPECT_NEAR(PerfModel::single_gpu_throughput("vgg19", 224), 560.0, 1.0);
  EXPECT_NEAR(PerfModel::single_gpu_throughput("transformer", 0), 32.0, 0.1);
}

TEST(PerfModel, ThroughputDecreasesWithResolution) {
  double prev = 1e12;
  for (int res : {64, 96, 128, 160, 224, 288, 320}) {
    const double t = PerfModel::single_gpu_throughput("resnet50", res);
    EXPECT_LT(t, prev) << res;
    prev = t;
  }
}

TEST(PerfModel, FfbpSecondsLinearInBatch) {
  const double b1 = PerfModel::ffbp_seconds("resnet50", 224, 1);
  const double b256 = PerfModel::ffbp_seconds("resnet50", 224, 256);
  EXPECT_NEAR(b256, 256.0 * b1, 1e-9);
}

TEST(PerfModel, Fig1FfbpAnchor) {
  // Fig. 1: FF&BP of ResNet-50 at 224^2, batch 256 is ~0.204 s.
  const double t = PerfModel::ffbp_seconds("resnet50", 224, 256);
  EXPECT_GT(t, 0.18);
  EXPECT_LT(t, 0.23);
}

TEST(PerfModel, UnknownModelThrows) {
  EXPECT_THROW(PerfModel::ffbp_seconds("alexnet", 224, 1), CheckError);
}

}  // namespace
}  // namespace hitopk::models
