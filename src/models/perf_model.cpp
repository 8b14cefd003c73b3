#include "models/perf_model.h"

#include <vector>

#include "core/check.h"
#include "models/calibration.h"

namespace hitopk::models {
namespace {

struct Anchor {
  double res_sq;
  double seconds_per_sample;
};

// Piecewise-linear interpolation of per-sample time in resolution^2 space
// (conv FLOPs scale with H*W); clamped extrapolation at the slope of the
// nearest segment.
double interpolate(const std::vector<Anchor>& anchors, double res_sq) {
  HITOPK_CHECK_GE(anchors.size(), 2u);
  if (res_sq <= anchors.front().res_sq) {
    const auto& a = anchors[0];
    const auto& b = anchors[1];
    const double slope = (b.seconds_per_sample - a.seconds_per_sample) /
                         (b.res_sq - a.res_sq);
    const double t = a.seconds_per_sample + slope * (res_sq - a.res_sq);
    return std::max(t, 0.25 * a.seconds_per_sample);
  }
  for (size_t i = 0; i + 1 < anchors.size(); ++i) {
    const auto& a = anchors[i];
    const auto& b = anchors[i + 1];
    if (res_sq <= b.res_sq) {
      const double frac = (res_sq - a.res_sq) / (b.res_sq - a.res_sq);
      return a.seconds_per_sample +
             frac * (b.seconds_per_sample - a.seconds_per_sample);
    }
  }
  const auto& a = anchors[anchors.size() - 2];
  const auto& b = anchors.back();
  const double slope =
      (b.seconds_per_sample - a.seconds_per_sample) / (b.res_sq - a.res_sq);
  return b.seconds_per_sample + slope * (res_sq - b.res_sq);
}

const std::vector<Anchor>& resnet50_anchors() {
  static const std::vector<Anchor> anchors = {
      {96.0 * 96.0, 1.0 / Calibration::resnet50_96_throughput},
      {128.0 * 128.0, 1.0 / Calibration::resnet50_128_throughput},
      {224.0 * 224.0, 1.0 / Calibration::resnet50_224_dawnbench_throughput},
      {288.0 * 288.0, 1.0 / Calibration::resnet50_288_throughput},
  };
  return anchors;
}

}  // namespace

double PerfModel::single_gpu_throughput(const std::string& model,
                                        int resolution) {
  const double res_sq = static_cast<double>(resolution) * resolution;
  if (model == "resnet50") {
    return 1.0 / interpolate(resnet50_anchors(), res_sq);
  }
  if (model == "vgg19") {
    // Single anchor at 224^2; FLOP-proportional scaling elsewhere.
    const double t224 = 1.0 / Calibration::vgg19_224_throughput;
    return 1.0 / (t224 * res_sq / (224.0 * 224.0));
  }
  if (model == "transformer") {
    return Calibration::transformer_throughput;
  }
  HITOPK_CHECK(false) << "unknown model:" << model;
  return 0.0;
}

double PerfModel::ffbp_seconds(const std::string& model, int resolution,
                               int local_batch) {
  HITOPK_VALIDATE(local_batch > 0)
      << "local batch must be positive; got" << local_batch;
  HITOPK_VALIDATE(resolution > 0)
      << "resolution must be positive; got" << resolution;
  return static_cast<double>(local_batch) /
         single_gpu_throughput(model, resolution);
}

}  // namespace hitopk::models
