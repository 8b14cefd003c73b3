// Dataset descriptors for the paper's workloads.
//
// Substitution note ("Substitutions" in docs/REPRODUCING.md): the real
// ImageNet/WMT17 bytes are not available, so datasets are described by their
// storage statistics — sample counts and encoded/decoded sizes — which is
// everything the I/O subsystem's behaviour depends on.
#pragma once

#include <cstddef>
#include <string>

namespace hitopk::data {

struct DatasetSpec {
  std::string name;
  size_t num_samples = 0;        // training set size
  size_t validation_samples = 0;
  size_t avg_encoded_bytes = 0;  // on-disk size per sample (JPEG / text)

  // ImageNet-1k train split: 1,281,167 JPEGs averaging ~110 KB; DAWNBench
  // validates on 100,000 samples (§5.6).
  static DatasetSpec imagenet();

  // WMT17 En-De: ~5.9 M sentence pairs, ~120 bytes each.
  static DatasetSpec wmt17();

  // Bytes of one decoded sample at the given square resolution (3 channels,
  // uint8).  For text datasets, resolution is ignored and the tokenized
  // sample size is returned.
  size_t decoded_bytes(int resolution) const;
};

}  // namespace hitopk::data
