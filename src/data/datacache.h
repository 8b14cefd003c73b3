// DataCache: the paper's two-level caching for training data (Fig. 5, §4.1).
//
// Three fetch paths per sample, mirroring the figure:
//   first epoch of the first run : NFS -> (populate SSD cache) -> decode ->
//                                  augment -> (populate memory cache)
//   second or higher runs        : SSD cache -> decode -> augment ->
//                                  (populate memory cache)
//   second or higher epochs      : memory cache (pre-processed) -> augment
//
// The memory tier is a sharded key/value store: the dataset is split across
// the cluster's nodes (1/m of the samples per node) to bound memory use.
// Timing comes from per-tier bandwidth/latency models plus a multi-core
// decode/augment cost (the storage anchors of models/calibration.h); reads
// and decodes pipeline (max), augmentation is a dependent stage (add).  The
// SSD tier is the instance's whole local disk.
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.h"
#include "data/lru_cache.h"

namespace hitopk::data {

struct DataCacheConfig {
  DatasetSpec dataset = DatasetSpec::imagenet();
  bool use_ssd_cache = true;
  bool use_memory_cache = true;
  size_t memory_capacity_bytes = size_t{64} << 30;  // per-node cache budget
  int nodes = 16;  // memory cache shards the dataset across nodes
  // When non-zero, samples are cached pre-processed at this fixed
  // resolution and down-cropped per batch, so the DAWNBench multi-
  // resolution schedule does not invalidate the memory cache (decode
  // happens once, at the largest scheduled size).  Requested resolutions
  // above this value still force re-decoding.
  int cache_resolution = 0;
};

struct FetchBreakdown {
  double seconds = 0.0;
  size_t nfs_samples = 0;
  size_t ssd_samples = 0;
  size_t memory_samples = 0;
};

// Per-node cache state.  One DataCache instance models one node's caches;
// the trainer holds one per node (or one representative node, since access
// patterns are symmetric).
class DataCache {
 public:
  explicit DataCache(DataCacheConfig config);

  // Simulated seconds to produce one pre-processed batch at `resolution`.
  // `sample_ids` are global dataset indices; this node caches the ones it
  // fetches regardless of id (the shard assignment is the caller's choice).
  FetchBreakdown fetch_batch(std::span<const uint64_t> sample_ids,
                             int resolution);

  // Epoch-position convenience: fetches batch `iteration` of this node's
  // shard (node_samples consecutive ids starting at shard_offset).
  FetchBreakdown fetch_shard_batch(uint64_t shard_offset, uint64_t iteration,
                                   size_t batch_size, int resolution);

  // Marks the start of a new run (hyper-parameter restart): the memory cache
  // is gone (new process) but the node's SSD file cache survives.
  void new_run();

  // The memory cache stores samples pre-processed at a fixed resolution;
  // changing resolution (DAWNBench schedule) invalidates it.
  void set_resolution(int resolution);

  const LruCache& ssd_cache() const { return ssd_; }
  const LruCache& memory_cache() const { return memory_; }
  const DataCacheConfig& config() const { return config_; }

 private:
  DataCacheConfig config_;
  LruCache ssd_;
  LruCache memory_;
  int cached_resolution_ = 0;
};

}  // namespace hitopk::data
