#include "data/datacache.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/check.h"
#include "models/calibration.h"

namespace hitopk::data {
namespace {

using models::Calibration;

double read_seconds(double latency, double bandwidth, size_t count,
                    size_t bytes) {
  if (count == 0) return 0.0;
  const double batches =
      std::ceil(static_cast<double>(count) /
                static_cast<double>(Calibration::io_parallel_requests));
  return latency * batches + static_cast<double>(bytes) / bandwidth;
}

}  // namespace

DataCache::DataCache(DataCacheConfig config)
    : config_(std::move(config)),
      ssd_(config_.use_ssd_cache ? Calibration::ssd_capacity_bytes : 0),
      memory_(config_.use_memory_cache ? config_.memory_capacity_bytes : 0) {
  HITOPK_VALIDATE(config_.nodes > 0)
      << "DataCache needs at least one node; got" << config_.nodes;
  HITOPK_VALIDATE(config_.cache_resolution >= 0)
      << "DataCache cache_resolution must be >= 0; got"
      << config_.cache_resolution;
}

FetchBreakdown DataCache::fetch_batch(std::span<const uint64_t> sample_ids,
                                      int resolution) {
  set_resolution(resolution);
  const size_t encoded = config_.dataset.avg_encoded_bytes;
  // Cached entries may be stored at a fixed (larger) resolution.
  const int stored_resolution =
      config_.cache_resolution > 0
          ? std::max(config_.cache_resolution, resolution)
          : resolution;
  const size_t decoded = config_.dataset.decoded_bytes(stored_resolution);

  FetchBreakdown out;
  size_t nfs_bytes = 0, ssd_bytes = 0, ram_bytes = 0;
  for (uint64_t id : sample_ids) {
    if (config_.use_memory_cache && memory_.get(id)) {
      ++out.memory_samples;
      ram_bytes += decoded;
      continue;
    }
    if (config_.use_ssd_cache && ssd_.get(id)) {
      ++out.ssd_samples;
      ssd_bytes += encoded;
    } else {
      ++out.nfs_samples;
      nfs_bytes += encoded;
      if (config_.use_ssd_cache) ssd_.put(id, encoded);
    }
    if (config_.use_memory_cache) memory_.put(id, decoded);
  }

  // Reads from the three tiers proceed concurrently (different samples,
  // different devices); decode pipelines with the encoded-tier reads.
  const double nfs = read_seconds(Calibration::nfs_latency,
                                  Calibration::nfs_bandwidth,
                                  out.nfs_samples, nfs_bytes);
  const double ssd = read_seconds(Calibration::ssd_latency,
                                  Calibration::ssd_bandwidth,
                                  out.ssd_samples, ssd_bytes);
  const double ram = read_seconds(Calibration::ram_latency,
                                  Calibration::ram_bandwidth,
                                  out.memory_samples, ram_bytes);
  const double decode = static_cast<double>(out.nfs_samples + out.ssd_samples) *
                        Calibration::decode_seconds_per_image /
                        static_cast<double>(Calibration::io_cpu_cores);

  const double augment_per_image =
      Calibration::augment_seconds_per_image_96 *
      (config_.dataset.name == "wmt17"
           ? 0.02  // tokenized text needs no pixel work
           : static_cast<double>(resolution) * resolution / (96.0 * 96.0));
  const double augment = static_cast<double>(sample_ids.size()) *
                         augment_per_image /
                         static_cast<double>(Calibration::io_cpu_cores);

  out.seconds = std::max({nfs, ssd, ram, decode}) + augment;
  return out;
}

FetchBreakdown DataCache::fetch_shard_batch(uint64_t shard_offset,
                                            uint64_t iteration,
                                            size_t batch_size, int resolution) {
  const size_t shard_samples = config_.dataset.num_samples /
                               static_cast<size_t>(std::max(1, config_.nodes));
  HITOPK_CHECK_GT(shard_samples, 0u);
  std::vector<uint64_t> ids(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    ids[i] = shard_offset + (iteration * batch_size + i) % shard_samples;
  }
  return fetch_batch(ids, resolution);
}

void DataCache::new_run() { memory_.clear(); }

void DataCache::set_resolution(int resolution) {
  HITOPK_VALIDATE(resolution > 0)
      << "resolution must be positive; got" << resolution;
  if (config_.cache_resolution > 0 &&
      resolution <= config_.cache_resolution) {
    // Fixed-resolution caching: down-cropping per batch keeps entries valid
    // across the DAWNBench resolution schedule.
    cached_resolution_ = config_.cache_resolution;
    return;
  }
  if (cached_resolution_ != 0 && cached_resolution_ != resolution) {
    memory_.clear();  // cached pre-processed samples are the wrong size
  }
  cached_resolution_ = resolution;
}

}  // namespace hitopk::data
