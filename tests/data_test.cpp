// Tests for the I/O subsystem: LRU cache semantics and the DataCache paths
// of Fig. 5 (NFS / SSD / memory), including the Fig. 9 speed-up shape.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "data/datacache.h"
#include "data/dataset.h"
#include "data/lru_cache.h"

namespace hitopk::data {
namespace {

// ------------------------------------------------------------ dataset
TEST(DatasetSpec, ImagenetShape) {
  const DatasetSpec d = DatasetSpec::imagenet();
  EXPECT_EQ(d.num_samples, 1'281'167u);
  EXPECT_EQ(d.validation_samples, 100'000u);
  EXPECT_EQ(d.decoded_bytes(96), 3u * 96 * 96);
  EXPECT_EQ(d.decoded_bytes(224), 3u * 224 * 224);
}

TEST(DatasetSpec, WmtIgnoresResolution) {
  const DatasetSpec d = DatasetSpec::wmt17();
  EXPECT_EQ(d.decoded_bytes(96), d.decoded_bytes(224));
}

// ------------------------------------------------------------ LRU
TEST(LruCache, HitAndMiss) {
  LruCache cache(100);
  EXPECT_FALSE(cache.get(1));
  cache.put(1, 10);
  EXPECT_TRUE(cache.get(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.put(1, 10);
  cache.put(2, 10);
  cache.put(3, 10);
  EXPECT_TRUE(cache.get(1));  // touch 1: LRU order is now 2, 3, 1
  cache.put(4, 10);           // evicts 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, UpdateExistingKeyAdjustsBytes) {
  LruCache cache(100);
  cache.put(1, 40);
  cache.put(1, 60);
  EXPECT_EQ(cache.used_bytes(), 60u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(LruCache, OversizedEntryNotCached) {
  LruCache cache(50);
  cache.put(1, 100);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCache, ZeroCapacityNeverCaches) {
  LruCache cache(0);
  cache.put(1, 1);
  EXPECT_FALSE(cache.contains(1));
}

TEST(LruCache, ClearResetsContents) {
  LruCache cache(100);
  cache.put(1, 10);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(LruCache, ContainsDoesNotTouch) {
  LruCache cache(20);
  cache.put(1, 10);
  cache.put(2, 10);
  EXPECT_TRUE(cache.contains(1));  // must not refresh key 1
  cache.put(3, 10);                // evicts 1 (oldest by *use*)
  EXPECT_FALSE(cache.contains(1));
}

// ------------------------------------------------------------ DataCache
std::vector<uint64_t> batch_ids(uint64_t start, size_t count) {
  std::vector<uint64_t> ids(count);
  std::iota(ids.begin(), ids.end(), start);
  return ids;
}

DataCacheConfig small_config() {
  DataCacheConfig config;
  config.dataset = DatasetSpec::imagenet();
  config.nodes = 16;
  return config;
}

TEST(DataCache, FirstEpochReadsNfs) {
  DataCache cache(small_config());
  const auto ids = batch_ids(0, 256);
  const FetchBreakdown f = cache.fetch_batch(ids, 96);
  EXPECT_EQ(f.nfs_samples, 256u);
  EXPECT_EQ(f.memory_samples, 0u);
  EXPECT_EQ(f.ssd_samples, 0u);
}

TEST(DataCache, SecondEpochHitsMemory) {
  DataCache cache(small_config());
  const auto ids = batch_ids(0, 256);
  cache.fetch_batch(ids, 96);
  const FetchBreakdown f = cache.fetch_batch(ids, 96);
  EXPECT_EQ(f.memory_samples, 256u);
  EXPECT_EQ(f.nfs_samples, 0u);
}

TEST(DataCache, SecondRunHitsSsdNotNfs) {
  DataCache cache(small_config());
  const auto ids = batch_ids(0, 256);
  cache.fetch_batch(ids, 96);
  cache.new_run();  // memory cache dies with the process, SSD survives
  const FetchBreakdown f = cache.fetch_batch(ids, 96);
  EXPECT_EQ(f.ssd_samples, 256u);
  EXPECT_EQ(f.nfs_samples, 0u);
  EXPECT_EQ(f.memory_samples, 0u);
}

TEST(DataCache, MemoryPathOver10xFasterThanNfsPath) {
  // Fig. 9: I/O time drops by more than 10x with caching.
  DataCache cache(small_config());
  const auto ids = batch_ids(0, 256);
  const double cold = cache.fetch_batch(ids, 96).seconds;
  const double warm = cache.fetch_batch(ids, 96).seconds;
  EXPECT_GT(cold, 10.0 * warm);
}

TEST(DataCache, SsdPathBetweenNfsAndMemory) {
  DataCache cache(small_config());
  const auto ids = batch_ids(0, 256);
  const double cold = cache.fetch_batch(ids, 96).seconds;
  cache.new_run();
  const double ssd = cache.fetch_batch(ids, 96).seconds;
  const double warm = cache.fetch_batch(ids, 96).seconds;
  EXPECT_LT(ssd, cold);
  EXPECT_GT(ssd, warm);
}

TEST(DataCache, ResolutionChangeInvalidatesMemoryCache) {
  DataCache cache(small_config());
  const auto ids = batch_ids(0, 256);
  cache.fetch_batch(ids, 96);
  const FetchBreakdown f = cache.fetch_batch(ids, 128);
  EXPECT_EQ(f.memory_samples, 0u);  // decoded-at-96 entries are useless
  EXPECT_EQ(f.ssd_samples, 256u);   // but the encoded files are still local
}

TEST(DataCache, DisabledTiersFallThrough) {
  DataCacheConfig config = small_config();
  config.use_memory_cache = false;
  config.use_ssd_cache = false;
  DataCache cache(config);
  const auto ids = batch_ids(0, 256);
  cache.fetch_batch(ids, 96);
  const FetchBreakdown f = cache.fetch_batch(ids, 96);
  EXPECT_EQ(f.nfs_samples, 256u);  // every epoch pays the NFS price
}

TEST(DataCache, MemoryCapacityBoundsCachedSamples) {
  DataCacheConfig config = small_config();
  config.memory_capacity_bytes = 100 * config.dataset.decoded_bytes(96);
  DataCache cache(config);
  const auto ids = batch_ids(0, 256);
  cache.fetch_batch(ids, 96);
  EXPECT_LE(cache.memory_cache().entries(), 100u);
  const FetchBreakdown f = cache.fetch_batch(ids, 96);
  // Some hits (the tail of the batch), many misses (evicted head).
  EXPECT_LT(f.memory_samples, 256u);
}

TEST(DataCache, ShardBatchWrapsAroundShard) {
  DataCacheConfig config = small_config();
  DataCache cache(config);
  const size_t shard = config.dataset.num_samples / 16;
  // Request the batch that crosses the shard end: ids must wrap within
  // [offset, offset + shard).
  const uint64_t iterations_per_epoch = shard / 256;
  const FetchBreakdown f =
      cache.fetch_shard_batch(0, iterations_per_epoch, 256, 96);
  EXPECT_EQ(f.nfs_samples + f.ssd_samples + f.memory_samples, 256u);
}

TEST(DataCache, HigherResolutionCostsMoreAugment) {
  DataCache cache_a(small_config());
  DataCache cache_b(small_config());
  const auto ids = batch_ids(0, 256);
  cache_a.fetch_batch(ids, 96);
  cache_b.fetch_batch(ids, 224);
  const double warm96 = cache_a.fetch_batch(ids, 96).seconds;
  const double warm224 = cache_b.fetch_batch(ids, 224).seconds;
  EXPECT_GT(warm224, warm96);
}

TEST(DataCache, Fig9IoTimesInCalibratedRange) {
  // Naive path ~0.05 s and cached path <= 0.01 s per 256-batch at 96^2
  // (see "Substitutions" in docs/REPRODUCING.md).
  DataCache cache(small_config());
  const auto ids = batch_ids(0, 256);
  const double cold = cache.fetch_batch(ids, 96).seconds;
  const double warm = cache.fetch_batch(ids, 96).seconds;
  EXPECT_GT(cold, 0.03);
  EXPECT_LT(cold, 0.09);
  EXPECT_LT(warm, 0.01);
}

}  // namespace
}  // namespace hitopk::data
