// Tests for the concurrent estimate-serving layer (src/serving/): canonical
// cache keys, the set-associative estimate cache, epoch-based invalidation, the
// EstimationService single/batch paths, and the federation attach point.
// The ConcurrentHammer tests double as the tsan targets wired into
// scripts/check.sh.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hybrid.h"
#include "core/trainer.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/health.h"
#include "remote/hive_engine.h"
#include "serving/estimate_cache.h"
#include "serving/service.h"
#include "traffic/generator.h"
#include "util/properties.h"
#include "util/rng.h"
#include "util/runtime_metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace intellisphere {
namespace {

core::OpenboxInfo InfoFor(const remote::HiveEngine& hive) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = hive.cluster().config().dfs_block_bytes;
  info.total_slots = hive.cluster().config().TotalSlots();
  info.num_worker_nodes = hive.cluster().config().num_worker_nodes;
  info.task_memory_bytes = hive.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      hive.options().broadcast_threshold_factor * info.task_memory_bytes;
  return info;
}

core::SubOpCostEstimator MakeSubOpEstimator(remote::HiveEngine* hive) {
  core::CalibrationOptions opts;
  opts.record_sizes = {40, 250, 1000};
  opts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(hive, InfoFor(*hive), opts).value();
  return core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value();
}

core::LogicalOpModel MakeAggModel(remote::HiveEngine* hive) {
  rel::AggWorkloadOptions wopts;
  wopts.record_counts = {100000, 400000, 1000000};
  wopts.record_sizes = {100, 500};
  wopts.num_aggregates = {1, 3};
  auto queries = rel::GenerateAggWorkload(wopts).value();
  auto run = core::CollectAggTraining(hive, queries).value();
  core::LogicalOpOptions opts;
  opts.mlp.iterations = 4000;
  return core::LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                     run.data, core::AggDimensionNames(),
                                     opts)
      .value();
}

core::LogicalOpModel MakeJoinModel(remote::HiveEngine* hive) {
  rel::JoinWorkloadOptions wopts;
  wopts.left_record_counts = {1000000, 4000000};
  wopts.right_record_counts = {400000};
  wopts.record_sizes = {100, 250};
  wopts.output_selectivities = {1.0, 0.5};
  wopts.projection_levels = {1};
  auto queries = rel::GenerateJoinWorkload(wopts).value();
  auto run = core::CollectJoinTraining(hive, queries).value();
  core::LogicalOpOptions opts;
  opts.mlp.iterations = 800;
  return core::LogicalOpModel::Train(rel::OperatorType::kJoin, run.data,
                                     core::JoinDimensionNames(), opts)
      .value();
}

rel::SqlOperator SampleJoin(int64_t left_rows = 4000000) {
  auto l = rel::SyntheticTableDef(left_rows, 250).value();
  auto r = rel::SyntheticTableDef(400000, 100).value();
  return rel::SqlOperator::MakeJoin(
      rel::MakeJoinQuery(l, r, 32, 32, 0.5).value());
}

rel::SqlOperator SampleAgg(int64_t rows = 400000) {
  auto t = rel::SyntheticTableDef(rows, 100).value();
  return rel::SqlOperator::MakeAgg(rel::MakeAggQuery(t, 10, 1).value());
}

/// Asserts two estimates are bit-identical across every field a caller can
/// observe — the cached-vs-uncached acceptance criterion.
void ExpectBitIdentical(const core::HybridEstimate& a,
                        const core::HybridEstimate& b) {
  EXPECT_EQ(a.seconds, b.seconds);  // exact, not NEAR: bit-identity
  EXPECT_EQ(a.approach_used, b.approach_used);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.used_remedy, b.used_remedy);
  EXPECT_EQ(a.remedy_alpha, b.remedy_alpha);
  EXPECT_EQ(a.nn_seconds, b.nn_seconds);
  EXPECT_EQ(a.remedy_seconds, b.remedy_seconds);
  EXPECT_EQ(a.fell_back_to_sub_op, b.fell_back_to_sub_op);
  EXPECT_EQ(a.eliminated_count, b.eliminated_count);
  ASSERT_EQ(a.eliminated.size(), b.eliminated.size());
  for (size_t i = 0; i < a.eliminated.size(); ++i) {
    EXPECT_EQ(a.eliminated[i].algorithm, b.eliminated[i].algorithm);
    EXPECT_EQ(a.eliminated[i].reason, b.eliminated[i].reason);
  }
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].algorithm, b.candidates[i].algorithm);
    EXPECT_EQ(a.candidates[i].seconds, b.candidates[i].seconds);
  }
}

// --- CacheOptions / ServiceOptions parsing ---------------------------------

TEST(CacheOptionsTest, FromPropertiesDefaultsAndOverrides) {
  Properties empty;
  auto defaults = serving::CacheOptions::FromProperties(empty).value();
  EXPECT_EQ(defaults.shards, 8);
  EXPECT_EQ(defaults.capacity, 4096);
  EXPECT_DOUBLE_EQ(defaults.ttl_seconds, 0.0);
  EXPECT_EQ(defaults.quantize_bits, 0);

  Properties props;
  props.SetInt(serving::kCacheShardsKey, 4);
  props.SetInt(serving::kCacheCapacityKey, 128);
  props.SetDouble(serving::kCacheTtlSecondsKey, 60.0);
  props.SetInt(serving::kCacheQuantizeBitsKey, 16);
  auto opts = serving::CacheOptions::FromProperties(props).value();
  EXPECT_EQ(opts.shards, 4);
  EXPECT_EQ(opts.capacity, 128);
  EXPECT_DOUBLE_EQ(opts.ttl_seconds, 60.0);
  EXPECT_EQ(opts.quantize_bits, 16);
}

TEST(CacheOptionsTest, FromPropertiesRejectsInvalidValues) {
  Properties props;
  props.SetInt(serving::kCacheShardsKey, 0);
  EXPECT_FALSE(serving::CacheOptions::FromProperties(props).ok());
  props.SetInt(serving::kCacheShardsKey, 8);
  props.SetInt(serving::kCacheCapacityKey, -1);
  EXPECT_FALSE(serving::CacheOptions::FromProperties(props).ok());
  props.SetInt(serving::kCacheCapacityKey, 16);
  props.SetInt(serving::kCacheQuantizeBitsKey, 53);
  EXPECT_FALSE(serving::CacheOptions::FromProperties(props).ok());
  // A non-finite TTL slips past the `< 0` range check; reading it fails.
  props.SetInt(serving::kCacheQuantizeBitsKey, 0);
  for (const char* ttl : {"nan", "inf"}) {
    props.SetString(serving::kCacheTtlSecondsKey, ttl);
    EXPECT_EQ(serving::CacheOptions::FromProperties(props).status().code(),
              StatusCode::kInvalidArgument)
        << ttl;
  }
}

TEST(ServiceOptionsTest, FromPropertiesReadsJobsAndCacheKeys) {
  Properties props;
  props.SetInt(serving::kServingJobsKey, 3);
  props.SetInt(serving::kCacheCapacityKey, 64);
  auto opts = serving::ServiceOptions::FromProperties(props).value();
  EXPECT_EQ(opts.jobs, 3);
  EXPECT_EQ(opts.cache.capacity, 64);

  Properties bad;
  bad.SetInt(serving::kServingJobsKey, -2);
  EXPECT_FALSE(serving::ServiceOptions::FromProperties(bad).ok());
}

// --- Canonical key ---------------------------------------------------------

TEST(CanonicalKeyTest, CoversEveryEstimateRelevantField) {
  const rel::SqlOperator base = SampleJoin();
  const auto key = [](const rel::SqlOperator& op,
                      std::optional<core::ChoicePolicy> policy =
                          core::ChoicePolicy::kWorstCase,
                      bool provenance = false, bool phase = false) {
    return serving::CanonicalCacheKey("hive", op, policy, provenance, phase,
                                      /*quantize_bits=*/0);
  };
  const std::string k0 = key(base);
  EXPECT_EQ(k0, key(base));  // deterministic

  // Operator statistics that LogicalOpFeatures() carries.
  rel::SqlOperator other = base;
  other.join.output_rows += 1;
  EXPECT_NE(k0, key(other));
  // Applicability-rule flags that LogicalOpFeatures() does NOT carry.
  other = base;
  other.join.right_bucketed_on_key = true;
  EXPECT_NE(k0, key(other));
  other = base;
  other.join.is_equi_join = false;
  EXPECT_NE(k0, key(other));
  other = base;
  other.join.hot_key_fraction = 0.25;
  EXPECT_NE(k0, key(other));

  // System, policy, provenance detail, and costing phase.
  EXPECT_NE(k0, serving::CanonicalCacheKey("spark", base,
                                           core::ChoicePolicy::kWorstCase,
                                           false, false, 0));
  EXPECT_NE(k0, key(base, core::ChoicePolicy::kAverage));
  EXPECT_NE(k0, key(base, std::nullopt));
  EXPECT_NE(k0, key(base, core::ChoicePolicy::kWorstCase, true));
  EXPECT_NE(k0, key(base, core::ChoicePolicy::kWorstCase, false, true));

  // Different operator types never collide.
  EXPECT_NE(key(SampleAgg()), k0);
}

TEST(CanonicalKeyTest, QuantizationCoalescesNearbyDoubles) {
  rel::SqlOperator a = SampleJoin();
  a.join.hot_key_fraction = 0.3000000001;
  rel::SqlOperator b = SampleJoin();
  b.join.hot_key_fraction = 0.3000000002;
  const auto key = [](const rel::SqlOperator& op, int bits) {
    return serving::CanonicalCacheKey("hive", op, std::nullopt, false, false,
                                      bits);
  };
  // Exact keying (the default) distinguishes them; dropping 24 mantissa
  // bits coalesces them while still separating genuinely different values.
  EXPECT_NE(key(a, 0), key(b, 0));
  EXPECT_EQ(key(a, 24), key(b, 24));
  rel::SqlOperator c = SampleJoin();
  c.join.hot_key_fraction = 0.6;
  EXPECT_NE(key(a, 24), key(c, 24));
}

// --- EstimateCache ---------------------------------------------------------

core::HybridEstimate EstimateWithSeconds(double seconds) {
  core::HybridEstimate est;
  est.seconds = seconds;
  est.algorithm = "fake";
  return est;
}

TEST(EstimateCacheTest, ShardDistributionSpreadsRealisticKeys) {
  serving::CacheOptions opts;
  opts.shards = 8;
  serving::EstimateCache cache(opts);
  std::set<int> shards_hit;
  for (int i = 0; i < 256; ++i) {
    rel::SqlOperator op = SampleJoin();
    op.join.output_rows = 1000 + i;  // realistic near-identical workload
    std::string key = serving::CanonicalCacheKey(
        "hive", op, std::nullopt, false, false, 0);
    int shard = cache.ShardOf(key);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, opts.shards);
    EXPECT_EQ(shard, cache.ShardOf(key));  // stable routing
    shards_hit.insert(shard);
  }
  // Not a uniformity proof — just that near-identical keys do not pile
  // onto one lock.
  EXPECT_GE(shards_hit.size(), 4u);
}

TEST(EstimateCacheTest, ClockEvictsFirstUnreferencedWay) {
  serving::CacheOptions opts;
  opts.shards = 1;  // one shard of one 3-way set: eviction order is visible
  opts.capacity = 3;
  serving::EstimateCache cache(opts);
  cache.Put("a", 0, 0.0, EstimateWithSeconds(1.0));
  cache.Put("b", 0, 0.0, EstimateWithSeconds(2.0));
  cache.Put("c", 0, 0.0, EstimateWithSeconds(3.0));
  // Reference "a": the hand passes it (clearing its bit) and takes "b".
  ASSERT_TRUE(cache.Get("a", 0, 0.0).has_value());
  cache.Put("d", 0, 0.0, EstimateWithSeconds(4.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Get("b", 0, 0.0).has_value());
  EXPECT_TRUE(cache.Get("a", 0, 0.0).has_value());
  EXPECT_TRUE(cache.Get("c", 0, 0.0).has_value());
  EXPECT_TRUE(cache.Get("d", 0, 0.0).has_value());
  EXPECT_EQ(cache.Stats().evictions, 1);
}

TEST(EstimateCacheTest, ClockSweepClearsEveryBitThenEvictsAtHand) {
  serving::CacheOptions opts;
  opts.shards = 1;
  opts.capacity = 3;
  serving::EstimateCache cache(opts);
  for (const char* key : {"a", "b", "c"}) {
    cache.Put(key, 0, 0.0, EstimateWithSeconds(1.0));
  }
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_TRUE(cache.Get(key, 0, 0.0).has_value());
  }
  // Every way is referenced: one sweep clears all three bits and comes
  // back to the way at the hand ("a").
  cache.Put("d", 0, 0.0, EstimateWithSeconds(4.0));
  // The sweep left "b" unreferenced, so it is the next victim.
  cache.Put("e", 0, 0.0, EstimateWithSeconds(5.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Get("a", 0, 0.0).has_value());
  EXPECT_FALSE(cache.Get("b", 0, 0.0).has_value());
  EXPECT_TRUE(cache.Get("c", 0, 0.0).has_value());
  EXPECT_TRUE(cache.Get("d", 0, 0.0).has_value());
  EXPECT_TRUE(cache.Get("e", 0, 0.0).has_value());
  EXPECT_EQ(cache.Stats().evictions, 2);
}

TEST(EstimateCacheTest, HitRateTracksExactLru) {
  // The CLOCK table's hit rate on seeded Zipf(1.1) key streams stays within
  // one point of an exact LRU of the same total capacity.
  struct ExactLru {
    size_t capacity;
    std::list<int> order;  // front = most recently used
    std::unordered_map<int, std::list<int>::iterator> index;
    bool Access(int key) {
      auto it = index.find(key);
      if (it != index.end()) {
        order.splice(order.begin(), order, it->second);
        return true;
      }
      order.push_front(key);
      index.emplace(key, order.begin());
      if (order.size() > capacity) {
        index.erase(order.back());
        order.pop_back();
      }
      return false;
    }
  };
  constexpr int kOps = 50000;
  for (int universe : {20000, 200000}) {
    const traffic::ZipfSampler zipf(universe, 1.1);
    for (int64_t capacity : {1024, 4096, 16384}) {
      serving::CacheOptions opts;
      opts.capacity = capacity;
      serving::EstimateCache cache(opts);
      ExactLru lru{static_cast<size_t>(capacity), {}, {}};
      Rng rng(static_cast<uint64_t>(universe + capacity));
      int table_hits = 0;
      int lru_hits = 0;
      for (int i = 0; i < kOps; ++i) {
        const int k = zipf.Sample(&rng);
        const std::string key = "zipf-" + std::to_string(k);
        if (cache.Get(key, 0, 0.0).has_value()) {
          ++table_hits;
        } else {
          cache.Put(key, 0, 0.0, EstimateWithSeconds(k));
        }
        lru_hits += lru.Access(k) ? 1 : 0;
      }
      EXPECT_GE(static_cast<double>(table_hits) / kOps,
                static_cast<double>(lru_hits) / kOps - 0.01)
          << "universe " << universe << ", capacity " << capacity;
      EXPECT_LE(cache.size(), static_cast<size_t>(capacity));
    }
  }
}

TEST(EstimateCacheTest, EpochMismatchRejectsAndErases) {
  serving::CacheOptions opts;
  opts.shards = 1;
  serving::EstimateCache cache(opts);
  cache.Put("k", /*epoch=*/1, 0.0, EstimateWithSeconds(1.0));
  ASSERT_TRUE(cache.Get("k", 1, 0.0).has_value());
  // After a (simulated) retrain the epoch moved on: the entry must never
  // be returned again, in either direction of mismatch.
  EXPECT_FALSE(cache.Get("k", 2, 0.0).has_value());
  EXPECT_EQ(cache.size(), 0u);  // dead entry erased eagerly
  serving::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_epoch, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(EstimateCacheTest, TtlExpiresOnDeploymentClock) {
  serving::CacheOptions opts;
  opts.shards = 1;
  opts.ttl_seconds = 10.0;
  serving::EstimateCache cache(opts);
  cache.Put("k", 0, /*now=*/100.0, EstimateWithSeconds(1.0));
  EXPECT_TRUE(cache.Get("k", 0, 105.0).has_value());
  EXPECT_TRUE(cache.Get("k", 0, 110.0).has_value());  // exactly at the edge
  EXPECT_FALSE(cache.Get("k", 0, 110.5).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Stats().evictions, 1);
}

TEST(EstimateCacheTest, ClearDropsEveryEntryAndKeepsStats) {
  serving::CacheOptions opts;
  opts.shards = 1;
  opts.capacity = 16;  // one 16-way set
  serving::EstimateCache cache(opts);
  core::HybridEstimate provenance = EstimateWithSeconds(2.0);
  provenance.candidates.push_back({"SortMergeJoin", 2.0});
  cache.Put("out-of-line", 0, 0.0, provenance);
  const auto key = [](const char* prefix, int i) {
    return prefix + std::to_string(i);
  };
  for (int i = 0; i < 15; ++i) {
    cache.Put(key("old", i), 0, 0.0, EstimateWithSeconds(i));
  }
  ASSERT_TRUE(cache.Get(key("old", 0), 0, 0.0).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("out-of-line", 0, 0.0).has_value());
  for (int i = 0; i < 15; ++i) {
    EXPECT_FALSE(cache.Get(key("old", i), 0, 0.0).has_value());
  }
  serving::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);  // counters survive Clear
  EXPECT_EQ(stats.misses, 16);
  EXPECT_EQ(stats.locked_gets, 0);  // wiped ways read as empty
  // Every way is free again: 16 new keys fit without an eviction.
  for (int i = 0; i < 16; ++i) {
    cache.Put(key("new", i), 0, 0.0, EstimateWithSeconds(i));
  }
  for (int i = 0; i < 16; ++i) {
    auto got = cache.Get(key("new", i), 0, 0.0);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(got->seconds, static_cast<double>(i));
  }
  EXPECT_EQ(cache.Stats().evictions, 0);
  EXPECT_EQ(cache.size(), 16u);
}

TEST(EstimateCacheTest, ZeroCapacityDisablesCaching) {
  serving::CacheOptions opts;
  opts.capacity = 0;
  serving::EstimateCache cache(opts);
  cache.Put("k", 0, 0.0, EstimateWithSeconds(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("k", 0, 0.0).has_value());
}

TEST(EstimateCacheTest, CapacitySmallerThanShardsClampsToOnePerShard) {
  // A shards > capacity misconfiguration must degrade (each shard keeps at
  // least one entry), never disable caching or crash the seqlock mirror.
  serving::CacheOptions opts;
  opts.shards = 8;
  opts.capacity = 3;
  serving::EstimateCache cache(opts);
  for (int i = 0; i < 64; ++i) {
    std::string key = "key-" + std::to_string(i);
    cache.Put(key, 0, 0.0, EstimateWithSeconds(static_cast<double>(i)));
    auto got = cache.Get(key, 0, 0.0);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(got->seconds, static_cast<double>(i));
  }
  // One-entry shards: the population can never exceed the shard count.
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GE(cache.size(), 1u);
}

TEST(EstimateCacheTest, WarmHitsAreLockFree) {
  serving::CacheOptions opts;
  opts.shards = 1;
  serving::EstimateCache cache(opts);
  // A cold miss on an empty shard resolves locklessly too: no way of the
  // key's set carries its tag.
  EXPECT_FALSE(cache.Get("k", 0, 0.0).has_value());
  cache.Put("k", 0, 0.0, EstimateWithSeconds(7.0));
  for (int i = 0; i < 8; ++i) {
    auto got = cache.Get("k", 0, 0.0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->seconds, 7.0);
  }
  serving::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lockless_misses, 1);
  EXPECT_EQ(stats.lockless_hits, 8);
  EXPECT_EQ(stats.locked_gets, 0);
  EXPECT_EQ(stats.hits, 8);
  EXPECT_EQ(stats.misses, 1);
}

TEST(EstimateCacheTest, HitOverwritesEveryFieldOfTheCallersSlot) {
  // The batch path reads a hit straight into a result slot, so a hit must
  // leave nothing of what the slot held before: not a degradation reason,
  // not a candidate or elimination list. One inline and one out-of-line
  // entry are read into a slot dirtied in every field.
  serving::EstimateCache cache(serving::CacheOptions{});
  core::HybridEstimate inline_value;
  inline_value.seconds = 1.5;
  inline_value.approach_used = core::CostingApproach::kLogicalOp;
  inline_value.used_remedy = true;
  inline_value.remedy_alpha = 0.25;
  inline_value.nn_seconds = 1.25;
  inline_value.remedy_seconds = 2.25;
  core::HybridEstimate out_of_line = EstimateWithSeconds(2.5);
  out_of_line.algorithm = "shuffle_join";
  out_of_line.eliminated_count = 1;
  out_of_line.eliminated.push_back({"broadcast_join", "too large"});
  out_of_line.candidates.push_back({"shuffle_join", 2.5});
  cache.Put("inline", 0, 0.0, inline_value);
  cache.Put("out-of-line", 0, 0.0, out_of_line);
  for (const auto& [key, stored] :
       {std::pair<std::string, core::HybridEstimate>{"inline", inline_value},
        {"out-of-line", out_of_line}}) {
    SCOPED_TRACE(key);
    core::HybridEstimate slot;
    slot.seconds = 99.0;
    slot.approach_used = core::CostingApproach::kSubOp;
    slot.algorithm = "a_stale_algorithm_name";
    slot.used_remedy = !stored.used_remedy;
    slot.remedy_alpha = 0.5;
    slot.nn_seconds = 98.0;
    slot.remedy_seconds = 97.0;
    slot.fell_back_to_sub_op = true;
    slot.fell_back_reason = "breaker_open:served_stale";
    slot.eliminated_count = 7;
    slot.eliminated.push_back({"skew_join", "no skew"});
    slot.candidates.push_back({"bucket_map_join", 96.0});
    ASSERT_TRUE(cache.Get(serving::EstimateCache::KeyOf(key), 0, 0.0, &slot));
    ExpectBitIdentical(slot, stored);
    EXPECT_EQ(slot.fell_back_reason, stored.fell_back_reason);
  }
  // A miss leaves the slot alone.
  core::HybridEstimate untouched;
  untouched.seconds = 3.0;
  EXPECT_FALSE(
      cache.Get(serving::EstimateCache::KeyOf("absent"), 0, 0.0, &untouched));
  EXPECT_EQ(untouched.seconds, 3.0);
}

TEST(EstimateCacheTest, UnpackableEntryFallsBackToLockedPath) {
  // Sub-op results carrying candidate/elimination diagnostics do not fit
  // a way's fixed-width image; they must still be served (from their side
  // entry, under the shard mutex) with every field intact.
  serving::CacheOptions opts;
  opts.shards = 1;
  serving::EstimateCache cache(opts);
  core::HybridEstimate est = EstimateWithSeconds(3.5);
  est.candidates.push_back({"SortMergeJoin", 3.5});
  est.candidates.push_back({"BroadcastJoin", 9.0});
  est.eliminated.push_back({"HashJoin", "memory budget exceeded"});
  est.eliminated_count = 1;
  cache.Put("big", 0, 0.0, est);
  auto got = cache.Get("big", 0, 0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seconds, 3.5);
  ASSERT_EQ(got->candidates.size(), 2u);
  EXPECT_EQ(got->candidates[1].algorithm, "BroadcastJoin");
  ASSERT_EQ(got->eliminated.size(), 1u);
  EXPECT_EQ(got->eliminated[0].reason, "memory budget exceeded");
  serving::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.locked_gets, 1);
  EXPECT_EQ(stats.lockless_hits, 0);
  EXPECT_EQ(stats.hits, 1);
}

TEST(EstimateCacheTest, OverlongKeyFallsBackToLockedPath) {
  serving::CacheOptions opts;
  opts.shards = 1;
  serving::EstimateCache cache(opts);
  // Longer than a way's 104-byte inline key buffer.
  const std::string key(200, 'k');
  cache.Put(key, 0, 0.0, EstimateWithSeconds(2.0));
  auto got = cache.Get(key, 0, 0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seconds, 2.0);
  EXPECT_EQ(cache.Stats().locked_gets, 1);
  EXPECT_EQ(cache.Stats().lockless_hits, 0);
}

TEST(EstimateCacheTest, OutOfLineEntryLeavesOtherMissesLockFree) {
  // A capacity-16 shard is one 16-way set, so the absent key probes the
  // same set as the out-of-line entry: its tag miss is still definitive.
  serving::CacheOptions opts;
  opts.shards = 1;
  opts.capacity = 16;
  serving::EstimateCache cache(opts);
  core::HybridEstimate est = EstimateWithSeconds(3.5);
  est.candidates.push_back({"SortMergeJoin", 3.5});
  cache.Put("provenance", 0, 0.0, est);
  EXPECT_FALSE(cache.Get("absent", 0, 0.0).has_value());
  serving::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lockless_misses, 1);
  EXPECT_EQ(stats.locked_gets, 0);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EstimateCacheTest, LargeWorkingSetIsServedLockFree) {
  // 12,000 entries fill 8 shards of 65,536 ways to 18%: every key keeps a
  // way, and every hit and miss stays off the shard mutex.
  serving::CacheOptions opts;
  opts.shards = 8;
  opts.capacity = 65536;
  serving::EstimateCache cache(opts);
  constexpr int kKeys = 12000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    rel::SqlOperator op = SampleJoin(1000000 + i);
    keys.push_back(serving::CanonicalCacheKey("hive", op, std::nullopt, false,
                                              false, 0));
    cache.Put(keys.back(), 0, 0.0, EstimateWithSeconds(i));
  }
  for (int i = 0; i < kKeys; ++i) {
    auto got = cache.Get(keys[i], 0, 0.0);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(got->seconds, static_cast<double>(i));
    EXPECT_FALSE(cache.Get(keys[i] + '!', 0, 0.0).has_value());
  }
  serving::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, kKeys);
  EXPECT_EQ(stats.lockless_hits, kKeys);
  EXPECT_EQ(stats.lockless_misses, kKeys);
  EXPECT_EQ(stats.locked_gets, 0);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, kKeys);
}

TEST(EstimateCacheTest, SeqlockReaderWriterHammer) {
  // Readers race writers on 12 keys sharing one 8-way set, so writers
  // evict and rewrite ways continuously while readers snapshot them,
  // forcing version retries and reused tags. The self-consistency check
  // (seconds mirrored into nn_seconds) would catch a torn read; tsan
  // (scripts/check.sh step 3) is the memory-model oracle.
  serving::CacheOptions opts;
  opts.shards = 1;
  opts.capacity = 8;
  serving::EstimateCache cache(opts);
  constexpr int kKeys = 12;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kIters = 400;
  const auto key_of = [](int k) { return "hammer-" + std::to_string(k); };
  for (int k = 0; k < kKeys; ++k) {
    core::HybridEstimate est = EstimateWithSeconds(static_cast<double>(k));
    est.nn_seconds = est.seconds;
    cache.Put(key_of(k), 0, 0.0, est);
  }
  ThreadPool pool(kWriters + kReaders);
  std::vector<Status> outcomes = RunIndexed(
      &pool, kWriters + kReaders, [&](size_t task) -> Status {
        if (task < kWriters) {
          for (int i = 0; i < kIters; ++i) {
            const int k = (i + static_cast<int>(task)) % kKeys;
            core::HybridEstimate est =
                EstimateWithSeconds(static_cast<double>(k + kKeys * i));
            est.nn_seconds = est.seconds;
            cache.Put(key_of(k), 0, 0.0, est);
          }
          return Status::OK();
        }
        for (int i = 0; i < kIters; ++i) {
          const int k = i % kKeys;
          auto got = cache.Get(key_of(k), 0, 0.0);
          if (!got.has_value()) continue;  // evicted mid-race: fine
          if (got->seconds != got->nn_seconds) {
            return Status::Internal("torn read: seconds != nn_seconds");
          }
          // Writers only ever publish values congruent to the key index.
          const int64_t v = static_cast<int64_t>(got->seconds);
          if (v % kKeys != k) {
            return Status::Internal("read a value written for another key");
          }
        }
        return Status::OK();
      });
  for (const Status& s : outcomes) EXPECT_TRUE(s.ok()) << s.ToString();
  serving::CacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
}

// --- Prefetch hints vs the fill under the shard mutex ----------------------
//
// A lock-free miss prefetches the way its fill will most likely take, but
// Put re-derives that way under the shard mutex. In each case below the
// set changes between a Get and the Put of the same key, so a fill that
// trusted the Get's prediction would overwrite a live entry, evict a key it
// should keep, miscount the entries or leave the key in two ways.

/// One shard of one 4-way set: every key lands in the same set.
serving::EstimateCache OneFourWaySet() {
  serving::CacheOptions opts;
  opts.shards = 1;
  opts.capacity = 4;
  return serving::EstimateCache(opts);
}

void ExpectCounts(const serving::EstimateCache& cache, int64_t hits,
                  int64_t misses, int64_t evictions, int64_t entries) {
  const serving::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.evictions, evictions);
  EXPECT_EQ(stats.entries, entries);
  EXPECT_LE(stats.entries, cache.options().capacity);
}

void ExpectServes(serving::EstimateCache& cache, const std::string& key,
                  uint64_t epoch, double seconds) {
  auto got = cache.Get(key, epoch, 0.0);
  ASSERT_TRUE(got.has_value()) << key;
  EXPECT_EQ(got->seconds, seconds) << key;
}

/// Every key sits in at most one way, and the cache holds no entry beyond
/// `keys`: at an epoch no entry carries, a first probe of a key retires its
/// only copy, so a second probe finds nothing (a second copy would count a
/// second stale_epoch). Empties the cache.
void ExpectOneWayEachAndNothingElse(serving::EstimateCache& cache,
                                    const std::vector<std::string>& keys,
                                    uint64_t fresh_epoch) {
  for (const std::string& key : keys) {
    const int64_t stale_before = cache.Stats().stale_epoch;
    EXPECT_FALSE(cache.Get(key, fresh_epoch, 0.0).has_value());
    EXPECT_FALSE(cache.Get(key, fresh_epoch, 0.0).has_value());
    EXPECT_EQ(cache.Stats().stale_epoch - stale_before, 1) << key;
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EstimateCacheFillTest, AnotherKeyFilledThePredictedWay) {
  serving::EstimateCache cache = OneFourWaySet();
  // The first insert publishes the set (a miss on an unpublished set
  // predicts nothing) and takes way 0.
  cache.Put("k0", 0, 0.0, EstimateWithSeconds(0.0));
  const auto a = serving::EstimateCache::KeyOf("a");
  EXPECT_FALSE(cache.Get(a, 0, 0.0).has_value());  // predicts way 1
  cache.Put("b", 0, 0.0, EstimateWithSeconds(2.0));  // takes way 1
  cache.Put(a, 0, 0.0, EstimateWithSeconds(1.0));
  ExpectServes(cache, "a", 0, 1.0);
  ExpectServes(cache, "b", 0, 2.0);
  ExpectServes(cache, "k0", 0, 0.0);
  ExpectCounts(cache, /*hits=*/3, /*misses=*/1, /*evictions=*/0,
               /*entries=*/3);
  ExpectOneWayEachAndNothingElse(cache, {"a", "b", "k0"}, 1);
}

TEST(EstimateCacheFillTest, HandMovedPastThePredictedVictim) {
  serving::EstimateCache cache = OneFourWaySet();
  for (const char* key : {"k0", "k1", "k2", "k3"}) {
    cache.Put(key, 0, 0.0, EstimateWithSeconds(0.0));
  }
  const auto a = serving::EstimateCache::KeyOf("a");
  EXPECT_FALSE(cache.Get(a, 0, 0.0).has_value());  // predicts the hand, k0
  cache.Put("x", 0, 0.0, EstimateWithSeconds(9.0));  // evicts k0 first
  cache.Put(a, 0, 0.0, EstimateWithSeconds(1.0));    // so a evicts k1
  ExpectServes(cache, "a", 0, 1.0);
  ExpectServes(cache, "x", 0, 9.0);
  ExpectServes(cache, "k2", 0, 0.0);
  ExpectServes(cache, "k3", 0, 0.0);
  EXPECT_FALSE(cache.Get("k0", 0, 0.0).has_value());
  EXPECT_FALSE(cache.Get("k1", 0, 0.0).has_value());
  ExpectCounts(cache, /*hits=*/4, /*misses=*/3, /*evictions=*/2,
               /*entries=*/4);
  ExpectOneWayEachAndNothingElse(cache, {"a", "x", "k2", "k3"}, 1);
}

TEST(EstimateCacheFillTest, ClearRanBetweenProbeAndFill) {
  serving::EstimateCache cache = OneFourWaySet();
  cache.Put("k0", 0, 0.0, EstimateWithSeconds(0.0));
  cache.Put("k1", 0, 0.0, EstimateWithSeconds(0.0));
  const auto a = serving::EstimateCache::KeyOf("a");
  EXPECT_FALSE(cache.Get(a, 0, 0.0).has_value());  // predicts way 2
  cache.Clear();
  for (const char* key : {"b", "c", "d"}) {  // ways 0, 1 and 2
    cache.Put(key, 0, 0.0, EstimateWithSeconds(2.0));
  }
  cache.Put(a, 0, 0.0, EstimateWithSeconds(1.0));  // the last free way
  ExpectServes(cache, "a", 0, 1.0);
  for (const char* key : {"b", "c", "d"}) ExpectServes(cache, key, 0, 2.0);
  EXPECT_FALSE(cache.Get("k0", 0, 0.0).has_value());
  EXPECT_FALSE(cache.Get("k1", 0, 0.0).has_value());
  ExpectCounts(cache, /*hits=*/4, /*misses=*/3, /*evictions=*/0,
               /*entries=*/4);
  ExpectOneWayEachAndNothingElse(cache, {"a", "b", "c", "d"}, 1);
}

TEST(EstimateCacheFillTest, KeyRefreshedElsewhereAfterEpochBump) {
  // Caller A misses k at epoch 1 while way 1 is free. Before A fills, b
  // takes way 1, caller B fills k into way 2 and, after an epoch bump,
  // refreshes it there. A's fill must refresh k in way 2 too.
  serving::EstimateCache cache = OneFourWaySet();
  cache.Put("a", 1, 0.0, EstimateWithSeconds(1.0));  // way 0
  const auto k = serving::EstimateCache::KeyOf("k");
  EXPECT_FALSE(cache.Get(k, 1, 0.0).has_value());  // A: predicts way 1
  cache.Put("b", 1, 0.0, EstimateWithSeconds(2.0));  // way 1
  cache.Put("k", 1, 0.0, EstimateWithSeconds(3.0));  // B: way 2
  cache.Put("k", 2, 0.0, EstimateWithSeconds(4.0));  // B: refresh in place
  cache.Put(k, 2, 0.0, EstimateWithSeconds(5.0));    // A
  ExpectServes(cache, "k", 2, 5.0);
  ExpectServes(cache, "a", 1, 1.0);
  ExpectServes(cache, "b", 1, 2.0);
  ExpectCounts(cache, /*hits=*/3, /*misses=*/1, /*evictions=*/0,
               /*entries=*/3);
  ExpectOneWayEachAndNothingElse(cache, {"a", "b", "k"}, 3);
}

// --- EstimationService -----------------------------------------------------

class EstimationServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hive_ = remote::HiveEngine::CreateDefault("hive", 171);
    ASSERT_TRUE(
        estimator_
            .RegisterSystem("hive", core::CostingProfile::SubOpOnly(
                                        MakeSubOpEstimator(hive_.get())))
            .ok());
  }

  serving::EstimateRequest Request(const rel::SqlOperator& op,
                                   double now = 0.0) const {
    serving::EstimateRequest req;
    req.system = "hive";
    req.op = op;
    req.now = now;
    return req;
  }

  std::unique_ptr<remote::HiveEngine> hive_;
  core::CostEstimator estimator_;
};

TEST_F(EstimationServiceTest, CachedResultIsBitIdenticalToUncached) {
  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator_, opts);
  const serving::EstimateRequest req = Request(SampleJoin());

  auto miss = service.Estimate(req).value();
  auto direct = estimator_.Estimate("hive", req.op).value();
  auto hit = service.Estimate(req).value();
  ExpectBitIdentical(miss, direct);
  ExpectBitIdentical(hit, direct);

  serving::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST_F(EstimationServiceTest, CountersFlowIntoContextRegistry) {
  // Two tracked breakers, one of them open.
  remote::HealthRegistry health(remote::BreakerOptions{1, 1e9, 1});
  EXPECT_TRUE(health.breaker("down").RecordFailure(0.0));
  (void)health.breaker("spark");
  serving::ServiceOptions opts;
  opts.jobs = 1;
  opts.cache.ttl_seconds = 30.0;
  opts.health = &health;
  serving::EstimationService service(&estimator_, opts);
  MetricsRegistry registry;
  core::EstimateContext ctx;
  ctx.metrics = &registry;
  const serving::EstimateRequest req = Request(SampleJoin());
  ASSERT_TRUE(service.Estimate(req, ctx).ok());
  ASSERT_TRUE(service.Estimate(req, ctx).ok());
  // The context registry gets the estimator's counters: the hit skipped
  // the estimator entirely.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.sub_op")->value, 1.0);
  // The cache counts its own events once; none of them reach a registry.
  for (const MetricSample& sample : snap.samples) {
    EXPECT_NE(sample.name.rfind("serving.cache.", 0), 0u) << sample.name;
  }

  // StatsSnapshot exports the cache's counts in the BENCH metric shape.
  MetricsSnapshot served = service.StatsSnapshot();
  EXPECT_DOUBLE_EQ(served.Find("serving.cache.hits")->value, 1.0);
  EXPECT_DOUBLE_EQ(served.Find("serving.cache.misses")->value, 1.0);
  EXPECT_DOUBLE_EQ(served.Find("serving.cache.hit_rate")->value, 0.5);
  // Beside them: the model epoch, the configuration and the breakers.
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, double>>{
           {"serving.model_epoch", estimator_.model_epoch()},
           {"serving.jobs", 1.0},
           {"serving.cache.shards", opts.cache.shards},
           {"serving.cache.capacity", opts.cache.capacity},
           {"serving.cache.quantize_bits", opts.cache.quantize_bits},
           {"serving.cache.ttl_seconds", 30.0},
           {"serving.health.tracked", 2.0},
           {"serving.health.open", 1.0}}) {
    const MetricSample* sample = served.Find(name);
    ASSERT_NE(sample, nullptr) << name;
    EXPECT_DOUBLE_EQ(sample->value, value) << name;
  }
}

TEST_F(EstimationServiceTest, BatchDeduplicatesIdenticalKeys) {
  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator_, opts);
  MetricsRegistry registry;
  CollectingTraceSink sink;
  core::EstimateContext ctx;
  ctx.metrics = &registry;
  ctx.trace = &sink;

  std::vector<serving::EstimateRequest> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(Request(SampleJoin()));
  batch.push_back(Request(SampleJoin(2000000)));
  batch.push_back(Request(SampleAgg()));

  auto results = service.EstimateBatch(batch, ctx);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  for (int i = 1; i < 8; ++i) {
    ExpectBitIdentical(results[0].value(), results[i].value());
  }

  // 10 requests, 3 distinct keys: the estimator ran exactly 3 times, and
  // the cache was probed once per distinct key (duplicates never probe).
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.sub_op")->value, 3.0);
  EXPECT_EQ(service.cache_stats().misses, 3);

  // The serving.batch span reports the dedup arithmetic.
  bool saw_batch = false;
  for (const auto& span : sink.spans()) {
    if (span.name != "serving.batch") continue;
    saw_batch = true;
    EXPECT_EQ(span.FindAttribute("size")->int_value, 10);
    EXPECT_EQ(span.FindAttribute("hits")->int_value, 0);
    EXPECT_EQ(span.FindAttribute("misses")->int_value, 10);
    EXPECT_EQ(span.FindAttribute("unique_misses")->int_value, 3);
    EXPECT_EQ(span.FindAttribute("deduped")->int_value, 7);
  }
  EXPECT_TRUE(saw_batch);
}

TEST_F(EstimationServiceTest, WarmBatchServesFromCacheInRequestOrder) {
  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator_, opts);
  std::vector<serving::EstimateRequest> batch = {
      Request(SampleJoin()), Request(SampleAgg()),
      Request(SampleJoin(2000000))};
  auto cold = service.EstimateBatch(batch);
  auto warm = service.EstimateBatch(batch);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    ASSERT_TRUE(cold[i].ok());
    ASSERT_TRUE(warm[i].ok());
    ExpectBitIdentical(cold[i].value(), warm[i].value());
  }
  serving::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 3);
}

TEST_F(EstimationServiceTest, BatchReportsPerRequestErrors) {
  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator_, opts);
  std::vector<serving::EstimateRequest> batch = {Request(SampleJoin())};
  serving::EstimateRequest unknown = Request(SampleJoin());
  unknown.system = "nope";
  batch.push_back(unknown);
  auto results = service.EstimateBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
}

TEST_F(EstimationServiceTest, PolicyOverridesGetDistinctEntries) {
  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator_, opts);
  serving::EstimateRequest worst = Request(SampleJoin());
  worst.policy_override = core::ChoicePolicy::kWorstCase;
  serving::EstimateRequest average = Request(SampleJoin());
  average.policy_override = core::ChoicePolicy::kAverage;

  auto w = service.Estimate(worst).value();
  auto a = service.Estimate(average).value();
  // Both policies now answer from their own cache entries.
  ExpectBitIdentical(service.Estimate(worst).value(), w);
  ExpectBitIdentical(service.Estimate(average).value(), a);
  serving::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 2);

  core::EstimateContext avg_ctx;
  avg_ctx.policy_override = core::ChoicePolicy::kAverage;
  ExpectBitIdentical(
      estimator_.Estimate("hive", worst.op, avg_ctx).value(), a);
}

TEST_F(EstimationServiceTest, EpochBumpAfterOfflineTuneAllRejectsStale) {
  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator_, opts);
  const serving::EstimateRequest req = Request(SampleJoin());
  ASSERT_TRUE(service.Estimate(req).ok());
  ASSERT_EQ(service.cache_stats().entries, 1);

  const uint64_t before = estimator_.model_epoch();
  ASSERT_TRUE(estimator_.OfflineTuneAll(1).ok());
  EXPECT_GT(estimator_.model_epoch(), before);

  // The warm entry must be rejected (stale epoch), recomputed, and the
  // recomputation must equal a direct uncached call.
  auto recomputed = service.Estimate(req).value();
  ExpectBitIdentical(recomputed, estimator_.Estimate("hive", req.op).value());
  serving::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.stale_epoch, 1);
  EXPECT_EQ(stats.hits, 0);
}

TEST(ServingRetrainTest, NoPreRetrainEstimateServedAfterRetrain) {
  // End-to-end invalidation through a model that actually changes: train a
  // logical-op model, serve (and cache) an estimate, feed it corrective
  // actuals, retrain, and verify the service returns the *post-retrain*
  // number, bit-identical to an uncached call — never the cached
  // pre-retrain one.
  auto hive = remote::HiveEngine::CreateDefault("hive", 172);
  core::CostEstimator estimator;
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive.get()));
  ASSERT_TRUE(
      estimator
          .RegisterSystem("ml", core::CostingProfile::LogicalOpOnly(
                                    std::move(models)))
          .ok());
  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator, opts);

  serving::EstimateRequest req;
  req.system = "ml";
  req.op = SampleAgg();
  const double pre = service.Estimate(req).value().seconds;

  // Log actuals far outside the training range, then retrain.
  for (int i = 0; i < 6; ++i) {
    rel::SqlOperator op = SampleAgg(400000 + i * 1000);
    ASSERT_TRUE(
        estimator.LogActual("ml", op, pre * 10.0 + i).ok());
  }
  ASSERT_TRUE(estimator.OfflineTune("ml").ok());

  auto post = service.Estimate(req).value();
  ExpectBitIdentical(post, estimator.Estimate("ml", req.op).value());
  EXPECT_GE(service.cache_stats().stale_epoch, 1);
  // The retrain moved the model, so serving the stale entry would have
  // returned a different number.
  EXPECT_NE(post.seconds, pre);
}

// --- Federation attach -----------------------------------------------------

core::CostingProfile ProfileFor(remote::HiveEngine* hive) {
  return core::CostingProfile::SubOpOnly(MakeSubOpEstimator(hive));
}

void ExpectSamePlan(const fed::QueryPlan& a, const fed::QueryPlan& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const fed::QueryPlanNode& x =
        a.nodes[static_cast<size_t>(a.candidates[i].root)];
    const fed::QueryPlanNode& y =
        b.nodes[static_cast<size_t>(b.candidates[i].root)];
    EXPECT_EQ(x.system, y.system);
    EXPECT_EQ(x.transfer_seconds, y.transfer_seconds);
    EXPECT_EQ(x.operator_seconds, y.operator_seconds);
    EXPECT_EQ(x.approach, y.approach);
    EXPECT_EQ(x.algorithm, y.algorithm);
    ASSERT_EQ(x.algorithm_candidates.size(), y.algorithm_candidates.size());
    ASSERT_EQ(x.eliminated_algorithms.size(), y.eliminated_algorithms.size());
  }
  ASSERT_EQ(a.pruned.size(), b.pruned.size());
}

/// Joins the big hive table with the small Teradata one, with provenance.
fed::QueryPlan PlanJoinWithProvenance(const fed::IntelliSphere& sphere) {
  fed::QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, 32}, {"T100000_100", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 1.0}};
  core::EstimateContext ctx;
  ctx.detail = core::EstimateDetail::kProvenance;
  return sphere.PlanQuery(spec, ctx).value();
}

TEST(ServingFederationTest, AttachedServiceKeepsPlansBitIdentical) {
  fed::IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 173);
  auto* hive_raw = hive.get();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(std::move(hive), ProfileFor(hive_raw),
                                        fed::ConnectorParams{})
                  .ok());
  auto big = rel::SyntheticTableDef(8000000, 250).value();
  big.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(big).ok());
  auto small = rel::SyntheticTableDef(100000, 100).value();
  small.location = fed::kTeradataSystemName;
  ASSERT_TRUE(sphere.RegisterTable(small).ok());

  const fed::QueryPlan uncached = PlanJoinWithProvenance(sphere);

  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&sphere.cost_estimator(), opts);
  ASSERT_TRUE(sphere.AttachEstimationService(&service).ok());

  const fed::QueryPlan cold = PlanJoinWithProvenance(sphere);
  const fed::QueryPlan warm = PlanJoinWithProvenance(sphere);
  ExpectSamePlan(uncached, cold);
  ExpectSamePlan(uncached, warm);
  // The second planning round answered the remote estimate from the cache.
  serving::CacheStats stats = service.cache_stats();
  EXPECT_GE(stats.hits, 1);

  // Detach restores the direct path.
  ASSERT_TRUE(sphere.AttachEstimationService(nullptr).ok());
  const fed::QueryPlan detached = PlanJoinWithProvenance(sphere);
  ExpectSamePlan(uncached, detached);
}

TEST(ServingFederationTest, AttachRejectsForeignEstimator) {
  fed::IntelliSphere sphere;
  core::CostEstimator other;
  serving::EstimationService service(&other);
  EXPECT_EQ(sphere.AttachEstimationService(&service).code(),
            StatusCode::kInvalidArgument);
}

// --- Concurrency hammer (tsan target) --------------------------------------

// --- Batched GEMM inference (DESIGN.md §14) --------------------------------

TEST(ServingBatchedInferenceTest, MixedModelBatchBitIdenticalToScalar) {
  // A cold batch mixing join and agg requests (with duplicates) exercises
  // the full batched pipeline: probe-once dedup, one estimator batch that
  // runs one fused GEMM forward pass per operator model, and request-order
  // fan-out. Every answer must be bit-identical to the scalar path.
  auto hive = remote::HiveEngine::CreateDefault("hive", 353);
  core::CostEstimator estimator;
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kJoin, MakeJoinModel(hive.get()));
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive.get()));
  ASSERT_TRUE(estimator
                  .RegisterSystem("hive", core::CostingProfile::LogicalOpOnly(
                                              std::move(models)))
                  .ok());

  serving::ServiceOptions opts;
  opts.jobs = 1;
  serving::EstimationService service(&estimator, opts);

  std::vector<serving::EstimateRequest> requests;
  for (int i = 0; i < 6; ++i) {
    serving::EstimateRequest join;
    join.system = "hive";
    join.op = SampleJoin(1000000 + i * 500000);
    serving::EstimateRequest agg;
    agg.system = "hive";
    agg.op = SampleAgg(200000 + i * 100000);
    // Interleave and duplicate so model groups are discontiguous in
    // request order and the dedup path carries real traffic.
    requests.push_back(join);
    requests.push_back(agg);
    requests.push_back(join);
  }

  MetricsRegistry registry;
  core::EstimateContext ctx;
  ctx.metrics = &registry;
  const auto estimate_counters = [&registry] {
    std::map<std::string, double> counters;
    for (const MetricSample& sample : registry.Snapshot().samples) {
      if (sample.name.rfind("estimate.", 0) == 0) {
        counters[sample.name] = sample.value;
      }
    }
    return counters;
  };

  auto batched = service.EstimateBatch(requests, ctx);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    auto scalar =
        estimator.Estimate(requests[i].system, requests[i].op).value();
    EXPECT_EQ(batched[i].value().approach_used,
              core::CostingApproach::kLogicalOp);
    ExpectBitIdentical(batched[i].value(), scalar);
  }
  // 12 distinct keys probed once each; the 6 duplicate joins rode their
  // groups without a probe.
  serving::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 12);
  EXPECT_EQ(stats.hits, 0);
  const std::map<std::string, double> cold_counters = estimate_counters();
  ASSERT_EQ(cold_counters.count("estimate.approach.logical_op"), 1u);
  EXPECT_EQ(cold_counters.at("estimate.approach.logical_op"), 12.0);

  // A warm repeat of the same batch, duplicates included, answers entirely
  // from the cache: bit-identical to the scalar path, no estimator work
  // (the estimate.* counters stay put) and one hit per distinct key.
  auto warm = service.EstimateBatch(requests, ctx);
  ASSERT_EQ(warm.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(warm[i].ok());
    auto scalar =
        estimator.Estimate(requests[i].system, requests[i].op).value();
    ExpectBitIdentical(warm[i].value(), scalar);
  }
  EXPECT_EQ(estimate_counters(), cold_counters);
  EXPECT_EQ(service.cache_stats().hits, 12);
  EXPECT_EQ(service.cache_stats().misses, 12);
}

/// A batched answer equals the scalar one: bit-identical (fallback reason
/// included) on success, the same code and message on error.
void ExpectSameAnswer(const Result<core::HybridEstimate>& batched,
                      const Result<core::HybridEstimate>& scalar) {
  ASSERT_EQ(batched.ok(), scalar.ok())
      << batched.status().ToString() << " vs " << scalar.status().ToString();
  if (!scalar.ok()) {
    EXPECT_EQ(batched.status().code(), scalar.status().code());
    EXPECT_EQ(batched.status().message(), scalar.status().message());
    return;
  }
  ExpectBitIdentical(batched.value(), scalar.value());
  EXPECT_EQ(batched.value().fell_back_reason, scalar.value().fell_back_reason);
}

TEST(ServingBatchedInferenceTest, GeneratedBatchesMatchScalarEstimate) {
  // One system per way a row can be lowered: "mlp" serves joins and
  // aggregations from MLPs (LogicalOpOnly), "openbox" is sub-op only,
  // "mixed" routes aggregations to an MLP and joins to sub-op
  // (PerOperator), "down" is an MLP system whose breaker is open, and
  // "ghost" is not registered.
  auto hive = remote::HiveEngine::CreateDefault("hive", 356);
  const core::LogicalOpModel join_model = MakeJoinModel(hive.get());
  const core::LogicalOpModel agg_model = MakeAggModel(hive.get());
  constexpr rel::OperatorType kJoin = rel::OperatorType::kJoin;
  constexpr rel::OperatorType kAgg = rel::OperatorType::kAggregation;
  core::CostEstimator estimator;
  ASSERT_TRUE(estimator
                  .RegisterSystem("mlp", core::CostingProfile::LogicalOpOnly(
                                             {{kJoin, join_model},
                                              {kAgg, agg_model}}))
                  .ok());
  ASSERT_TRUE(estimator
                  .RegisterSystem("openbox",
                                  core::CostingProfile::SubOpOnly(
                                      MakeSubOpEstimator(hive.get())))
                  .ok());
  auto mixed = core::CostingProfile::PerOperator(
      MakeSubOpEstimator(hive.get()), {{kAgg, agg_model}},
      {{kAgg, core::CostingApproach::kLogicalOp}});
  ASSERT_TRUE(mixed.ok());
  ASSERT_TRUE(estimator.RegisterSystem("mixed", std::move(mixed).value()).ok());
  ASSERT_TRUE(estimator
                  .RegisterSystem("down", core::CostingProfile::LogicalOpOnly(
                                              {{kAgg, agg_model}}))
                  .ok());
  remote::HealthRegistry health(remote::BreakerOptions{1, 1e9, 1});
  EXPECT_TRUE(health.breaker("down").RecordFailure(0.0));

  // Seeded batches over a small operator pool, so systems mix and keys
  // repeat within a batch. Every third batch asks for provenance, every
  // fourth has a deadline that its later rows are past, and every fifth
  // row overrides the choice policy.
  const std::vector<std::string> systems = {"mlp", "openbox", "mixed",
                                            "down", "ghost"};
  std::vector<rel::SqlOperator> ops;
  for (int k = 0; k < 4; ++k) {
    ops.push_back(SampleJoin(1000000 + k * 700000));
    ops.push_back(SampleAgg(150000 + k * 250000));
  }
  struct Batch {
    core::EstimateContext ctx;
    std::vector<serving::EstimateRequest> requests;
  };
  Rng rng(20);
  std::vector<Batch> batches(24);
  for (size_t b = 0; b < batches.size(); ++b) {
    Batch& batch = batches[b];
    if (b % 3 == 0) batch.ctx.detail = core::EstimateDetail::kProvenance;
    if (b % 4 == 1) batch.ctx.deadline_seconds = 5.0;
    const int64_t size = rng.UniformInt(1, 24);
    for (int64_t r = 0; r < size; ++r) {
      serving::EstimateRequest request;
      request.system = systems[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(systems.size()) - 1))];
      request.op = ops[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ops.size()) - 1))];
      request.now = static_cast<double>(rng.UniformInt(0, 9));
      if (r % 5 == 4) request.policy_override = core::ChoicePolicy::kWorstCase;
      batch.requests.push_back(std::move(request));
    }
  }
  // The scalar estimator context of one request, as the service builds it.
  const auto scalar_ctx = [&health](const serving::EstimateRequest& request,
                                    const core::EstimateContext& ctx) {
    core::EstimateContext at = ctx;
    at.now = request.now;
    at.health = &health;
    if (request.policy_override) at.policy_override = request.policy_override;
    return at;
  };

  // The estimator batch itself, on every row (it has no deadline gate).
  std::map<std::string, int> seen;
  for (const Batch& batch : batches) {
    std::vector<core::EstimateContext> ctxs;
    ctxs.reserve(batch.requests.size());
    std::vector<core::EstimateRow> rows;
    for (const serving::EstimateRequest& request : batch.requests) {
      ctxs.push_back(scalar_ctx(request, batch.ctx));
      rows.push_back({&request.system, &request.op, &ctxs.back()});
    }
    const std::vector<Result<core::HybridEstimate>> batched =
        estimator.EstimateBatch(rows);
    ASSERT_EQ(batched.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const Result<core::HybridEstimate> scalar =
          estimator.Estimate(*rows[i].system, *rows[i].op, *rows[i].ctx);
      ExpectSameAnswer(batched[i], scalar);
      if (!scalar.ok()) {
        ++seen[StatusCodeName(scalar.status().code())];
      } else if (!scalar.value().fell_back_reason.empty()) {
        ++seen[scalar.value().fell_back_reason];
      } else {
        ++seen[core::CostingApproachName(scalar.value().approach_used)];
      }
    }
  }
  // The generator reaches every lowering: both approaches, the breaker
  // ladder, and per-row errors from unknown systems and missing models.
  EXPECT_GT(seen["logical_op"], 0);
  EXPECT_GT(seen["sub_op"], 0);
  EXPECT_GT(seen["breaker_open:stale_model"], 0);
  EXPECT_GT(seen[StatusCodeName(StatusCode::kNotFound)], 5);

  // Last-known-good refreshes follow row order within each profile. On
  // "flaky", whose breaker closes at now = 5, a degraded row serves what
  // the latest earlier full-fidelity row of its operator type left; twin
  // estimators, one batched and one scalar, must agree row for row.
  core::CostEstimator batched_twin;
  core::CostEstimator scalar_twin;
  for (core::CostEstimator* twin : {&batched_twin, &scalar_twin}) {
    ASSERT_TRUE(twin->RegisterSystem("flaky",
                                     core::CostingProfile::LogicalOpOnly(
                                         {{kAgg, agg_model}}))
                    .ok());
    ASSERT_TRUE(twin->RegisterSystem(
                        "mlp", core::CostingProfile::LogicalOpOnly(
                                   {{kJoin, join_model}, {kAgg, agg_model}}))
                    .ok());
  }
  remote::HealthRegistry flaky_health(remote::BreakerOptions{1, 5.0, 1});
  EXPECT_TRUE(flaky_health.breaker("flaky").RecordFailure(0.0));
  const std::vector<std::string> twin_systems = {"flaky", "mlp"};
  for (const Batch& batch : batches) {
    std::vector<core::EstimateContext> ctxs;
    ctxs.reserve(batch.requests.size());
    std::vector<core::EstimateRow> rows;
    for (size_t i = 0; i < batch.requests.size(); ++i) {
      ctxs.push_back(scalar_ctx(batch.requests[i], batch.ctx));
      ctxs.back().health = &flaky_health;
      rows.push_back({&twin_systems[i % 2], &batch.requests[i].op,
                      &ctxs.back()});
    }
    const std::vector<Result<core::HybridEstimate>> batched =
        batched_twin.EstimateBatch(rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Result<core::HybridEstimate> scalar =
          scalar_twin.Estimate(*rows[i].system, *rows[i].op, *rows[i].ctx);
      ExpectSameAnswer(batched[i], scalar);
      if (scalar.ok()) ++seen[scalar.value().fell_back_reason];
    }
  }
  EXPECT_GT(seen["breaker_open:last_known_good"], 0);

  // The service's batch path, inline and on a 3-worker pool: cold and warm
  // slots alike equal the scalar estimate, and rows past their deadline
  // get the scalar path's DeadlineExceeded. The third service has two
  // shards of one 16-way set each, so a batch's fills land in the ways its
  // own earlier fills were predicted to take, and evict each other.
  struct ServiceCase {
    int jobs;
    int shards;
    int64_t capacity;
  };
  const serving::CacheOptions dflt;
  for (const ServiceCase& c : {ServiceCase{1, dflt.shards, dflt.capacity},
                               ServiceCase{3, dflt.shards, dflt.capacity},
                               ServiceCase{1, 2, 32}}) {
    SCOPED_TRACE(testing::Message() << "jobs " << c.jobs << ", capacity "
                                    << c.capacity);
    serving::ServiceOptions opts;
    opts.jobs = c.jobs;
    opts.cache.shards = c.shards;
    opts.cache.capacity = c.capacity;
    opts.health = &health;
    serving::EstimationService service(&estimator, opts);
    int expired = 0;
    for (const Batch& batch : batches) {
      const std::vector<Result<core::HybridEstimate>> batched =
          service.EstimateBatch(batch.requests, batch.ctx);
      ASSERT_EQ(batched.size(), batch.requests.size());
      EXPECT_LE(service.cache_stats().entries, c.capacity);
      for (size_t i = 0; i < batched.size(); ++i) {
        const serving::EstimateRequest& request = batch.requests[i];
        if (batch.ctx.DeadlineExpiredAt(request.now)) {
          ++expired;
          ExpectSameAnswer(batched[i], service.Estimate(request, batch.ctx));
          EXPECT_EQ(batched[i].status().code(),
                    StatusCode::kDeadlineExceeded);
          continue;
        }
        ExpectSameAnswer(batched[i],
                         estimator.Estimate(request.system, request.op,
                                            scalar_ctx(request, batch.ctx)));
      }
    }
    EXPECT_GT(expired, 0);
    const serving::CacheStats stats = service.cache_stats();
    EXPECT_GT(stats.hits, 0);
    if (c.capacity == 32) {
      // The small table really is contended, and its entries stay exact:
      // once full, each fill replaces exactly one entry.
      EXPECT_GT(stats.evictions, 0);
      EXPECT_EQ(stats.entries, c.capacity);
    }
  }

  // Answer slots on a pre-warmed cache. One provenance batch mixes every
  // way a slot is answered, each asked twice or three times: inline hits
  // ("mlp": an MLP answer has no lists to keep out of line), out-of-line
  // hits ("openbox": a provenance sub-op answer lists its candidates),
  // stale-served hits ("mixed", whose breaker opened after its entries
  // were cached and whose entries are TTL-expired at now = 20), misses and
  // keyless requests ("ghost"). Every slot must equal the scalar Estimate
  // of a twin service warmed the same way. A duplicate that copied its
  // group's slot before the group's miss was computed would read an empty
  // estimate.
  core::EstimateContext provenance;
  provenance.detail = core::EstimateDetail::kProvenance;
  const auto request = [](const std::string& system,
                          const rel::SqlOperator& op, double now) {
    serving::EstimateRequest r;
    r.system = system;
    r.op = op;
    r.now = now;
    return r;
  };
  const std::vector<serving::EstimateRequest> warm = {
      request("mlp", ops[0], 0.0),     request("mlp", ops[1], 0.0),
      request("openbox", ops[0], 0.0), request("openbox", ops[1], 0.0),
      request("mixed", ops[2], 0.0),   request("mixed", ops[3], 0.0)};
  std::vector<serving::EstimateRequest> mixed_batch;
  for (int copies = 0; copies < 3; ++copies) {
    // Inline hits, out-of-line hits, stale-served hits, misses, keyless.
    for (const serving::EstimateRequest& r :
         {request("mlp", ops[0], 5.0), request("mlp", ops[1], 5.0),
          request("openbox", ops[0], 5.0), request("openbox", ops[1], 5.0),
          request("mixed", ops[2], 20.0), request("mixed", ops[3], 20.0),
          request("openbox", ops[4], 5.0), request("mlp", ops[5], 5.0),
          request("ghost", ops[0], 5.0)}) {
      if (copies < 2 || r.system != "ghost") mixed_batch.push_back(r);
    }
  }
  {
    std::vector<serving::EstimateRequest> shuffled;
    for (size_t i : rng.Permutation(mixed_batch.size())) {
      shuffled.push_back(mixed_batch[i]);
    }
    mixed_batch = std::move(shuffled);
  }
  for (int jobs : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "pre-warmed, jobs " << jobs);
    remote::HealthRegistry warm_health(remote::BreakerOptions{1, 1e9, 1});
    serving::ServiceOptions opts;
    opts.jobs = jobs;
    opts.cache.ttl_seconds = 10.0;
    opts.health = &warm_health;
    serving::EstimationService batched_service(&estimator, opts);
    serving::EstimationService scalar_service(&estimator, opts);
    for (const serving::EstimateRequest& r : warm) {
      for (const serving::EstimationService* service :
           {&batched_service, &scalar_service}) {
        const Result<core::HybridEstimate> est =
            service->Estimate(r, provenance);
        ASSERT_TRUE(est.ok()) << est.status();
        ASSERT_TRUE(est.value().fell_back_reason.empty());
      }
    }
    EXPECT_TRUE(warm_health.breaker("mixed").RecordFailure(0.0));
    const serving::CacheStats before = batched_service.cache_stats();
    const std::vector<Result<core::HybridEstimate>> batched =
        batched_service.EstimateBatch(mixed_batch, provenance);
    ASSERT_EQ(batched.size(), mixed_batch.size());
    int served_stale = 0;
    for (size_t i = 0; i < batched.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "slot " << i << ": "
                                      << mixed_batch[i].system);
      ExpectSameAnswer(batched[i],
                       scalar_service.Estimate(mixed_batch[i], provenance));
      served_stale += batched[i].ok() &&
                      batched[i].value().fell_back_reason ==
                          "breaker_open:served_stale";
    }
    EXPECT_EQ(served_stale, 6);
    // One probe per distinct key: two inline hits, four locked hits (two
    // out of line, two stale-served) and two misses; duplicates and the
    // keyless request probe nothing.
    const serving::CacheStats after = batched_service.cache_stats();
    EXPECT_EQ(after.lockless_hits - before.lockless_hits, 2);
    EXPECT_EQ(after.hits - before.hits, 6);
    EXPECT_EQ(after.locked_gets - before.locked_gets, 4);
    EXPECT_EQ(after.stale_served - before.stale_served, 2);
    EXPECT_EQ(after.misses - before.misses, 2);
  }
}

TEST_F(EstimationServiceTest, ConcurrentHammerOnSharedService) {
  // Shared service hammered from pool workers: single estimates, batches
  // with duplicates, and stats reads, all racing on the same shards. Run
  // under tsan by scripts/check.sh; assertions here are sanity, the tool
  // is the oracle.
  serving::ServiceOptions opts;
  opts.jobs = 2;
  opts.cache.shards = 4;
  opts.cache.capacity = 64;  // small enough to force concurrent evictions
  serving::EstimationService service(&estimator_, opts);

  constexpr int kTasks = 8;
  constexpr int kIters = 40;
  ThreadPool pool(4);
  std::vector<Status> outcomes =
      RunIndexed(&pool, kTasks, [&](size_t task) -> Status {
        for (int i = 0; i < kIters; ++i) {
          // Rotate over a small key set so tasks collide on entries.
          serving::EstimateRequest req =
              Request(SampleJoin(1000000 + (i % 5) * 100000));
          auto single = service.Estimate(req);
          if (!single.ok()) return single.status();
          std::vector<serving::EstimateRequest> batch = {req, req,
                                                         Request(SampleAgg())};
          auto results = service.EstimateBatch(batch);
          for (const auto& r : results) {
            if (!r.ok()) return r.status();
          }
          if (i % 8 == static_cast<int>(task % 8)) {
            (void)service.cache_stats();
          }
        }
        return Status::OK();
      });
  for (const Status& s : outcomes) EXPECT_TRUE(s.ok()) << s.ToString();

  serving::CacheStats stats = service.cache_stats();
  // Every probe resolved as a hit or a miss; nothing was lost. Each
  // iteration probes 3 distinct keys: one single call plus a 3-request
  // batch that dedups {req, req} into one probe.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<int64_t>(kTasks * kIters * 3));
  EXPECT_GT(stats.hits, 0);
}

TEST_F(EstimationServiceTest, OverlappingBatchesOnOneSmallTableHammer) {
  // Two threads send overlapping batches into one 16-way set: each batch
  // prefetches, probes and fills ways that the other thread's batches are
  // probing, evicting and rewriting, so most fills find their predicted
  // way taken. The tripwire is SeqlockReaderWriterHammer's: every answer
  // must equal the uncached estimate, field for field, which a torn read
  // would break. Run under tsan by scripts/check.sh (step 3).
  serving::ServiceOptions opts;
  opts.jobs = 1;
  opts.cache.shards = 1;
  opts.cache.capacity = 16;
  serving::EstimationService service(&estimator_, opts);
  constexpr int kOps = 24;  // more keys than the set has ways
  std::vector<serving::EstimateRequest> pool_requests;
  std::vector<core::HybridEstimate> uncached;
  for (int k = 0; k < kOps; ++k) {
    pool_requests.push_back(
        Request(k % 3 == 2 ? SampleAgg(100000 + k * 20000)
                           : SampleJoin(1000000 + k * 50000)));
    auto est = estimator_.Estimate("hive", pool_requests.back().op);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    uncached.push_back(std::move(est).value());
  }
  constexpr int kThreads = 2;
  constexpr int kBatches = 300;
  constexpr int kBatchSize = 8;
  // Request j of batch b on thread t; the two threads' batches overlap.
  const auto op_of = [](size_t t, int b, int j) {
    return static_cast<size_t>((b * 5 + j * 7 + static_cast<int>(t) * 3) %
                               kOps);
  };
  int64_t probes = 0;  // one per distinct key of each batch
  for (size_t t = 0; t < kThreads; ++t) {
    for (int b = 0; b < kBatches; ++b) {
      std::set<size_t> distinct;
      for (int j = 0; j < kBatchSize; ++j) distinct.insert(op_of(t, b, j));
      probes += static_cast<int64_t>(distinct.size());
    }
  }
  ThreadPool pool(kThreads);
  std::vector<Status> outcomes =
      RunIndexed(&pool, kThreads, [&](size_t t) -> Status {
        for (int b = 0; b < kBatches; ++b) {
          std::vector<serving::EstimateRequest> batch;
          for (int j = 0; j < kBatchSize; ++j) {
            batch.push_back(pool_requests[op_of(t, b, j)]);
          }
          const auto results = service.EstimateBatch(batch);
          for (int j = 0; j < kBatchSize; ++j) {
            if (!results[j].ok()) return results[j].status();
            const core::HybridEstimate& got = results[j].value();
            const core::HybridEstimate& want = uncached[op_of(t, b, j)];
            if (got.seconds != want.seconds ||
                got.algorithm != want.algorithm ||
                got.approach_used != want.approach_used ||
                got.eliminated_count != want.eliminated_count) {
              return Status::Internal("torn or foreign answer");
            }
          }
        }
        return Status::OK();
      });
  for (const Status& s : outcomes) EXPECT_TRUE(s.ok()) << s.ToString();
  const serving::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, probes);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.entries, opts.cache.capacity);
}

}  // namespace
}  // namespace intellisphere
