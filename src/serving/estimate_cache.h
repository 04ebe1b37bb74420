// Set-associative estimate cache — the memoization layer of the concurrent
// serving front-end (DESIGN.md §11). The paper's optimizer calls the
// estimator once per candidate placement (Section 5), so the cache sees a
// high-QPS stream of hits *and* misses: it is sharded, and each shard is
// one table of 16-way sets that a lookup normally reads without a lock.
//
// Correctness over hit rate: every entry stores the *full* canonical key
// and a hit verifies it byte-for-byte (the 64-bit hash only routes to a
// shard, a set and a tag), so a collision can never return the wrong
// estimate and a hit is bit-identical to the uncached computation.
// Stale-model protection is epoch-based: every entry records the
// CostEstimator::model_epoch() captured before its value was computed, and
// Get never serves an entry whose epoch differs from the caller's.
//
// Lock-free reads (DESIGN.md §14): each way holds a fixed-width image of
// one entry framed by a seqlock version word, and each set keeps a tag
// line with one nonzero tag per occupied way. Every live entry owns a
// tagged way, so a reader that finds no way carrying its tag has a
// definitive miss, and a tagged way whose snapshot verifies is a hit —
// both without the mutex. Writers (insert, CLOCK eviction, erase, Clear)
// serialize on the shard Mutex, clear a victim's tag before rewriting its
// way, and publish a new tag only after the payload's stable version. A Get
// locks only for values kept out of line (provenance lists, over-long keys
// or algorithm names), epoch-stale or TTL-expired entries, and snapshots
// torn twice; CacheStats::locked_gets counts those probes.

#ifndef INTELLISPHERE_SERVING_ESTIMATE_CACHE_H_
#define INTELLISPHERE_SERVING_ESTIMATE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

#include "core/estimate_context.h"
#include "core/hybrid.h"
#include "relational/query.h"
#include "util/properties.h"
#include "util/runtime_metrics.h"
#include "util/status.h"

namespace intellisphere::serving {

/// Properties keys the cache reads (documented in docs/CONFIG.md).
inline constexpr char kCacheShardsKey[] = "serving.cache.shards";
inline constexpr char kCacheCapacityKey[] = "serving.cache.capacity";
inline constexpr char kCacheTtlSecondsKey[] = "serving.cache.ttl_seconds";
inline constexpr char kCacheQuantizeBitsKey[] = "serving.cache.quantize_bits";

/// Cache tuning knobs.
struct CacheOptions {
  /// Number of independently locked shards; keys are hash-routed.
  int shards = 8;
  /// Total entry budget across all shards (split evenly; each shard keeps
  /// at least one entry). The table holds at most this many entries and at
  /// least capacity - shards * 15 (a shard rounds down to whole 16-way
  /// sets). 0 disables caching entirely.
  int64_t capacity = 4096;
  /// Entry lifetime on the *deployment clock* (the `now` passed to
  /// Get/Put, not wall time — deterministic and testable). 0 = no expiry.
  double ttl_seconds = 0.0;
  /// Low-order mantissa bits dropped from double-typed key fields before
  /// hashing. 0 (default) keys on exact bit patterns, which is what makes
  /// cached results provably bit-identical; raising it trades exactness
  /// for hit rate on jittery statistics. Clamped to [0, 52].
  int quantize_bits = 0;

  /// Reads the serving.cache.* keys above; absent keys keep their
  /// defaults. InvalidArgument on non-positive shards or negative values.
  [[nodiscard]] static Result<CacheOptions> FromProperties(
      const Properties& props);
};

/// Point-in-time cache statistics.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;        ///< every Get that returned nothing
  int64_t evictions = 0;     ///< capacity (CLOCK) + TTL removals
  int64_t stale_epoch = 0;   ///< subset of misses rejected by epoch check
  int64_t stale_served = 0;  ///< TTL-expired hits served under allow_stale
  int64_t entries = 0;       ///< live entries right now
  // Optimistic-read-path breakdown (DESIGN.md §14).
  int64_t lockless_hits = 0;    ///< hits served from a seqlock way, no mutex
  int64_t lockless_misses = 0;  ///< definitive misses declared without a mutex
  int64_t locked_gets = 0;      ///< Gets that fell back to the locked probe
  double HitRate() const {
    int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Builds the canonical cache key for one estimate call. The key covers
/// everything that can change the returned HybridEstimate:
///   - system name and operator type,
///   - every statistic of the active operator payload — including the
///     applicability-rule inputs (equi-join flag, bucketing flags, hot-key
///     fraction) that LogicalOpFeatures() does not carry,
///   - the effective choice policy (per-request override, else the
///     profile's configured policy),
///   - whether provenance detail was requested (a provenance estimate
///     carries elimination strings a cost-only one lacks),
///   - the costing phase of a time-phased profile (now >= switch_time), so
///     a pre-switch sub-op estimate is never served post-switch.
/// Doubles are keyed by their (optionally quantized) bit patterns.
std::string CanonicalCacheKey(const std::string& system,
                              const rel::SqlOperator& op,
                              std::optional<core::ChoicePolicy> policy,
                              bool provenance, bool logical_phase,
                              int quantize_bits);

/// Allocation-free variant for hot loops: clears `*out` and rebuilds the
/// key in place, reusing the buffer's capacity across calls.
void CanonicalCacheKeyTo(const std::string& system,
                         const rel::SqlOperator& op,
                         std::optional<core::ChoicePolicy> policy,
                         bool provenance, bool logical_phase,
                         int quantize_bits, std::string* out);

/// The sharded set-associative estimate cache. All methods are
/// thread-safe; a Put locks exactly one shard, a Get at most one.
class EstimateCache {
 public:
  explicit EstimateCache(CacheOptions options);

  /// A key with the hash that routes it (Hash(bytes)). A caller that hashes
  /// a key for its own purposes (the batch dedup) carries the hash through
  /// Prefetch, Get and Put instead of hashing again. `bytes` must outlive
  /// the call it is passed to.
  struct HashedKey {
    std::string_view bytes;
    uint64_t hash = 0;
  };
  static uint64_t Hash(std::string_view key);
  static HashedKey KeyOf(std::string_view key) { return {key, Hash(key)}; }

  /// A hint, with no effect on contents or statistics: starts loading the
  /// tag line (and the CLOCK line) of the set `hash` routes to, so a Get of
  /// that key issued a little later finds them in cache. The batch path
  /// calls it for every distinct key before probing the first.
  void Prefetch(uint64_t hash) const;
  /// The second stage of the same hint: starts loading the payload of each
  /// way whose tag matches `hash`'s, reading the tag line a Prefetch of
  /// `hash` should have started loading. The batch path calls it for every
  /// distinct key after the first stage and before the first probe.
  void PrefetchMatches(uint64_t hash) const;

  /// Looks up `key`. Returns the cached estimate only when the entry's
  /// model epoch equals `epoch` and its TTL (if configured) has not lapsed
  /// at deployment time `now`; otherwise erases the dead entry and counts
  /// a miss (plus stale_epoch when the epoch check failed). A hit sets the
  /// entry's CLOCK reference bit.
  ///
  /// Degraded mode (`allow_stale`, DESIGN.md §12): a TTL-expired entry is
  /// served anyway — counted as a hit plus stale_served, reported through
  /// `*served_stale` when non-null, and *kept* in the cache so repeated
  /// degraded lookups keep answering. Epoch-stale entries are never served:
  /// a pre-retrain value is wrong, not merely old.
  ///
  /// A lock-free miss also prefetches, for write, the way a following Put
  /// of the key would most likely fill (a hint only, DESIGN.md §14).
  ///
  /// A hit overwrites every field of the caller's `*out` (a lock-free hit
  /// copies the way's snapshot once and writes the answer straight into
  /// it) and returns true; a miss returns false and leaves `*out` alone.
  bool Get(const HashedKey& key, uint64_t epoch, double now,
           core::HybridEstimate* out, bool allow_stale = false,
           bool* served_stale = nullptr);
  /// The same lookup, answering in an optional.
  std::optional<core::HybridEstimate> Get(const HashedKey& key,
                                          uint64_t epoch, double now,
                                          bool allow_stale = false,
                                          bool* served_stale = nullptr) {
    std::optional<core::HybridEstimate> found(std::in_place);
    if (!Get(key, epoch, now, &*found, allow_stale, served_stale)) {
      found.reset();
    }
    return found;
  }
  std::optional<core::HybridEstimate> Get(const std::string& key,
                                          uint64_t epoch, double now,
                                          bool allow_stale = false,
                                          bool* served_stale = nullptr) {
    return Get(KeyOf(key), epoch, now, allow_stale, served_stale);
  }

  /// Inserts (or refreshes) `key` with a value computed at model `epoch`
  /// and deployment time `now`. A new key takes an empty way of its set or
  /// evicts the set's CLOCK victim, chosen under the shard mutex whatever
  /// an earlier Get prefetched. No-op when capacity is 0.
  void Put(const HashedKey& key, uint64_t epoch, double now,
           const core::HybridEstimate& value);
  void Put(const std::string& key, uint64_t epoch, double now,
           const core::HybridEstimate& value) {
    Put(KeyOf(key), epoch, now, value);
  }

  /// Drops every entry (stats counters are kept).
  void Clear();

  CacheStats Stats() const;
  size_t size() const;
  const CacheOptions& options() const { return options_; }

  /// Which shard a key routes to (exposed for distribution tests).
  int ShardOf(const std::string& key) const;

 private:
  /// Fixed-width, trivially-copyable image of a cache entry, published
  /// through a way's seqlock as raw 64-bit words. Entries whose key or
  /// payload exceed these caps (notably sub-op results carrying candidate
  /// provenance) keep their key and value in a side entry instead, and the
  /// image carries only the hash, epoch, clock and the out-of-line flag.
  static constexpr size_t kFastKeyCap = 104;
  static constexpr size_t kFastAlgoCap = 24;
  static constexpr uint8_t kOutOfLine = 4;
  struct PackedEstimate {
    uint64_t hash = 0;
    uint64_t epoch = 0;
    double stored_now = 0.0;
    double seconds = 0.0;
    double remedy_alpha = 0.0;
    double nn_seconds = 0.0;
    double remedy_seconds = 0.0;
    int32_t eliminated_count = 0;
    uint8_t approach = 0;
    uint8_t flags = 0;  ///< 1 used_remedy, 2 fell_back_to_sub_op, kOutOfLine
    uint8_t key_len = 0;
    uint8_t algo_len = 0;
    char key[kFastKeyCap] = {};
    char algorithm[kFastAlgoCap] = {};
  };
  static_assert(std::is_trivially_copyable_v<PackedEstimate>);
  static_assert(sizeof(PackedEstimate) % sizeof(uint64_t) == 0);
  static constexpr size_t kWayWords = sizeof(PackedEstimate) / sizeof(uint64_t);
  static constexpr int kMaxWays = 16;

  /// One way: seq odd means a writer is mid-publish, even frames a
  /// consistent payload. Atomics are safe to read without the shard mutex;
  /// writes are serialized by it.
  struct Way {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kWayWords] = {};
  };
  /// One set, allocated on its first insert. tags[w] == 0 marks way w
  /// empty; a live entry's tag is nonzero. `referenced` holds the CLOCK
  /// reference bits, which hits set without the mutex. `hand` is the CLOCK
  /// hand: written only under the shard mutex, read without it only as a
  /// fill hint.
  struct alignas(64) Set {
    std::atomic<uint32_t> tags[kMaxWays] = {};
    std::atomic<uint8_t> referenced[kMaxWays] = {};
    std::atomic<uint8_t> hand{0};
    Way ways[kMaxWays];
  };
  /// The key and value of an entry too large for its way's image.
  struct SideEntry {
    std::string key;
    core::HybridEstimate value;
  };
  struct Shard {
    explicit Shard(size_t set_count)
        : set_count(set_count),
          sets(std::make_unique<std::atomic<Set*>[]>(set_count)) {}
    mutable Mutex mu;
    const size_t set_count;
    /// Set i once its first insert published it; a null set reads as
    /// empty. Published sets are never withdrawn and are freed only with
    /// the cache, so a reader's pointer stays valid.
    const std::unique_ptr<std::atomic<Set*>[]> sets;
    std::vector<std::unique_ptr<Set>> owned GUARDED_BY(mu);
    /// Out-of-line entries, keyed by SideIndex(set, way).
    std::unordered_map<size_t, SideEntry> side GUARDED_BY(mu);
    int64_t live GUARDED_BY(mu) = 0;
  };
  /// Where a key hash lives: shard, set and tag come from disjoint bits.
  struct Route {
    size_t shard;
    size_t set;
    uint32_t tag;
  };
  /// Outcome of scanning a set for a key.
  enum class Probe { kAbsent, kInline, kOutOfLine, kTorn };

  static bool Packable(std::string_view key, const core::HybridEstimate& v);
  static void Pack(std::string_view key, uint64_t hash, uint64_t epoch,
                   double stored_now, const core::HybridEstimate& v,
                   bool out_of_line, PackedEstimate* out);
  /// Writes every field of `*v` from `p`; provenance fields come back
  /// empty.
  static void Unpack(const PackedEstimate& p, core::HybridEstimate* v);
  static size_t SideIndex(size_t set, int way) {
    return set * kMaxWays + static_cast<size_t>(way);
  }
  /// Seqlock-writes `p` (or an empty image when null) into `way`. Call
  /// under the owning shard's mutex.
  static void WriteWay(Way& way, const PackedEstimate* p);
  /// Copies `way`'s payload into *out inside one stable version window;
  /// false when a writer was active through both attempts (*out then holds
  /// a torn image).
  static bool ReadWay(const Way& way, PackedEstimate* out);
  Route RouteOf(uint64_t hash) const;
  bool Expired(const PackedEstimate& p, double now) const {
    return options_.ttl_seconds > 0.0 &&
           now - p.stored_now > options_.ttl_seconds;
  }
  /// Scans ways [*way, ways_) of `set` for `key`. kInline: way *way holds
  /// the key and *out its image. kOutOfLine: way *way holds the key's hash
  /// with its key in a side entry. kTorn: a writer held way *way through
  /// both snapshot attempts. kAbsent: no remaining way holds the key.
  Probe Scan(const Set& set, const Route& r, uint64_t hash,
             std::string_view key, int* way, PackedEstimate* out) const;
  /// The way of `set` holding `key` (its image in *out), or -1.
  int FindLocked(Shard& shard, const Set& set, const Route& r, uint64_t hash,
                 std::string_view key, PackedEstimate* out) const
      REQUIRES(shard.mu);
  /// Prefetches for write the way FreeWay would pick now: the first empty
  /// way, else the one at the hand (ignoring reference bits).
  void PrefetchFill(const Set& set) const;
  /// A way for a new key: the first empty one, else the CLOCK victim, whose
  /// entry is retired (*evicted set).
  int FreeWay(Shard& shard, Set& set, size_t si, bool* evicted) const
      REQUIRES(shard.mu);
  /// Untags way `way` and drops its side entry; the image stays until the
  /// way is rewritten (readers verify every image they serve).
  static void Retire(Shard& shard, Set& set, size_t si, int way)
      REQUIRES(shard.mu);
  static void Reference(Set& set, int way);
  /// Counts one Get in exactly one of the four outcome counters below.
  void CountGet(bool hit, bool lockless);

  CacheOptions options_;
  int ways_ = 1;  ///< ways per set: min(16, per-shard capacity)
  /// unique_ptrs because Shard (mutex) is immovable.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Get outcomes, one increment per Get into the calling thread's cell;
  /// Stats derives hits, misses and locked_gets as sums. These are the
  /// cache's only counts (DESIGN.md §10).
  Counter lockless_hits_;
  Counter lockless_misses_;
  Counter locked_hits_;
  Counter locked_misses_;
  Counter evictions_;
  Counter stale_epoch_;
  Counter stale_served_;
};

}  // namespace intellisphere::serving

#endif  // INTELLISPHERE_SERVING_ESTIMATE_CACHE_H_
