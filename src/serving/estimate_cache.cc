#include "serving/estimate_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

namespace intellisphere::serving {

namespace {

/// Binary key packing: fixed-width native-endian encodings written to a
/// stack buffer through a bump cursor, committed to the output string with
/// a single append. The encoding only needs to be injective and stable
/// within a process, not portable, so raw 8-byte memcpys are fine — and
/// the cursor keeps the hot batch path off std::string's per-append
/// capacity checks (the key build runs once per request in EstimateBatch).
struct KeyWriter {
  char* p;
  void U64(uint64_t v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Byte(uint8_t v) { *p++ = static_cast<char>(v); }
  /// Keys a double by its bit pattern with the low `quantize_bits`
  /// mantissa bits dropped. bits = 0 is the identity (exact match only);
  /// the IEEE-754 layout keeps quantized patterns monotone within a
  /// sign+exponent bucket, so nearby magnitudes coalesce.
  void Double(double v, int quantize_bits) {
    uint64_t pattern = std::bit_cast<uint64_t>(v);
    if (quantize_bits > 0) {
      int bits = std::min(quantize_bits, 52);
      pattern &= ~((uint64_t{1} << bits) - 1);
    }
    U64(pattern);
  }
};

/// Upper bound on the operator-payload section of a canonical key: the
/// join layout (1 type byte + 7 int64s + 3 flag bytes + 1 double + 3 tail
/// bytes = 71) is the widest. static_asserted against the writer below.
constexpr size_t kMaxKeyPayload = 96;

constexpr uintptr_t kLineBytes = 64;

/// Prefetches every cache line of [begin, end), for write when `write`.
template <bool write>
void PrefetchLines(const void* begin, const void* end) {
  for (uintptr_t line = reinterpret_cast<uintptr_t>(begin) & ~(kLineBytes - 1);
       line < reinterpret_cast<uintptr_t>(end); line += kLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), write ? 1 : 0);
  }
}

}  // namespace

Result<CacheOptions> CacheOptions::FromProperties(const Properties& props) {
  CacheOptions opts;
  if (props.Contains(kCacheShardsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t shards, props.GetInt(kCacheShardsKey));
    if (shards < 1) {
      return Status::InvalidArgument("serving.cache.shards must be >= 1");
    }
    opts.shards = static_cast<int>(shards);
  }
  if (props.Contains(kCacheCapacityKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.capacity,
                             props.GetInt(kCacheCapacityKey));
    if (opts.capacity < 0) {
      return Status::InvalidArgument("serving.cache.capacity must be >= 0");
    }
  }
  if (props.Contains(kCacheTtlSecondsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.ttl_seconds,
                             props.GetDouble(kCacheTtlSecondsKey));
    if (opts.ttl_seconds < 0.0) {
      return Status::InvalidArgument(
          "serving.cache.ttl_seconds must be >= 0");
    }
  }
  if (props.Contains(kCacheQuantizeBitsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t bits,
                             props.GetInt(kCacheQuantizeBitsKey));
    if (bits < 0 || bits > 52) {
      return Status::InvalidArgument(
          "serving.cache.quantize_bits must be in [0, 52]");
    }
    opts.quantize_bits = static_cast<int>(bits);
  }
  return opts;
}

std::string CanonicalCacheKey(const std::string& system,
                              const rel::SqlOperator& op,
                              std::optional<core::ChoicePolicy> policy,
                              bool provenance, bool logical_phase,
                              int quantize_bits) {
  std::string key;
  CanonicalCacheKeyTo(system, op, policy, provenance, logical_phase,
                      quantize_bits, &key);
  return key;
}

void CanonicalCacheKeyTo(const std::string& system,
                         const rel::SqlOperator& op,
                         std::optional<core::ChoicePolicy> policy,
                         bool provenance, bool logical_phase,
                         int quantize_bits, std::string* out) {
  char buf[kMaxKeyPayload];
  KeyWriter w{buf};
  w.Byte(static_cast<uint8_t>(op.type));
  // Only the active payload participates: the inactive members of the
  // tagged union are defaulted noise.
  switch (op.type) {
    case rel::OperatorType::kJoin: {
      const rel::JoinQuery& j = op.join;
      w.I64(j.left.num_rows);
      w.I64(j.left.row_bytes);
      w.I64(j.right.num_rows);
      w.I64(j.right.row_bytes);
      w.I64(j.left_projected_bytes);
      w.I64(j.right_projected_bytes);
      w.I64(j.output_rows);
      w.Byte(static_cast<uint8_t>(j.is_equi_join));
      w.Byte(static_cast<uint8_t>(j.left_bucketed_on_key));
      w.Byte(static_cast<uint8_t>(j.right_bucketed_on_key));
      w.Double(j.hot_key_fraction, quantize_bits);
      break;
    }
    case rel::OperatorType::kAggregation: {
      const rel::AggQuery& a = op.agg;
      w.I64(a.input.num_rows);
      w.I64(a.input.row_bytes);
      w.I64(a.output_rows);
      w.I64(a.output_row_bytes);
      w.I64(a.num_aggregates);
      break;
    }
    case rel::OperatorType::kScan: {
      const rel::ScanQuery& s = op.scan;
      w.I64(s.input.num_rows);
      w.I64(s.input.row_bytes);
      w.Double(s.selectivity, quantize_bits);
      w.I64(s.projected_bytes);
      w.I64(s.output_rows);
      break;
    }
  }
  w.Byte(policy.has_value() ? static_cast<uint8_t>(*policy) : uint8_t{0xff});
  w.Byte(static_cast<uint8_t>(provenance));
  w.Byte(static_cast<uint8_t>(logical_phase));
  const size_t payload = static_cast<size_t>(w.p - buf);
  // Join layout: type + 7 int64s + 1 double + 6 flag/tail bytes.
  static_assert(kMaxKeyPayload >= 1 + 8 * sizeof(uint64_t) + 6);
  std::string& key = *out;
  key.clear();
  key.reserve(system.size() + 1 + payload);
  key.append(system);
  key.push_back('\0');  // unambiguous name/payload separator
  key.append(buf, payload);
}

EstimateCache::EstimateCache(CacheOptions options)
    : options_(std::move(options)) {
  options_.shards = std::max(1, options_.shards);
  options_.capacity = std::max<int64_t>(0, options_.capacity);
  options_.quantize_bits = std::clamp(options_.quantize_bits, 0, 52);
  // The budget is split as evenly as possible, and a shard always holds at
  // least one entry so a shards > capacity misconfiguration degrades
  // instead of disabling. A shard is budget / ways_ whole sets: the table
  // never exceeds its budget and rounds away at most ways_ - 1 entries.
  // Sets are allocated on first insert, so construction costs no table
  // memory.
  const int64_t base = options_.capacity / options_.shards;
  const int64_t extra = options_.capacity % options_.shards;
  ways_ = static_cast<int>(std::clamp<int64_t>(base, 1, kMaxWays));
  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    const int64_t budget =
        options_.capacity == 0 ? 0 : std::max<int64_t>(1, base + (i < extra));
    shards_.push_back(
        std::make_unique<Shard>(static_cast<size_t>(budget / ways_)));
  }
}

uint64_t EstimateCache::Hash(std::string_view key) {
  return static_cast<uint64_t>(std::hash<std::string_view>{}(key));
}

bool EstimateCache::Packable(std::string_view key,
                             const core::HybridEstimate& v) {
  // Variable-length provenance (sub-op candidate lists, degradation
  // reasons) and oversized keys go out of line.
  return key.size() <= kFastKeyCap && v.algorithm.size() <= kFastAlgoCap &&
         v.fell_back_reason.empty() && v.eliminated.empty() &&
         v.candidates.empty();
}

void EstimateCache::Pack(std::string_view key, uint64_t hash, uint64_t epoch,
                         double stored_now, const core::HybridEstimate& v,
                         bool out_of_line, PackedEstimate* out) {
  *out = PackedEstimate{};
  out->hash = hash;
  out->epoch = epoch;
  out->stored_now = stored_now;
  if (out_of_line) {
    out->flags = kOutOfLine;
    return;
  }
  out->seconds = v.seconds;
  out->remedy_alpha = v.remedy_alpha;
  out->nn_seconds = v.nn_seconds;
  out->remedy_seconds = v.remedy_seconds;
  out->eliminated_count = static_cast<int32_t>(v.eliminated_count);
  out->approach = static_cast<uint8_t>(v.approach_used);
  out->flags = static_cast<uint8_t>((v.used_remedy ? 1u : 0u) |
                                    (v.fell_back_to_sub_op ? 2u : 0u));
  out->key_len = static_cast<uint8_t>(key.size());
  out->algo_len = static_cast<uint8_t>(v.algorithm.size());
  std::memcpy(out->key, key.data(), key.size());
  std::memcpy(out->algorithm, v.algorithm.data(), v.algorithm.size());
}

void EstimateCache::Unpack(const PackedEstimate& p, core::HybridEstimate* v) {
  // Field by field into the caller's estimate: no temporary, and strings
  // and vectors keep their buffers.
  v->seconds = p.seconds;
  v->approach_used = static_cast<core::CostingApproach>(p.approach);
  v->algorithm.assign(p.algorithm, p.algo_len);
  v->used_remedy = (p.flags & 1u) != 0;
  v->remedy_alpha = p.remedy_alpha;
  v->nn_seconds = p.nn_seconds;
  v->remedy_seconds = p.remedy_seconds;
  v->fell_back_to_sub_op = (p.flags & 2u) != 0;
  v->fell_back_reason.clear();
  v->eliminated_count = p.eliminated_count;
  v->eliminated.clear();
  v->candidates.clear();
}

void EstimateCache::WriteWay(Way& way, const PackedEstimate* p) {
  // Seqlock write: odd version while the payload words are in flux, even
  // again once they are stable. Each word is a release store, so a reader
  // whose acquire load sees any new word also sees the odd version on its
  // recheck; the final release pairs with the reader's first acquire.
  way.seq.fetch_add(1, std::memory_order_acq_rel);
  uint64_t buf[kWayWords] = {};
  if (p != nullptr) std::memcpy(buf, p, sizeof(*p));
  for (size_t w = 0; w < kWayWords; ++w) {
    way.words[w].store(buf[w], std::memory_order_release);
  }
  way.seq.fetch_add(1, std::memory_order_release);
}

bool EstimateCache::ReadWay(const Way& way, PackedEstimate* out) {
  auto* dst = reinterpret_cast<unsigned char*>(out);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const uint64_t s1 = way.seq.load(std::memory_order_acquire);
    if ((s1 & 1) != 0) continue;  // writer mid-publish: retry once
    // Fence-free seqlock reader (Boehm, "Can seqlocks get along with
    // programming language memory models?"): every payload word is an
    // acquire load, so the version recheck below cannot be reordered
    // before any of them. On x86 an acquire load is a plain mov, and
    // unlike atomic_thread_fence(acquire) gcc supports it under tsan.
    for (size_t w = 0; w < kWayWords; ++w) {
      const uint64_t word = way.words[w].load(std::memory_order_acquire);
      std::memcpy(dst + w * sizeof(word), &word, sizeof(word));
    }
    // lint:relaxed-ok(version recheck; ordered by the acquire payload loads)
    if (way.seq.load(std::memory_order_relaxed) == s1) return true;
  }
  return false;
}

EstimateCache::Route EstimateCache::RouteOf(uint64_t hash) const {
  // The low half of the hash is the tag (forced nonzero: 0 marks an empty
  // way). The high half picks the shard by a multiply-shift range
  // reduction, and the set by the same reduction of the bits that multiply
  // leaves below the shard.
  const uint64_t pick = (hash >> 32) * shards_.size();
  const size_t shard = static_cast<size_t>(pick >> 32);
  const uint64_t rest = pick & 0xffffffffu;
  const size_t set =
      static_cast<size_t>((rest * shards_[shard]->set_count) >> 32);
  return {shard, set, static_cast<uint32_t>(hash) | 1u};
}

EstimateCache::Probe EstimateCache::Scan(const Set& set, const Route& r,
                                         uint64_t hash, std::string_view key,
                                         int* way, PackedEstimate* out) const {
  for (int w = *way; w < ways_; ++w) {
    // The acquire pairs with the writer's release of the tag, which comes
    // after the payload's stable version. A way rewritten since its tag
    // was read fails the hash or key check below.
    if (set.tags[w].load(std::memory_order_acquire) != r.tag) continue;
    *way = w;
    if (!ReadWay(set.ways[w], out)) return Probe::kTorn;
    if (out->hash != hash) continue;
    if ((out->flags & kOutOfLine) != 0) return Probe::kOutOfLine;
    if (out->key_len == key.size() &&
        std::memcmp(out->key, key.data(), key.size()) == 0) {
      return Probe::kInline;
    }
  }
  return Probe::kAbsent;
}

int EstimateCache::FindLocked(Shard& shard, const Set& set, const Route& r,
                              uint64_t hash, std::string_view key,
                              PackedEstimate* out) const {
  // Writers are excluded, so no snapshot tears here.
  for (int w = 0;; ++w) {
    switch (Scan(set, r, hash, key, &w, out)) {
      case Probe::kInline:
        return w;
      case Probe::kOutOfLine:
        if (shard.side.at(SideIndex(r.set, w)).key == key) return w;
        continue;
      default:
        return -1;
    }
  }
}

int EstimateCache::FreeWay(Shard& shard, Set& set, size_t si,
                           bool* evicted) const {
  for (int w = 0; w < ways_; ++w) {
    if (set.tags[w].load(std::memory_order_acquire) == 0) {
      ++shard.live;
      return w;
    }
  }
  // CLOCK (second chance): from the hand, clear reference bits up to the
  // first unreferenced way. After one full sweep the way at the hand goes,
  // even if a hit has set its bit again meanwhile.
  // lint:relaxed-ok(hand: written under the mutex; lock-free reads are hints)
  uint8_t hand = set.hand.load(std::memory_order_relaxed);
  for (int step = 0; step < ways_; ++step) {
    // lint:relaxed-ok(CLOCK reference bit: a lost update only changes the victim)
    if (set.referenced[hand].load(std::memory_order_relaxed) == 0) break;
    // lint:relaxed-ok(CLOCK reference bit, see above)
    set.referenced[hand].store(0, std::memory_order_relaxed);
    hand = static_cast<uint8_t>((hand + 1) % ways_);
  }
  const int victim = hand;
  const auto next = static_cast<uint8_t>((hand + 1) % ways_);
  // lint:relaxed-ok(hand, see above)
  set.hand.store(next, std::memory_order_relaxed);
  Retire(shard, set, si, victim);
  *evicted = true;
  return victim;
}

void EstimateCache::Retire(Shard& shard, Set& set, size_t si, int way) {
  set.tags[way].store(0, std::memory_order_release);
  if (!shard.side.empty()) shard.side.erase(SideIndex(si, way));
}

void EstimateCache::Reference(Set& set, int way) {
  // Stored only when clear, so repeated hits leave the line shared.
  // lint:relaxed-ok(CLOCK reference bit: a lost update only changes the victim)
  if (set.referenced[way].load(std::memory_order_relaxed) == 0) {
    // lint:relaxed-ok(CLOCK reference bit, see above)
    set.referenced[way].store(1, std::memory_order_relaxed);
  }
}

void EstimateCache::CountGet(bool hit, bool lockless) {
  (lockless ? (hit ? lockless_hits_ : lockless_misses_)
            : (hit ? locked_hits_ : locked_misses_))
      .Increment();
}

void EstimateCache::PrefetchFill(const Set& set) const {
  int way = -1;
  for (int w = 0; w < ways_ && way < 0; ++w) {
    if (set.tags[w].load(std::memory_order_acquire) == 0) way = w;
  }
  // lint:relaxed-ok(fill hint; Put re-derives its way under the shard mutex)
  if (way < 0) way = set.hand.load(std::memory_order_relaxed);
  PrefetchLines</*write=*/true>(&set.ways[way], &set.ways[way] + 1);
}

int EstimateCache::ShardOf(const std::string& key) const {
  return static_cast<int>(RouteOf(Hash(key)).shard);
}

void EstimateCache::Prefetch(uint64_t hash) const {
  const Route r = RouteOf(hash);
  const Shard& shard = *shards_[r.shard];
  if (shard.set_count == 0) return;
  const Set* set = shard.sets[r.set].load(std::memory_order_acquire);
  // The tag line and the line after it, which holds the reference bits and
  // the hand (a lock-free miss reads the hand to prefetch its fill way).
  if (set != nullptr) PrefetchLines</*write=*/false>(set->tags, &set->hand + 1);
}

void EstimateCache::PrefetchMatches(uint64_t hash) const {
  const Route r = RouteOf(hash);
  const Shard& shard = *shards_[r.shard];
  if (shard.set_count == 0) return;
  const Set* set = shard.sets[r.set].load(std::memory_order_acquire);
  if (set == nullptr) return;
  for (int w = 0; w < ways_; ++w) {
    if (set->tags[w].load(std::memory_order_acquire) == r.tag) {
      PrefetchLines</*write=*/false>(&set->ways[w], &set->ways[w] + 1);
    }
  }
}

bool EstimateCache::Get(const HashedKey& key_ref, uint64_t epoch, double now,
                        core::HybridEstimate* out, bool allow_stale,
                        bool* served_stale) {
  if (served_stale != nullptr) *served_stale = false;
  const std::string_view key = key_ref.bytes;
  const uint64_t hash = key_ref.hash;
  const Route r = RouteOf(hash);
  Shard& shard = *shards_[r.shard];

  // ---- Lock-free probe (DESIGN.md §14) -----------------------------------
  //   * no way carries the key's tag (or the set was never published, or
  //     caching is disabled)                            -> miss, no lock
  //   * an inline image verifies, fresh epoch and TTL   -> hit, no lock
  //   * out-of-line value, stale epoch or TTL, torn     -> locked probe
  // A lock-free miss racing a concurrent Put linearizes the Get before the
  // Put — the same probe/compute race the locked path has.
  Set* set = shard.set_count == 0
                 ? nullptr
                 : shard.sets[r.set].load(std::memory_order_acquire);
  int way = 0;
  PackedEstimate packed;
  const Probe probe = set == nullptr ? Probe::kAbsent
                                     : Scan(*set, r, hash, key, &way, &packed);
  if (probe == Probe::kAbsent) {
    // A miss is usually filled next: start the RFO on its likely way now.
    if (set != nullptr) PrefetchFill(*set);
    CountGet(false, true);
    return false;
  }
  if (probe == Probe::kInline && packed.epoch == epoch &&
      !Expired(packed, now)) {
    Reference(*set, way);
    Unpack(packed, out);
    CountGet(true, true);
    return true;
  }

  // ---- Locked probe -------------------------------------------------------
  bool found = false;
  bool stale = false;
  bool expired = false;
  bool served_expired = false;
  {
    MutexLock lock(&shard.mu);
    way = FindLocked(shard, *set, r, hash, key, &packed);
    if (way >= 0) {
      if (packed.epoch != epoch) {
        // Epoch staleness is never forgiven: the value was computed from
        // superseded model weights, so "stale" here means wrong.
        stale = true;
      } else if (Expired(packed, now)) {
        // Degraded serve hands out the expired value and *keeps* the entry
        // (stored_now unchanged, so it stays expired for normal lookups).
        served_expired = allow_stale;
        expired = !allow_stale;
      }
      if (stale || expired) {
        Retire(shard, *set, r.set, way);
        --shard.live;
      } else {
        Reference(*set, way);
        if ((packed.flags & kOutOfLine) != 0) {
          *out = shard.side.at(SideIndex(r.set, way)).value;
        } else {
          Unpack(packed, out);
        }
        found = true;
      }
    }
  }
  CountGet(found, false);
  if (served_expired) {
    stale_served_.Increment();
    if (served_stale != nullptr) *served_stale = true;
  }
  if (stale) stale_epoch_.Increment();
  if (expired) evictions_.Increment();
  return found;
}

void EstimateCache::Put(const HashedKey& key_ref, uint64_t epoch, double now,
                        const core::HybridEstimate& value) {
  if (options_.capacity == 0) return;
  const std::string_view key = key_ref.bytes;
  const uint64_t hash = key_ref.hash;
  const Route r = RouteOf(hash);
  Shard& shard = *shards_[r.shard];
  const bool out_of_line = !Packable(key, value);
  PackedEstimate packed;
  Pack(key, hash, epoch, now, value, out_of_line, &packed);
  bool evicted = false;
  {
    MutexLock lock(&shard.mu);
    Set* set = shard.sets[r.set].load(std::memory_order_acquire);
    if (set == nullptr) {
      set = shard.owned.emplace_back(std::make_unique<Set>()).get();
      shard.sets[r.set].store(set, std::memory_order_release);
    }
    PackedEstimate old;
    // Same key: refresh its way in place (e.g. recomputed after an epoch
    // bump); its tag stays, and readers retry or lock while the version is
    // odd. New key: untag the victim first, publish the new tag last. The
    // way is derived here, under the mutex, whatever a Get prefetched: the
    // set may have changed since (DESIGN.md §14).
    int way = FindLocked(shard, *set, r, hash, key, &old);
    if (way < 0) {
      way = FreeWay(shard, *set, r.set, &evicted);
      // lint:relaxed-ok(CLOCK reference bit: a new entry starts unreferenced)
      set->referenced[way].store(0, std::memory_order_relaxed);
    }
    if (out_of_line) {
      shard.side[SideIndex(r.set, way)] = SideEntry{std::string(key), value};
    } else if (!shard.side.empty()) {
      shard.side.erase(SideIndex(r.set, way));
    }
    WriteWay(set->ways[way], &packed);
    set->tags[way].store(r.tag, std::memory_order_release);
  }
  if (evicted) evictions_.Increment();
}

void EstimateCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    // Every way is wiped with the seqlock protocol, since readers may be
    // probing concurrently.
    for (const auto& set : shard->owned) {
      for (int w = 0; w < ways_; ++w) {
        set->tags[w].store(0, std::memory_order_release);
        // lint:relaxed-ok(CLOCK reference bit; no data is published through it)
        set->referenced[w].store(0, std::memory_order_relaxed);
        WriteWay(set->ways[w], nullptr);
      }
    }
    shard->side.clear();
    shard->live = 0;
  }
}

size_t EstimateCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += static_cast<size_t>(shard->live);
  }
  return total;
}

CacheStats EstimateCache::Stats() const {
  CacheStats stats;
  stats.lockless_hits = lockless_hits_.value();
  stats.lockless_misses = lockless_misses_.value();
  const int64_t locked_hits = locked_hits_.value();
  const int64_t locked_misses = locked_misses_.value();
  stats.hits = stats.lockless_hits + locked_hits;
  stats.misses = stats.lockless_misses + locked_misses;
  stats.locked_gets = locked_hits + locked_misses;
  stats.evictions = evictions_.value();
  stats.stale_epoch = stale_epoch_.value();
  stats.stale_served = stale_served_.value();
  stats.entries = static_cast<int64_t>(size());
  return stats;
}

}  // namespace intellisphere::serving
