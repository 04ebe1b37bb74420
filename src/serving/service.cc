#include "serving/service.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <string_view>
#include <utility>

#include "remote/health.h"

namespace intellisphere::serving {

namespace {

/// The deadline gate's answer (DESIGN.md §17): a request whose deadline
/// already passed on the deployment clock is rejected before the cache is
/// touched — no probe, no fill — so expired work can neither publish into
/// nor be answered from shared state.
Status DeadlineExpired() {
  return Status::DeadlineExceeded("estimate deadline expired before serving");
}

/// The fallback reason of a TTL-expired entry served under allow_stale; it
/// names whichever cause applies (breaker wins over admission overload).
const char* ServedStaleReason(bool breaker_open) {
  return breaker_open ? "breaker_open:served_stale"
                      : "admission_overload:served_stale";
}

/// Whether a computed answer may fill the cache. Degraded results
/// (non-empty fell_back_reason) are never cached: once the breaker closes,
/// callers should get the real estimate again, not a memoized fallback.
/// Admission-degraded requests never fill the cache either, even when their
/// answer happens to be full fidelity (sub-op profiles): overload outcomes
/// must not become durable state.
bool Cacheable(const Result<core::HybridEstimate>& result,
               const core::EstimateContext& ctx) {
  return result.ok() && result.value().fell_back_reason.empty() &&
         !ctx.admission_degraded;
}

}  // namespace

Result<ServiceOptions> ServiceOptions::FromProperties(
    const Properties& props) {
  ServiceOptions opts;
  ISPHERE_ASSIGN_OR_RETURN(opts.cache, CacheOptions::FromProperties(props));
  if (props.Contains(kServingJobsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t jobs, props.GetInt(kServingJobsKey));
    if (jobs < 0) {
      return Status::InvalidArgument("serving.jobs must be >= 0");
    }
    opts.jobs = static_cast<int>(jobs);
  }
  return opts;
}

EstimationService::EstimationService(const core::CostEstimator* estimator,
                                     ServiceOptions options)
    : estimator_(estimator),
      options_(std::move(options)),
      cache_(options_.cache) {
  if (options_.jobs == 0) options_.jobs = HardwareConcurrency();
  if (options_.jobs > 1) pool_ = std::make_unique<ThreadPool>(options_.jobs);
}

void EstimationService::KeyTo(const EstimateRequest& request,
                              const core::EstimateContext& ctx,
                              const core::CostingProfile* p,
                              std::string* out) const {
  if (p == nullptr) {
    out->clear();
    return;
  }
  // Effective policy: the request's override, else the context's, else the
  // profile's configured sub-op policy (the value the estimator would use).
  std::optional<core::ChoicePolicy> policy = request.policy_override;
  if (!policy.has_value()) policy = ctx.policy_override;
  if (!policy.has_value() && p->has_sub_op()) {
    policy = p->sub_op().value()->policy();
  }
  const bool logical_phase =
      p->approach() == core::CostingApproach::kSubOpThenLogicalOp &&
      request.now >= p->switch_time();
  CanonicalCacheKeyTo(request.system, request.op, policy, ctx.provenance(),
                      logical_phase, options_.cache.quantize_bits, out);
}

core::EstimateContext EstimationService::RequestContext(
    const EstimateRequest& request, const core::EstimateContext& ctx) const {
  core::EstimateContext out = ctx;
  out.now = request.now;
  if (request.policy_override.has_value()) {
    out.policy_override = request.policy_override;
  }
  // The service's breaker registry backstops a context without one, so the
  // estimator's degradation ladder engages even for callers that never
  // heard of health tracking.
  if (out.health == nullptr) out.health = options_.health;
  return out;
}

Result<core::HybridEstimate> EstimationService::Estimate(
    const EstimateRequest& request, const core::EstimateContext& ctx) const {
  if (ctx.DeadlineExpiredAt(request.now)) return DeadlineExpired();
  // The epoch is captured *before* the cache probe and the computation, so
  // a retrain racing this call can only make the stored entry stale, never
  // let a pre-retrain value masquerade as fresh.
  const uint64_t epoch = estimator_->model_epoch();
  auto profile = estimator_->GetProfile(request.system);
  std::string key;
  KeyTo(request, ctx, profile.ok() ? profile.value() : nullptr, &key);
  const remote::HealthRegistry* health =
      ctx.health != nullptr ? ctx.health : options_.health;
  const bool breaker_open =
      health != nullptr && health->IsOpen(request.system, request.now);
  // A TTL-expired entry beats recomputing when the backend is unreachable
  // (breaker open) or the serving layer itself is overloaded (admission
  // degraded).
  const bool allow_stale = breaker_open || ctx.admission_degraded;
  if (!key.empty()) {
    bool served_stale = false;
    if (auto hit =
            cache_.Get(key, epoch, request.now, allow_stale, &served_stale)) {
      if (served_stale) hit->fell_back_reason = ServedStaleReason(breaker_open);
      return *std::move(hit);
    }
  }
  auto result =
      estimator_->Estimate(request.system, request.op,
                           RequestContext(request, ctx));
  if (!key.empty() && Cacheable(result, ctx)) {
    cache_.Put(key, epoch, request.now, result.value());
  }
  return result;
}

std::vector<Result<core::HybridEstimate>> EstimationService::EstimateBatch(
    std::span<const EstimateRequest> requests,
    const core::EstimateContext& ctx) const {
  TraceSpan batch = ctx.StartSpan("serving.batch");
  const core::EstimateContext bctx = ctx.Under(batch);
  const uint64_t epoch = estimator_->model_epoch();

  const size_t n = requests.size();

  // Pass 1: group the requests by canonical key. Each request's key is
  // built and hashed once, and that one hash serves the dedup here, the
  // prefetch and probe below and the fill in pass 3. One group per distinct
  // key; misses are computed exactly once in pass 2. Requests whose key
  // cannot be built (unknown system) each get their own keyless group so
  // errors stay per-request. The scratch buffer keeps the duplicate path
  // allocation-free, and the distinct keys share one arena string.
  //
  // Every request gets its result slot here, once. A group's answer lands
  // in its first request's slot (a hit written in place, a computed miss
  // moved in) and its duplicates copy that slot last.
  struct MissGroup {
    size_t first_index = 0;
    /// The key's bytes in `keys` and their EstimateCache::Hash; empty for
    /// uncacheable requests.
    size_t key_offset = 0;
    size_t key_size = 0;
    uint64_t key_hash = 0;
    /// Whether the first request's system had an open breaker (memoized
    /// per system, see below): a TTL-expired entry may then be served.
    bool breaker_open = false;
    /// Answered before pass 2, by a cache hit or (expired deadline) an
    /// error: the first slot already holds the answer, pass 2 skips the
    /// group and pass 3 never fills the cache from it.
    bool answered = false;
    /// Answered by a cache hit: counts as a served hit in the span.
    bool from_cache = false;
  };
  std::vector<MissGroup> groups;
  std::string keys;
  const auto key_of = [&keys](const MissGroup& g) {
    return EstimateCache::HashedKey{
        std::string_view(keys).substr(g.key_offset, g.key_size), g.key_hash};
  };
  std::vector<Result<core::HybridEstimate>> results;
  results.reserve(n);
  std::vector<uint32_t> group_of(n, 0);
  // Worst case is all-distinct (one group per request), but batches skew
  // heavily toward repeats; 64 covers typical fan-in without a realloc.
  groups.reserve(std::min<size_t>(n, 64));
  // Open-addressed dedup table (linear probing, power-of-two size):
  // the per-request cost of spotting a duplicate is one hash plus one
  // probe, with the key bytes compared only on a hash match.
  // `group_plus_1 == 0` marks an empty slot, so a zero hash needs no
  // special case. At least twice as many slots as requests keeps the load
  // under 50% with no resize.
  struct DedupSlot {
    uint64_t hash = 0;
    uint32_t group_plus_1 = 0;
  };
  std::vector<DedupSlot> dedup(std::bit_ceil(std::max<size_t>(2 * n, 2)));
  const size_t dedup_mask = dedup.size() - 1;
  std::string scratch;
  // Per-batch memo of each distinct system's (profile, breaker state),
  // filled on the system's first request: a batch names a handful of
  // systems, interleaved, and the estimator may not be mutated mid-batch
  // (class contract), so the pointers stay valid for the batch. Past
  // kMemoSize systems the last entry is replaced. The breaker memo
  // tolerates intra-batch `now` variance — it gates a degradation decision
  // (flagged in the result), never a correctness one.
  const remote::HealthRegistry* health =
      ctx.health != nullptr ? ctx.health : options_.health;
  struct SystemMemo {
    const std::string* system = nullptr;
    const core::CostingProfile* profile = nullptr;
    bool breaker_open = false;
  };
  constexpr size_t kMemoSize = 4;
  std::array<SystemMemo, kMemoSize> memo;
  size_t memo_size = 0;
  const auto system_of = [&](const EstimateRequest& r) -> const SystemMemo& {
    for (size_t m = 0; m < memo_size; ++m) {
      if (*memo[m].system == r.system) return memo[m];
    }
    SystemMemo& entry =
        memo[memo_size < kMemoSize ? memo_size++ : kMemoSize - 1];
    auto profile = estimator_->GetProfile(r.system);
    entry = {&r.system, profile.ok() ? profile.value() : nullptr,
             health != nullptr && health->IsOpen(r.system, r.now)};
    return entry;
  };
  for (size_t i = 0; i < n; ++i) {
    // Deadline gate, as in Estimate(): an expired request gets its own
    // keyless, answered group — no cache probe, no computation, no fill.
    if (ctx.DeadlineExpiredAt(requests[i].now)) {
      group_of[i] = static_cast<uint32_t>(groups.size());
      groups.push_back({i, 0, 0, 0, false, /*answered=*/true,
                        /*from_cache=*/false});
      results.emplace_back(DeadlineExpired());
      continue;
    }
    // Until its answer arrives, the slot holds an empty estimate.
    results.emplace_back(core::HybridEstimate{});
    const SystemMemo& system = system_of(requests[i]);
    KeyTo(requests[i], bctx, system.profile, &scratch);
    uint64_t key_hash = 0;
    if (!scratch.empty()) {
      key_hash = EstimateCache::Hash(scratch);
      size_t slot = key_hash & dedup_mask;
      size_t dup_group = SIZE_MAX;
      while (dedup[slot].group_plus_1 != 0) {
        if (dedup[slot].hash == key_hash &&
            key_of(groups[dedup[slot].group_plus_1 - 1]).bytes == scratch) {
          dup_group = dedup[slot].group_plus_1 - 1;
          break;
        }
        slot = (slot + 1) & dedup_mask;
      }
      if (dup_group != SIZE_MAX) {
        // Duplicate of an earlier request: ride its group, no cache probe.
        group_of[i] = static_cast<uint32_t>(dup_group);
        continue;
      }
      dedup[slot] = {key_hash, static_cast<uint32_t>(groups.size() + 1)};
      // Start loading the key's set now, so the probes below overlap their
      // memory traffic instead of paying it one key at a time.
      cache_.Prefetch(key_hash);
    }
    // Canonical keys of one batch have similar lengths: reserving room
    // for as many as `groups` reserved usually sizes the arena once.
    if (keys.empty()) keys.reserve(groups.capacity() * scratch.size());
    group_of[i] = static_cast<uint32_t>(groups.size());
    groups.push_back({i, keys.size(), scratch.size(), key_hash,
                      system.breaker_open, false, false});
    keys += scratch;
  }
  // With every tag line on its way, start loading the ways whose tags
  // match, so each probe below finds its key's payload in cache too.
  for (const MissGroup& group : groups) {
    if (group.key_size != 0) cache_.PrefetchMatches(group.key_hash);
  }
  // Probe the cache once per distinct key, in first-occurrence order: the
  // first occurrence's probe decides for every duplicate in the batch (the
  // canonical key covers everything that can change the answer). A hit is
  // written straight into the group's first slot. Pass 2 and the cache
  // fill run only when a group is left unanswered.
  size_t unanswered = 0;
  for (MissGroup& group : groups) {
    if (group.answered) continue;
    if (group.key_size != 0) {
      core::HybridEstimate& slot = results[group.first_index].value();
      bool served_stale = false;
      if (cache_.Get(key_of(group), epoch, requests[group.first_index].now,
                     &slot,
                     /*allow_stale=*/group.breaker_open ||
                         ctx.admission_degraded,
                     &served_stale)) {
        if (served_stale) {
          slot.fell_back_reason = ServedStaleReason(group.breaker_open);
        }
        group.answered = group.from_cache = true;
        continue;
      }
    }
    ++unanswered;
  }

  if (unanswered > 0) {
    // Pass 2: compute the unique misses through
    // CostEstimator::EstimateBatch, which alone decides which rows share a
    // GEMM (DESIGN.md §14). With a pool the misses split into at most
    // `jobs` contiguous slices, one call each; otherwise one call takes
    // them all on the caller's thread. The estimator read path is const
    // and touches no shared mutable state; the trace sink and registries
    // are thread-safe by contract (DESIGN.md §9).
    std::vector<uint32_t> miss_groups;
    std::vector<core::EstimateContext> miss_ctxs;
    std::vector<core::EstimateRow> rows;
    miss_groups.reserve(unanswered);
    miss_ctxs.reserve(unanswered);  // pointer stability for rows[k].ctx
    rows.reserve(unanswered);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].answered) continue;
      const EstimateRequest& request = requests[groups[g].first_index];
      miss_groups.push_back(static_cast<uint32_t>(g));
      miss_ctxs.push_back(RequestContext(request, bctx));
      rows.push_back({&request.system, &request.op, &miss_ctxs.back()});
    }
    const size_t slices =
        pool_ != nullptr ? std::min<size_t>(options_.jobs, rows.size()) : 1;
    // Workers move their answers into disjoint first slots, so no
    // slice-level results are collected; RunIndexed is only the fan-out.
    (void)RunIndexed(pool_.get(), slices, [&](size_t s) {
      const size_t begin = rows.size() * s / slices;
      const size_t end = rows.size() * (s + 1) / slices;
      std::vector<Result<core::HybridEstimate>> out =
          estimator_->EstimateBatch(
              std::span<const core::EstimateRow>(rows).subspan(begin,
                                                               end - begin));
      for (size_t k = 0; k < out.size(); ++k) {
        results[groups[miss_groups[begin + k]].first_index] =
            std::move(out[k]);
      }
      return true;
    });

    // Pass 3: fill the cache from the groups pass 2 computed.
    for (uint32_t g : miss_groups) {
      const MissGroup& group = groups[g];
      const Result<core::HybridEstimate>& answer = results[group.first_index];
      if (group.key_size != 0 && Cacheable(answer, ctx)) {
        cache_.Put(key_of(group), epoch, requests[group.first_index].now,
                   answer.value());
      }
    }
  }

  // Duplicates copy their group's answer last, once it is final. Emits the
  // span's attributes.
  int64_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const MissGroup& g = groups[group_of[i]];
    // Every request riding a hit group counts as a served hit, duplicates
    // included.
    if (g.from_cache) ++hits;
    if (g.first_index != i) results[i] = results[g.first_index];
  }
  if (batch.enabled()) {
    int64_t unique_misses = 0;
    for (const MissGroup& g : groups) {
      if (!g.from_cache) ++unique_misses;
    }
    const int64_t misses = static_cast<int64_t>(n) - hits;
    batch.SetInt("size", static_cast<int64_t>(n))
        .SetInt("hits", hits)
        .SetInt("misses", misses)
        .SetInt("unique_misses", unique_misses)
        .SetInt("deduped", misses - unique_misses);
  }
  return results;
}

MetricsSnapshot EstimationService::StatsSnapshot() const {
  const CacheStats stats = cache_.Stats();
  const remote::HealthRegistry* health = options_.health;
  MetricsSnapshot snap;
  snap.samples = {
      {"serving.model_epoch", static_cast<double>(estimator_->model_epoch()),
       "count"},
      {"serving.jobs", static_cast<double>(options_.jobs), "count"},
      {"serving.cache.shards", static_cast<double>(options_.cache.shards),
       "count"},
      {"serving.cache.capacity", static_cast<double>(options_.cache.capacity),
       "count"},
      {"serving.cache.quantize_bits",
       static_cast<double>(options_.cache.quantize_bits), "count"},
      {"serving.cache.ttl_seconds", options_.cache.ttl_seconds, "s"},
      {"serving.cache.hits", static_cast<double>(stats.hits), "count"},
      {"serving.cache.misses", static_cast<double>(stats.misses), "count"},
      {"serving.cache.evictions", static_cast<double>(stats.evictions),
       "count"},
      {"serving.cache.stale_epoch", static_cast<double>(stats.stale_epoch),
       "count"},
      {"serving.cache.stale_served", static_cast<double>(stats.stale_served),
       "count"},
      {"serving.cache.entries", static_cast<double>(stats.entries), "count"},
      {"serving.cache.hit_rate", stats.HitRate(), "ratio"},
      {"serving.cache.lockless_hits", static_cast<double>(stats.lockless_hits),
       "count"},
      {"serving.cache.lockless_misses",
       static_cast<double>(stats.lockless_misses), "count"},
      {"serving.cache.locked_gets", static_cast<double>(stats.locked_gets),
       "count"},
      {"serving.health.tracked",
       health != nullptr ? static_cast<double>(health->TrackedCount()) : 0.0,
       "count"},
      {"serving.health.open",
       health != nullptr ? static_cast<double>(health->OpenCount()) : 0.0,
       "count"},
  };
  return snap;
}

}  // namespace intellisphere::serving
