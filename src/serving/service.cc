#include "serving/service.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <map>
#include <string_view>
#include <utility>

#include "remote/health.h"
#include "util/json.h"

namespace intellisphere::serving {

namespace {

/// Cached serving.cache.* counter pointers, mirroring hybrid.cc's
/// EstimationInstruments pattern: the Global() set resolves once per
/// process; a context-supplied registry (tests) resolves per call.
struct ServingInstruments {
  Counter* hits = nullptr;
  Counter* misses = nullptr;
  Counter* evictions = nullptr;
  Counter* stale_epoch = nullptr;
  Counter* stale_served = nullptr;

  ServingInstruments() = default;
  explicit ServingInstruments(MetricsRegistry& r)
      : hits(r.GetCounter("serving.cache.hits")),
        misses(r.GetCounter("serving.cache.misses")),
        evictions(r.GetCounter("serving.cache.evictions")),
        stale_epoch(r.GetCounter("serving.cache.stale_epoch")),
        stale_served(r.GetCounter("serving.cache.stale_served")) {}

  CacheCounters AsCacheCounters() const {
    return CacheCounters{hits, misses, evictions, stale_epoch, stale_served};
  }
};

const ServingInstruments& GlobalServingInstruments() {
  static const ServingInstruments* instruments =
      new ServingInstruments(MetricsRegistry::Global());
  return *instruments;
}

CacheCounters CountersFor(const core::EstimateContext& ctx) {
  if (ctx.metrics != nullptr) {
    return ServingInstruments(*ctx.metrics).AsCacheCounters();
  }
  return GlobalServingInstruments().AsCacheCounters();
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
  if (props.Contains(kServingBatchMinGroupSizeKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t size,
                             props.GetInt(kServingBatchMinGroupSizeKey));
    if (size < 1) {
      return Status::InvalidArgument(
          "serving.batch.min_group_size must be >= 1");
    }
    opts.batch_min_group_size = static_cast<int>(size);
  }
  if (props.Contains(kServingBatchChunkRowsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t rows,
                             props.GetInt(kServingBatchChunkRowsKey));
    if (rows < 1) {
      return Status::InvalidArgument("serving.batch.chunk_rows must be >= 1");
    }
    opts.batch_chunk_rows = static_cast<int>(rows);
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

std::string EstimationService::KeyFor(const EstimateRequest& request,
                                      const core::EstimateContext& ctx) const {
  std::string key;
  KeyForTo(request, ctx, &key);
  return key;
}

void EstimationService::KeyForTo(const EstimateRequest& request,
                                 const core::EstimateContext& ctx,
                                 std::string* out) const {
  auto profile = estimator_->GetProfile(request.system);
  KeyWithProfileTo(request, ctx, profile.ok() ? profile.value() : nullptr,
                   out);
}

void EstimationService::KeyWithProfileTo(const EstimateRequest& request,
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
  // Deadline gate (DESIGN.md §17): a request whose deadline already passed
  // on the deployment clock is rejected before the cache is touched — no
  // probe, no fill — so expired work can neither publish into nor be
  // answered from shared state.
  if (ctx.DeadlineExpiredAt(request.now)) {
    return Status::DeadlineExceeded("estimate deadline expired before serving");
  }
  const CacheCounters counters = CountersFor(ctx);
  // The epoch is captured *before* the cache probe and the computation, so
  // a retrain racing this call can only make the stored entry stale, never
  // let a pre-retrain value masquerade as fresh.
  const uint64_t epoch = estimator_->model_epoch();
  const std::string key = KeyFor(request, ctx);
  const remote::HealthRegistry* health =
      ctx.health != nullptr ? ctx.health : options_.health;
  const bool breaker_open =
      health != nullptr && health->IsOpen(request.system, request.now);
  // A TTL-expired entry beats recomputing when the backend is unreachable
  // (breaker open) or the serving layer itself is overloaded (admission
  // degraded); the flag names whichever cause applies (breaker wins).
  const bool allow_stale = breaker_open || ctx.admission_degraded;
  if (!key.empty()) {
    bool served_stale = false;
    if (auto hit = cache_.Get(key, epoch, request.now, counters,
                              allow_stale, &served_stale)) {
      if (served_stale) {
        core::HybridEstimate est = *std::move(hit);
        est.fell_back_reason = breaker_open
                                   ? "breaker_open:served_stale"
                                   : "admission_overload:served_stale";
        return est;
      }
      return *std::move(hit);
    }
  }
  auto result =
      estimator_->Estimate(request.system, request.op,
                           RequestContext(request, ctx));
  // Degraded results (non-empty fell_back_reason) are never cached: once
  // the breaker closes, callers should get the real estimate again, not a
  // memoized fallback. Admission-degraded requests never fill the cache
  // either, even when their answer happens to be full fidelity (sub-op
  // profiles): overload outcomes must not become durable state.
  if (result.ok() && !key.empty() &&
      result.value().fell_back_reason.empty() && !ctx.admission_degraded) {
    cache_.Put(key, epoch, request.now, result.value(), counters);
  }
  return result;
}

std::vector<Result<core::HybridEstimate>> EstimationService::EstimateBatch(
    std::span<const EstimateRequest> requests,
    const core::EstimateContext& ctx) const {
  const CacheCounters counters = CountersFor(ctx);
  TraceSpan batch = ctx.StartSpan("serving.batch");
  const core::EstimateContext bctx = ctx.Under(batch);
  const uint64_t epoch = estimator_->model_epoch();

  const size_t n = requests.size();

  // Pass 1: group the requests by canonical key, probing the cache once
  // per distinct key — the first occurrence's probe decides for every
  // duplicate in the batch (the canonical key covers everything that can
  // change the answer). One group per distinct key; misses are computed
  // exactly once in pass 2. Requests whose key cannot be built (unknown
  // system) each get their own keyless group so errors stay per-request.
  // The scratch buffer keeps the duplicate path allocation-free, and the
  // distinct keys share one arena string.
  struct MissGroup {
    size_t first_index = 0;
    /// The group's last request, which takes the answer by move.
    size_t last_index = 0;
    /// The key's bytes in `keys`; empty for uncacheable requests.
    size_t key_offset = 0;
    size_t key_size = 0;
    /// Captured from the pass-1 memo so pass 2 can group by model without
    /// re-resolving the profile (null = unknown system).
    const core::CostingProfile* profile = nullptr;
    bool breaker_open = false;
    /// Answered by a cache hit in pass 1: computed[g] already holds the
    /// value; pass 2 skips the group, the fan-out only hands it on.
    bool from_cache = false;
    /// Answered with an error in pass 1 (expired deadline): keyless, never
    /// computed, never cached.
    bool preanswered = false;
  };
  std::vector<MissGroup> groups;
  std::string keys;
  const auto key_of = [&keys](const MissGroup& g) {
    return std::string_view(keys).substr(g.key_offset, g.key_size);
  };
  // One answer slot per group: cache hits land here in pass 1, computed
  // misses in pass 2, and the final fan-out hands computed[group_of[i]] to
  // each request — no per-slot prefill churn.
  std::vector<Result<core::HybridEstimate>> computed;
  std::vector<uint32_t> group_of(n, 0);
  // Worst case is all-distinct (one group per request), but batches skew
  // heavily toward repeats; 64 covers typical fan-in without a realloc.
  groups.reserve(std::min<size_t>(n, 64));
  computed.reserve(std::min<size_t>(n, 64));
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
  // Per-batch memo of the last (system -> profile, breaker state)
  // resolution: batches overwhelmingly target one system, and the
  // estimator may not be mutated mid-batch (class contract), so the
  // pointer stays valid for the batch. The breaker memo tolerates
  // intra-batch `now` variance — it gates a degradation decision (flagged
  // in the result), never a correctness one.
  const remote::HealthRegistry* health =
      ctx.health != nullptr ? ctx.health : options_.health;
  const std::string* memo_system = nullptr;
  const core::CostingProfile* memo_profile = nullptr;
  bool memo_breaker_open = false;
  // Groups pass 1 left unanswered: pass 2 and the cache fill run only when
  // there is one.
  size_t unanswered = 0;
  for (size_t i = 0; i < n; ++i) {
    // Deadline gate, mirrored from Estimate(): an expired request gets a
    // per-request DeadlineExceeded with no cache probe, no computation,
    // and (keyless group) no cache fill.
    if (ctx.DeadlineExpiredAt(requests[i].now)) {
      group_of[i] = static_cast<uint32_t>(groups.size());
      MissGroup shed;
      shed.first_index = i;
      shed.last_index = i;
      shed.preanswered = true;
      groups.push_back(shed);
      computed.emplace_back(
          Status::DeadlineExceeded("estimate deadline expired before serving"));
      continue;
    }
    if (memo_system == nullptr || *memo_system != requests[i].system) {
      auto profile = estimator_->GetProfile(requests[i].system);
      memo_profile = profile.ok() ? profile.value() : nullptr;
      memo_breaker_open = health != nullptr &&
                          health->IsOpen(requests[i].system, requests[i].now);
      memo_system = &requests[i].system;
    }
    KeyWithProfileTo(requests[i], bctx, memo_profile, &scratch);
    std::optional<core::HybridEstimate> hit;
    if (!scratch.empty()) {
      const uint64_t key_hash = std::hash<std::string_view>{}(scratch);
      size_t slot = key_hash & dedup_mask;
      size_t dup_group = SIZE_MAX;
      while (dedup[slot].group_plus_1 != 0) {
        if (dedup[slot].hash == key_hash &&
            key_of(groups[dedup[slot].group_plus_1 - 1]) == scratch) {
          dup_group = dedup[slot].group_plus_1 - 1;
          break;
        }
        slot = (slot + 1) & dedup_mask;
      }
      if (dup_group != SIZE_MAX) {
        // Duplicate of an earlier request: ride its group, no cache probe.
        group_of[i] = static_cast<uint32_t>(dup_group);
        groups[dup_group].last_index = i;
        continue;
      }
      dedup[slot] = {key_hash, static_cast<uint32_t>(groups.size() + 1)};
      bool served_stale = false;
      hit = cache_.Get(scratch, epoch, requests[i].now, counters,
                       /*allow_stale=*/memo_breaker_open ||
                           ctx.admission_degraded,
                       &served_stale);
      if (hit && served_stale) {
        hit->fell_back_reason = memo_breaker_open
                                    ? "breaker_open:served_stale"
                                    : "admission_overload:served_stale";
      }
    }
    MissGroup group;
    group.first_index = i;
    group.last_index = i;
    group.key_offset = keys.size();
    group.key_size = scratch.size();
    group.profile = memo_profile;
    group.breaker_open = memo_breaker_open;
    group.from_cache = hit.has_value();
    // Canonical keys of one batch have similar lengths: reserving room
    // for as many as `groups` reserved usually sizes the arena once.
    if (keys.empty()) keys.reserve(groups.capacity() * scratch.size());
    keys += scratch;
    group_of[i] = static_cast<uint32_t>(groups.size());
    groups.push_back(group);
    if (hit) {
      computed.emplace_back(*std::move(hit));
    } else {
      computed.emplace_back(Status::Internal("unfilled"));
      ++unanswered;
    }
  }

  // Fan every group's answer out to its requests in request order; each
  // group's last request takes the answer by move. Emits the span's
  // attributes.
  int64_t batched_groups = 0;
  const auto fan_out = [&] {
    std::vector<Result<core::HybridEstimate>> results;
    results.reserve(n);
    int64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const MissGroup& g = groups[group_of[i]];
      // Every request riding a hit group counts as a served hit,
      // duplicates included.
      if (g.from_cache) ++hits;
      if (g.last_index == i) {
        results.push_back(std::move(computed[group_of[i]]));
      } else {
        results.push_back(computed[group_of[i]]);
      }
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
          .SetInt("deduped", misses - unique_misses)
          .SetInt("batched", batched_groups);
    }
    return results;
  };
  // All-hit batch (the warm planner's usual case): nothing to compute or
  // fill.
  if (unanswered == 0) return fan_out();

  // Pass 2: compute the unique misses. Distinct-key groups routed to the
  // same (system, logical-operator model) are fused into batched work
  // units — one CostEstimator::EstimateBatch call lowers the whole unit's
  // network forward passes into a single GEMM per layer (DESIGN.md §14).
  // Everything else (unknown systems, sub-op routes, open breakers, groups
  // smaller than batch_min_group_size) keeps the scalar path. Units are
  // fanned out over the pool (inline when jobs = 1 or there is at most one
  // unit). The estimator read path is const and touches no shared mutable
  // state; the trace sink and registries are thread-safe by contract
  // (DESIGN.md §9).
  const size_t num_groups = groups.size();
  struct WorkUnit {
    bool batched = false;
    std::vector<size_t> gs;  ///< group ids computed by this unit
  };
  std::vector<WorkUnit> units;
  units.reserve(num_groups);
  {
    // (system, operator type) identifies the model: the pass-1 memo maps
    // one system to one profile, and the profile holds one logical model
    // per operator type.
    std::map<std::pair<std::string_view, rel::OperatorType>,
             std::vector<size_t>>
        model_groups;
    std::vector<size_t> scalar_groups;
    for (size_t g = 0; g < num_groups; ++g) {
      // Already answered in pass 1 (cache hit or expired deadline).
      if (groups[g].from_cache || groups[g].preanswered) continue;
      const EstimateRequest& rep = requests[groups[g].first_index];
      const core::CostingProfile* p = groups[g].profile;
      if (p != nullptr && !groups[g].breaker_open &&
          p->RoutesToLogicalModel(rep.op.type, RequestContext(rep, bctx))) {
        model_groups[{rep.system, rep.op.type}].push_back(g);
      } else {
        scalar_groups.push_back(g);
      }
    }
    const size_t min_group =
        static_cast<size_t>(std::max(1, options_.batch_min_group_size));
    const size_t chunk_rows =
        static_cast<size_t>(std::max(1, options_.batch_chunk_rows));
    for (auto& [model, gs] : model_groups) {
      if (gs.size() < min_group) {
        scalar_groups.insert(scalar_groups.end(), gs.begin(), gs.end());
        continue;
      }
      for (size_t begin = 0; begin < gs.size(); begin += chunk_rows) {
        const size_t end = std::min(begin + chunk_rows, gs.size());
        units.push_back(WorkUnit{
            true, std::vector<size_t>(gs.begin() + begin, gs.begin() + end)});
      }
    }
    std::sort(scalar_groups.begin(), scalar_groups.end());
    for (size_t g : scalar_groups) {
      units.push_back(WorkUnit{false, {g}});
    }
  }

  const auto compute_scalar = [&](size_t g) {
    const EstimateRequest& request = requests[groups[g].first_index];
    computed[g] = estimator_->Estimate(request.system, request.op,
                                       RequestContext(request, bctx));
  };
  const size_t num_units = units.size();
  ThreadPool* pool =
      (pool_ != nullptr && num_units > 1) ? pool_.get() : nullptr;
  // Workers write disjoint computed[g] slots, so no unit-level results are
  // collected; RunIndexed is only the fan-out.
  (void)RunIndexed(pool, num_units, [&](size_t u) -> bool {
    const WorkUnit& unit = units[u];
    if (!unit.batched) {
      compute_scalar(unit.gs.front());
      return true;
    }
    const std::string& system =
        requests[groups[unit.gs.front()].first_index].system;
    std::vector<const rel::SqlOperator*> ops;
    std::vector<core::EstimateContext> ctx_storage;
    std::vector<const core::EstimateContext*> ctxs;
    ops.reserve(unit.gs.size());
    ctx_storage.reserve(unit.gs.size());  // pointer stability for ctxs
    ctxs.reserve(unit.gs.size());
    for (size_t g : unit.gs) {
      const EstimateRequest& request = requests[groups[g].first_index];
      ops.push_back(&request.op);
      ctx_storage.push_back(RequestContext(request, bctx));
      ctxs.push_back(&ctx_storage.back());
    }
    std::vector<Result<core::HybridEstimate>> outs;
    const Status st = estimator_->EstimateBatch(system, ops, ctxs, &outs);
    if (!st.ok()) {
      // Batch-level failure: recompute every member through the scalar
      // path so per-request errors surface exactly as the unbatched path
      // would report them.
      for (size_t g : unit.gs) compute_scalar(g);
      return true;
    }
    for (size_t k = 0; k < unit.gs.size(); ++k) {
      computed[unit.gs[k]] = std::move(outs[k]);
    }
    return true;
  });
  for (const WorkUnit& unit : units) {
    if (unit.batched) batched_groups += static_cast<int64_t>(unit.gs.size());
  }

  // Pass 3: fill the cache from freshly computed groups (degraded, shed,
  // and admission-degraded results are never cached, see Estimate()), then
  // fan the answers out.
  for (size_t g = 0; g < num_groups; ++g) {
    // Answered in pass 1: a hit needs no refill, a shed must never fill.
    if (groups[g].from_cache || groups[g].preanswered) continue;
    if (computed[g].ok() && groups[g].key_size != 0 &&
        computed[g].value().fell_back_reason.empty() &&
        !ctx.admission_degraded) {
      scratch.assign(key_of(groups[g]));
      cache_.Put(scratch, epoch, requests[groups[g].first_index].now,
                 computed[g].value(), counters);
    }
  }
  return fan_out();
}

MetricsSnapshot EstimationService::StatsSnapshot() const {
  const CacheStats stats = cache_.Stats();
  MetricsSnapshot snap;
  snap.samples = {
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
  };
  return snap;
}

std::string EstimationService::ExplainJson() const {
  const CacheStats stats = cache_.Stats();
  std::string json = "{\n  \"serving\": {\n";
  json += "    \"model_epoch\": " +
          std::to_string(estimator_->model_epoch()) + ",\n";
  json += "    \"jobs\": " + std::to_string(options_.jobs) + ",\n";
  json += "    \"cache\": {\n";
  json += "      \"shards\": " + std::to_string(options_.cache.shards) +
          ",\n";
  json += "      \"capacity\": " + std::to_string(options_.cache.capacity) +
          ",\n";
  json += "      \"ttl_seconds\": " + JsonNumberShort(
              options_.cache.ttl_seconds) + ",\n";
  json += "      \"quantize_bits\": " +
          std::to_string(options_.cache.quantize_bits) + ",\n";
  json += "      \"entries\": " + std::to_string(stats.entries) + ",\n";
  json += "      \"hits\": " + std::to_string(stats.hits) + ",\n";
  json += "      \"misses\": " + std::to_string(stats.misses) + ",\n";
  json += "      \"evictions\": " + std::to_string(stats.evictions) + ",\n";
  json += "      \"stale_epoch\": " + std::to_string(stats.stale_epoch) +
          ",\n";
  json += "      \"stale_served\": " + std::to_string(stats.stale_served) +
          ",\n";
  json += "      \"lockless_hits\": " + std::to_string(stats.lockless_hits) +
          ",\n";
  json += "      \"lockless_misses\": " +
          std::to_string(stats.lockless_misses) + ",\n";
  json += "      \"locked_gets\": " + std::to_string(stats.locked_gets) +
          ",\n";
  json += "      \"hit_rate\": " + JsonNumberShort(stats.HitRate()) + "\n";
  json += "    },\n";
  const int64_t tracked =
      options_.health != nullptr
          ? static_cast<int64_t>(options_.health->TrackedCount())
          : 0;
  const int64_t open =
      options_.health != nullptr
          ? static_cast<int64_t>(options_.health->OpenCount())
          : 0;
  json += "    \"health\": {\n";
  json += "      \"tracked\": " + std::to_string(tracked) + ",\n";
  json += "      \"open\": " + std::to_string(open) + "\n";
  json += "    }\n  }\n}\n";
  return json;
}

}  // namespace intellisphere::serving
