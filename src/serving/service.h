// The concurrent estimate-serving front-end (DESIGN.md §11): a thread-safe
// EstimationService wrapping the CostEstimator registry with the sharded
// estimate cache and a batch entry point that spreads cache misses over the
// shared util::ThreadPool.
//
// Concurrency contract: every const method here is safe for concurrent
// callers — the CostEstimator read path touches no mutable state, the cache
// reads lock-free and writes under one shard lock, and the pool serializes
// its queue. Mutation of the
// wrapped estimator (retraining, LogActual, profile swaps) must happen in
// an exclusive section with no estimate calls in flight; the model-epoch
// fence (CostEstimator::model_epoch) then guarantees no estimate computed
// before the mutation is ever served from the cache after it.
//
// Lock discipline (DESIGN.md §13): the service itself holds no locks — all
// shared mutable state lives behind the annotated Mutex/GUARDED_BY members
// of EstimateCache, MetricsRegistry, and HealthRegistry, each of which is
// self-contained (no component calls into another while holding its lock).

#ifndef INTELLISPHERE_SERVING_SERVICE_H_
#define INTELLISPHERE_SERVING_SERVICE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/estimate_context.h"
#include "core/hybrid.h"
#include "relational/query.h"
#include "serving/estimate_cache.h"
#include "util/properties.h"
#include "util/runtime_metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace intellisphere::serving {

/// Properties key for the service's miss-computation parallelism
/// (documented in docs/CONFIG.md).
inline constexpr char kServingJobsKey[] = "serving.jobs";

/// One estimate request: which system, which operator, at what deployment
/// time, under which (optional) choice-policy override. The request's
/// override wins over the context's.
struct EstimateRequest {
  std::string system;
  rel::SqlOperator op;
  double now = 0.0;
  std::optional<core::ChoicePolicy> policy_override;
};

struct ServiceOptions {
  CacheOptions cache;
  /// Worker threads for batch cache misses, which split into at most
  /// `jobs` contiguous slices; 0 = HardwareConcurrency(), 1 = compute
  /// misses inline on the caller's thread.
  int jobs = 0;
  /// Circuit-breaker registry consulted per request (DESIGN.md §12). When
  /// the target system's breaker is open, a TTL-expired cache entry is
  /// served rather than discarded (flagged "breaker_open:served_stale"),
  /// and estimator results degrade through the fallback ladder. Used only
  /// when the per-call EstimateContext carries no registry of its own; a
  /// wiring concern, so not read from Properties. Must outlive the
  /// service; null disables breaker awareness.
  const remote::HealthRegistry* health = nullptr;

  /// Reads serving.jobs and the serving.cache.* keys; absent keys keep
  /// their defaults.
  [[nodiscard]] static Result<ServiceOptions> FromProperties(
      const Properties& props);
};

/// Thread-safe estimation front-end over a CostEstimator.
class EstimationService {
 public:
  /// `estimator` must outlive the service and must not be mutated while
  /// estimate calls are in flight (see the header comment).
  explicit EstimationService(const core::CostEstimator* estimator,
                             ServiceOptions options = {});

  /// Single-request path: cache lookup, then compute-and-fill on a miss.
  /// Cache hits return without invoking the estimator, so they emit no
  /// estimate.* spans or counters — cache_stats().hits is the signal.
  /// A context whose deadline already passed at request.now is rejected
  /// with DeadlineExceeded before the cache is touched; an
  /// admission-degraded context may be answered from a stale entry
  /// ("admission_overload:served_stale") and never fills the cache
  /// (DESIGN.md §17).
  [[nodiscard]] Result<core::HybridEstimate> Estimate(
      const EstimateRequest& request,
      const core::EstimateContext& ctx = {}) const;

  /// Batch path: deduplicates requests with identical canonical keys — one
  /// cache probe and at most one computation per distinct key, with the
  /// first occurrence's probe answering every duplicate — then computes
  /// the distinct-key misses through CostEstimator::EstimateBatch (one
  /// fused GEMM per network layer for each model's rows, DESIGN.md §14):
  /// one call inline when jobs = 1, else one call per contiguous slice of
  /// the misses on the service's pool (at most `jobs` slices). Results are
  /// returned in request order, bit-identical to the single-request path;
  /// an estimator error for one request does not fail the batch. Requests
  /// whose deadline already passed get a per-request DeadlineExceeded with
  /// no cache traffic, exactly like the scalar path. Emits a
  /// `serving.batch` span with size/hits/misses/unique_misses/deduped
  /// attributes when the context has a trace sink.
  [[nodiscard]] std::vector<Result<core::HybridEstimate>> EstimateBatch(
      std::span<const EstimateRequest> requests,
      const core::EstimateContext& ctx = {}) const;

  /// Cumulative cache statistics.
  CacheStats cache_stats() const { return cache_.Stats(); }

  /// Drops every cached entry (epoch fencing makes this unnecessary for
  /// correctness; exposed for tests and memory pressure).
  void InvalidateCache() const { cache_.Clear(); }

  /// The service's status in the BENCH_<name>.json metric shape: the
  /// wrapped estimator's model epoch, serving.jobs, the cache's
  /// configuration and counts (serving.cache.*), and the breaker registry's
  /// tracked/open counts (serving.health.*; 0 without a registry). The
  /// cache counts each event once, in its own Counters; no registry holds
  /// these names (DESIGN.md §10).
  MetricsSnapshot StatsSnapshot() const;

  const ServiceOptions& options() const { return options_; }
  const core::CostEstimator* estimator() const { return estimator_; }

 private:
  /// Rebuilds the canonical key for a request of `profile`'s system into
  /// `*out`, reusing its buffer; empty when `profile` is null (unknown
  /// system: uncacheable, and the compute path surfaces the NotFound).
  void KeyTo(const EstimateRequest& request, const core::EstimateContext& ctx,
             const core::CostingProfile* profile, std::string* out) const;

  /// The per-request context handed to the estimator: the batch context
  /// with the request's clock and effective policy override.
  core::EstimateContext RequestContext(const EstimateRequest& request,
                                       const core::EstimateContext& ctx) const;

  const core::CostEstimator* estimator_;
  ServiceOptions options_;
  /// Caching is a hidden side effect of the logically-const read path.
  mutable EstimateCache cache_;
  /// Null when jobs <= 1; ThreadPool::Submit is thread-safe, so concurrent
  /// batches share the pool.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace intellisphere::serving

#endif  // INTELLISPHERE_SERVING_SERVICE_H_
