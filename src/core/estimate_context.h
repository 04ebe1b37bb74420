// Per-call context for the estimation path. EstimateContext replaces the
// bare `double now` parameter that CostingProfile::Estimate and the
// federation planners used to take: the deployment clock still rides along,
// but the struct also carries the observability hooks (trace sink, metrics
// registry, provenance detail level) and an optional choice-policy override
// — none of which had anywhere to live in the old signature.
//
// The default-constructed context is the fast path: no sink, no metrics
// registry, cost-only detail. Instrumented code checks `tracing()` /
// `provenance()` / `timing()` before doing any work beyond the estimate
// itself, which is what keeps the disabled path inside the <2% latency
// budget (DESIGN.md §10).

#ifndef INTELLISPHERE_CORE_ESTIMATE_CONTEXT_H_
#define INTELLISPHERE_CORE_ESTIMATE_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/runtime_metrics.h"
#include "util/trace.h"

namespace intellisphere::remote {
class HealthRegistry;
}  // namespace intellisphere::remote

namespace intellisphere::core {

/// How to resolve multiple applicable algorithms (Section 4): assume the
/// worst case, the average, or what the in-house (Teradata) optimizer
/// would pick — its cheapest candidate.
enum class ChoicePolicy {
  kWorstCase,
  kAverage,
  kInHouseComparable,
};

const char* ChoicePolicyName(ChoicePolicy policy);

/// Scheduling class for a request, consulted by the serving-layer
/// admission controller (serving/admission.h). Foreground traffic is
/// planner-facing and keeps serving at pressure levels where background
/// traffic (lifecycle shadow evaluation, retrain probes, warmups) is
/// already shed — DESIGN.md §17.
enum class RequestPriority {
  kForeground,
  kBackground,
};

const char* RequestPriorityName(RequestPriority priority);

/// How much provenance an estimate call should collect.
enum class EstimateDetail {
  /// Numbers only — elimination reasons and candidate lists that require
  /// string building are skipped (cheap integer tallies are always kept).
  kCostOnly,
  /// Full provenance: eliminated candidates with the rule text that killed
  /// them. What EXPLAIN and the federation planners ask for.
  kProvenance,
};

struct EstimateContext {
  /// Deployment clock in seconds, consulted by time-phased profiles.
  double now = 0.0;
  /// Optional span sink; spans are emitted only when set.
  TraceSink* trace = nullptr;
  /// Span id new root spans attach under (0 = top-level).
  int64_t parent_span = 0;
  EstimateDetail detail = EstimateDetail::kCostOnly;
  /// Overrides the estimator's configured algorithm-choice policy for this
  /// call only.
  std::optional<ChoicePolicy> policy_override;
  /// Destination of the estimator's `estimate.*` and the planner's `plan.*`
  /// counters and histograms; nullptr = MetricsRegistry::Global(). Serving,
  /// admission and lifecycle counts are not routed here: each component
  /// counts its own events (their StatsSnapshot(), DESIGN.md §10).
  MetricsRegistry* metrics = nullptr;
  /// Per-system breaker states (see remote/health.h); when set, the
  /// estimator consults it and degrades estimates for systems whose
  /// breaker is open. nullptr = no health checks (the fast path).
  const remote::HealthRegistry* health = nullptr;
  /// Set by CostEstimator::Estimate when `health` reports the target
  /// system's breaker open at `now`; CostingProfile::Estimate then walks
  /// the degradation ladder (DESIGN.md §12) instead of trusting remote
  /// signals.
  bool breaker_open = false;
  /// Absolute deployment-clock deadline for this request (seconds; 0 = no
  /// deadline). The serving layer rejects work whose deadline already
  /// passed with DeadlineExceeded before touching the cache, and the
  /// admission controller sheds batches *early* when its queue model
  /// predicts they cannot finish in time (DESIGN.md §17).
  double deadline_seconds = 0.0;
  /// Tenant identity for per-tenant admission accounting (token buckets,
  /// SLO attribution). A view, not a copy: the caller owns the backing
  /// string for the duration of the call. Empty = the anonymous tenant.
  std::string_view tenant;
  /// Scheduling class; background traffic yields to foreground under
  /// queue pressure (serving/admission.h).
  RequestPriority priority = RequestPriority::kForeground;
  /// Set by AdmissionController when it admits a request in degraded mode
  /// (rung two of the serve → serve-degraded → shed ladder).
  /// CostingProfile::Estimate then walks the same degradation ladder as
  /// breaker_open, with "admission_overload:*" fallback reasons, and the
  /// serving layer may answer from a stale cache entry. Degraded results
  /// are never written back to the cache.
  bool admission_degraded = false;

  /// Whether `deadline_seconds` is set and already behind clock `at`.
  bool DeadlineExpiredAt(double at) const {
    return deadline_seconds > 0.0 && at > deadline_seconds;
  }

  bool tracing() const { return trace != nullptr; }
  /// Whether to build string-typed provenance (reason texts, candidate
  /// lists). Tracing implies provenance: a span consumer sees the same
  /// breakdown EXPLAIN would.
  bool provenance() const {
    return detail == EstimateDetail::kProvenance || trace != nullptr;
  }
  /// Whether to read the clock for the latency histogram. Only worth the
  /// steady_clock calls when someone is looking.
  bool timing() const { return trace != nullptr || metrics != nullptr; }

  /// Starts a root span under `parent_span` (disabled when no sink).
  TraceSpan StartSpan(std::string name) const {
    return TraceSpan(trace, std::move(name), parent_span);
  }

  /// A copy of this context whose new spans nest under `span` — how a
  /// caller hands its own span down to Estimate as the parent.
  EstimateContext Under(const TraceSpan& span) const {
    EstimateContext child = *this;
    child.parent_span = span.id();
    return child;
  }

  /// A context carrying only the deployment clock — the minimal upgrade
  /// for callers that used to pass a bare `double now` (the deprecated
  /// overloads themselves are gone). Guarantee: `metrics` stays nullptr,
  /// so clock-only callers still record the ambient `estimate.approach.*` /
  /// `plan.*` counters in MetricsRegistry::Global(). `metrics` is
  /// deliberately NOT set to &Global() explicitly: that would flip
  /// `timing()` on and add clock reads + a latency histogram to every
  /// clock-only call.
  static EstimateContext AtTime(double now) {
    EstimateContext ctx;
    ctx.now = now;
    return ctx;
  }
};

}  // namespace intellisphere::core

#endif  // INTELLISPHERE_CORE_ESTIMATE_CONTEXT_H_
