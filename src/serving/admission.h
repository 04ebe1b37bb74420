// Tenant-aware admission control in front of EstimationService
// (DESIGN.md §17): the serving layer's protection against *load*, the way
// the circuit breakers (remote/health.h) are its protection against
// backend *faults*.
//
// Every request passes a three-rung response ladder before it may touch
// the estimator:
//
//   1. serve          — tokens available, queue shallow: the request is
//                       forwarded untouched (bit-identical to calling the
//                       service directly).
//   2. serve-degraded — the tenant's token bucket is empty or the virtual
//                       queue is past the degrade threshold: the request
//                       runs with EstimateContext::admission_degraded set,
//                       which routes it down the existing degradation
//                       ladder (sub-op formulas / last-known-good / stale
//                       model / stale cache entries) instead of the
//                       expensive logical-model forward pass. Degraded
//                       answers carry an "admission_overload:*" reason and
//                       are never cached.
//   3. shed           — the queue is full (ResourceExhausted), the request
//                       is background-priority under pressure
//                       (ResourceExhausted), or the queue model predicts
//                       the deadline cannot be met (DeadlineExceeded, shed
//                       *early*: no estimator work is wasted on an answer
//                       nobody can use).
//
// All state advances on the deployment clock carried by the requests
// themselves — no wall-clock reads — so admission decisions are exactly
// reproducible under a seeded traffic trace (traffic/harness.h). The
// queue is *virtual*: a leaky-bucket model (`queue_clears_at`, advanced by
// `service_seconds` per admitted request) rather than a real wait queue,
// which keeps Decide() O(1), lock-bounded, and deterministic.
//
// Concurrency contract: every method is const and safe for concurrent
// callers; admission state (buckets, virtual queue, tallies) lives behind
// one annotated Mutex. The wrapped service is only ever called *outside*
// the lock.

#ifndef INTELLISPHERE_SERVING_ADMISSION_H_
#define INTELLISPHERE_SERVING_ADMISSION_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/estimate_context.h"
#include "core/hybrid.h"
#include "serving/service.h"
#include "util/properties.h"
#include "util/runtime_metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace intellisphere::serving {

/// Properties keys for the admission controller (docs/CONFIG.md).
inline constexpr char kAdmissionTenantRateKey[] =
    "serving.admission.tenant_rate";
inline constexpr char kAdmissionTenantBurstKey[] =
    "serving.admission.tenant_burst";
inline constexpr char kAdmissionMaxQueueKey[] = "serving.admission.max_queue";
inline constexpr char kAdmissionDegradeFractionKey[] =
    "serving.admission.degrade_fraction";
inline constexpr char kAdmissionBackgroundFractionKey[] =
    "serving.admission.background_fraction";
inline constexpr char kAdmissionServiceSecondsKey[] =
    "serving.admission.service_seconds";

struct AdmissionOptions {
  /// Per-tenant token refill rate (requests/second of deployment time).
  double tenant_rate = 200.0;
  /// Per-tenant bucket capacity (burst allowance). A tenant whose bucket
  /// is empty is served degraded, not shed — rate limits bound *cost*,
  /// only queue pressure bounds *admission*.
  double tenant_burst = 50.0;
  /// Virtual queue capacity in requests. Admitting past this sheds with
  /// ResourceExhausted.
  int max_queue = 256;
  /// Queue depth (as a fraction of max_queue) beyond which even
  /// token-holding foreground requests are served degraded.
  double degrade_fraction = 0.5;
  /// Queue depth fraction beyond which background-priority requests
  /// (lifecycle shadow / retrain probes) are shed so foreground planners
  /// keep the capacity.
  double background_fraction = 0.25;
  /// Modeled per-request service time on the deployment clock; drives the
  /// leaky-bucket queue drain and deadline-feasibility prediction.
  double service_seconds = 0.0002;

  /// Reads the serving.admission.* keys; absent keys keep their defaults.
  [[nodiscard]] static Result<AdmissionOptions> FromProperties(
      const Properties& props);
  /// Range-checks the fields (rates/burst/service > 0, fractions in (0,1],
  /// max_queue >= 1).
  [[nodiscard]] Status Validate() const;
};

/// The rung of the response ladder a request landed on.
enum class AdmissionOutcome {
  kServe,
  kServeDegraded,
  kShedLoad,      ///< queue full, or background yielded to foreground
  kShedDeadline,  ///< predicted completion past the request deadline
};

const char* AdmissionOutcomeName(AdmissionOutcome outcome);

/// One admission decision with the detail the counters and trace span need.
struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kServe;
  /// The tenant's bucket lacked tokens (cause of a degraded serve).
  bool tenant_throttled = false;
  /// A background request was shed purely for its priority class.
  bool background_yield = false;
  /// Virtual queue depth (requests) observed at decision time.
  double queue_depth = 0.0;
};

/// Monotonic tallies since construction, plus live queue/bucket state.
struct AdmissionStats {
  int64_t admitted = 0;          ///< requests served at full fidelity
  int64_t degraded = 0;          ///< requests served degraded
  int64_t shed_load = 0;         ///< requests shed with ResourceExhausted
  int64_t shed_deadline = 0;     ///< requests shed with DeadlineExceeded
  int64_t tenant_throttled = 0;  ///< degraded serves caused by empty buckets
  int64_t background_yield = 0;  ///< background requests shed under pressure
  int64_t tenants_tracked = 0;   ///< distinct tenants with a bucket
  double queue_clears_at = 0.0;  ///< deployment time the virtual queue drains
};

/// Tenant-aware admission controller wrapping an EstimationService.
class AdmissionController {
 public:
  /// `service` must outlive the controller. Options are validated lazily:
  /// construct via validated FromProperties options, or call
  /// options().Validate() when assembling them by hand.
  explicit AdmissionController(const EstimationService* service,
                               AdmissionOptions options = {});

  /// Single-request path: one admission decision (tenant, priority, and
  /// deadline read from `ctx`; the clock from `request.now`), then either
  /// a forward to the wrapped service — context untouched on rung one,
  /// `admission_degraded` set on rung two — or a shed error
  /// (ResourceExhausted / DeadlineExceeded) with the estimator never
  /// invoked. Emits an `admission` trace span; Admit counts the decision
  /// in Stats().
  [[nodiscard]] Result<core::HybridEstimate> Estimate(
      const EstimateRequest& request,
      const core::EstimateContext& ctx = {}) const;

  /// Batch path: the batch is admitted or shed as a unit (one decision for
  /// all `requests.size()` slots, on the first request's clock), so a
  /// planner's candidate fan-out is never half-answered. Shed batches
  /// return the same status in every slot.
  [[nodiscard]] std::vector<Result<core::HybridEstimate>> EstimateBatch(
      std::span<const EstimateRequest> requests,
      const core::EstimateContext& ctx = {}) const;

  /// The decision alone (no service call): admits `batch_size` requests at
  /// deployment time `now` for `ctx`'s tenant/priority/deadline, advancing
  /// buckets and the virtual queue exactly as Estimate would. Exposed for
  /// tests and for callers that gate non-estimate work (lifecycle).
  AdmissionDecision Admit(size_t batch_size, double now,
                          const core::EstimateContext& ctx) const;

  /// True when background work should currently yield: the virtual queue
  /// at `now` is past the background_fraction threshold. Read-only (does
  /// not advance any state); the lifecycle manager polls this before
  /// launching retrains (DESIGN.md §17).
  bool ShouldYieldBackground(double now) const;

  AdmissionStats Stats() const;

  /// The controller's status in the BENCH metric shape: Stats() and the
  /// options as serving.admission.* samples. The controller counts each
  /// decision once, in Stats(); no registry holds serving.admission.* names
  /// (DESIGN.md §10).
  MetricsSnapshot StatsSnapshot() const;

  const AdmissionOptions& options() const { return options_; }
  const EstimationService* service() const { return service_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    double last_refill = 0.0;
  };

  double QueueDepthLocked(double now) const REQUIRES(mu_);

  /// The step Estimate and EstimateBatch share: one Admit decision for
  /// `size` requests at `now` (counted in Stats() by Admit), recorded in an
  /// `admission` span opened into `*span`. Returns the
  /// shed status, or OK with `*served` set to the context the admitted
  /// work runs under (nested under the span, admission-degraded on rung
  /// two).
  Status Gate(size_t size, double now, const core::EstimateContext& ctx,
              TraceSpan* span, core::EstimateContext* served) const;

  const EstimationService* service_;
  AdmissionOptions options_;
  /// Admission is a hidden side effect of the logically-const serve path
  /// (same pattern as the service's cache).
  mutable Mutex mu_;
  mutable double queue_clears_at_ GUARDED_BY(mu_) = 0.0;
  mutable std::map<std::string, Bucket, std::less<>> buckets_ GUARDED_BY(mu_);
  mutable AdmissionStats tallies_ GUARDED_BY(mu_);
};

}  // namespace intellisphere::serving

#endif  // INTELLISPHERE_SERVING_ADMISSION_H_
