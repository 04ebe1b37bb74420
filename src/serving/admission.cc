#include "serving/admission.h"

#include <algorithm>
#include <utility>

namespace intellisphere::serving {

namespace {

/// The shed statuses. Fixed texts (no interpolated depths) so shed errors
/// compare equal across runs and replicas.
Status ShedStatus(AdmissionOutcome outcome) {
  if (outcome == AdmissionOutcome::kShedDeadline) {
    return Status::DeadlineExceeded(
        "admission: queue model predicts completion past the request "
        "deadline");
  }
  return Status::ResourceExhausted(
      "admission: serving overloaded, request shed");
}

}  // namespace

Result<AdmissionOptions> AdmissionOptions::FromProperties(
    const Properties& props) {
  AdmissionOptions opts;
  if (props.Contains(kAdmissionTenantRateKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.tenant_rate,
                             props.GetDouble(kAdmissionTenantRateKey));
  }
  if (props.Contains(kAdmissionTenantBurstKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.tenant_burst,
                             props.GetDouble(kAdmissionTenantBurstKey));
  }
  if (props.Contains(kAdmissionMaxQueueKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t max_queue,
                             props.GetInt(kAdmissionMaxQueueKey));
    opts.max_queue = static_cast<int>(max_queue);
  }
  if (props.Contains(kAdmissionDegradeFractionKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.degrade_fraction,
                             props.GetDouble(kAdmissionDegradeFractionKey));
  }
  if (props.Contains(kAdmissionBackgroundFractionKey)) {
    ISPHERE_ASSIGN_OR_RETURN(
        opts.background_fraction,
        props.GetDouble(kAdmissionBackgroundFractionKey));
  }
  if (props.Contains(kAdmissionServiceSecondsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.service_seconds,
                             props.GetDouble(kAdmissionServiceSecondsKey));
  }
  ISPHERE_RETURN_NOT_OK(opts.Validate());
  return opts;
}

Status AdmissionOptions::Validate() const {
  if (!(tenant_rate > 0.0)) {
    return Status::InvalidArgument(
        "serving.admission.tenant_rate must be > 0");
  }
  if (!(tenant_burst > 0.0)) {
    return Status::InvalidArgument(
        "serving.admission.tenant_burst must be > 0");
  }
  if (max_queue < 1) {
    return Status::InvalidArgument(
        "serving.admission.max_queue must be >= 1");
  }
  if (!(degrade_fraction > 0.0) || degrade_fraction > 1.0) {
    return Status::InvalidArgument(
        "serving.admission.degrade_fraction must be in (0, 1]");
  }
  if (!(background_fraction > 0.0) || background_fraction > 1.0) {
    return Status::InvalidArgument(
        "serving.admission.background_fraction must be in (0, 1]");
  }
  if (!(service_seconds > 0.0)) {
    return Status::InvalidArgument(
        "serving.admission.service_seconds must be > 0");
  }
  return Status::OK();
}

const char* AdmissionOutcomeName(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kServe:
      return "serve";
    case AdmissionOutcome::kServeDegraded:
      return "serve_degraded";
    case AdmissionOutcome::kShedLoad:
      return "shed_load";
    case AdmissionOutcome::kShedDeadline:
      return "shed_deadline";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const EstimationService* service,
                                         AdmissionOptions options)
    : service_(service), options_(options) {}

double AdmissionController::QueueDepthLocked(double now) const {
  const double backlog = queue_clears_at_ - now;
  if (backlog <= 0.0) return 0.0;
  return backlog / options_.service_seconds;
}

AdmissionDecision AdmissionController::Admit(
    size_t batch_size, double now, const core::EstimateContext& ctx) const {
  AdmissionDecision decision;
  if (batch_size == 0) return decision;
  const double n = static_cast<double>(batch_size);
  MutexLock lock(&mu_);
  decision.queue_depth = QueueDepthLocked(now);

  // Deadline feasibility first: if the queue model already proves the
  // answer would arrive late, shed before burning tokens or queue slots.
  if (ctx.deadline_seconds > 0.0) {
    const double finish = std::max(queue_clears_at_, now) +
                          n * options_.service_seconds;
    if (finish > ctx.deadline_seconds) {
      decision.outcome = AdmissionOutcome::kShedDeadline;
      tallies_.shed_deadline += static_cast<int64_t>(batch_size);
      return decision;
    }
  }

  const double max_queue = static_cast<double>(options_.max_queue);
  if (decision.queue_depth + n > max_queue) {
    decision.outcome = AdmissionOutcome::kShedLoad;
    tallies_.shed_load += static_cast<int64_t>(batch_size);
    return decision;
  }
  if (ctx.priority == core::RequestPriority::kBackground &&
      decision.queue_depth + n >
          options_.background_fraction * max_queue) {
    decision.outcome = AdmissionOutcome::kShedLoad;
    decision.background_yield = true;
    tallies_.shed_load += static_cast<int64_t>(batch_size);
    tallies_.background_yield += static_cast<int64_t>(batch_size);
    return decision;
  }

  // Token bucket, refilled on the deployment clock. The clock may read
  // earlier than the last refill when concurrent tenants interleave;
  // refill only moves forward.
  Bucket* bucket;
  if (auto it = buckets_.find(ctx.tenant); it != buckets_.end()) {
    bucket = &it->second;
  } else {
    bucket = &buckets_[std::string(ctx.tenant)];
    bucket->tokens = options_.tenant_burst;
    bucket->last_refill = now;
  }
  if (now > bucket->last_refill) {
    bucket->tokens =
        std::min(options_.tenant_burst,
                 bucket->tokens +
                     (now - bucket->last_refill) * options_.tenant_rate);
    bucket->last_refill = now;
  }

  bool degraded = false;
  if (bucket->tokens >= n) {
    bucket->tokens -= n;
  } else {
    degraded = true;
    decision.tenant_throttled = true;
    tallies_.tenant_throttled += static_cast<int64_t>(batch_size);
  }
  if (decision.queue_depth + n > options_.degrade_fraction * max_queue) {
    degraded = true;
  }

  // Admitted: the virtual queue absorbs the batch (shed paths above never
  // advance it — work that is not done does not occupy the server).
  queue_clears_at_ =
      std::max(queue_clears_at_, now) + n * options_.service_seconds;
  if (degraded) {
    decision.outcome = AdmissionOutcome::kServeDegraded;
    tallies_.degraded += static_cast<int64_t>(batch_size);
  } else {
    tallies_.admitted += static_cast<int64_t>(batch_size);
  }
  return decision;
}

bool AdmissionController::ShouldYieldBackground(double now) const {
  MutexLock lock(&mu_);
  return QueueDepthLocked(now) >
         options_.background_fraction *
             static_cast<double>(options_.max_queue);
}

Status AdmissionController::Gate(size_t size, double now,
                                 const core::EstimateContext& ctx,
                                 TraceSpan* span,
                                 core::EstimateContext* served) const {
  const AdmissionDecision decision = Admit(size, now, ctx);
  *span = ctx.StartSpan("admission");
  if (span->enabled()) {
    span->SetString("tenant", std::string(ctx.tenant))
        .SetString("priority", core::RequestPriorityName(ctx.priority))
        .SetString("outcome", AdmissionOutcomeName(decision.outcome))
        .SetDouble("queue_depth", decision.queue_depth)
        .SetInt("size", static_cast<int64_t>(size));
  }
  if (decision.outcome == AdmissionOutcome::kShedLoad ||
      decision.outcome == AdmissionOutcome::kShedDeadline) {
    return ShedStatus(decision.outcome);
  }
  // Rung one forwards the caller's context untouched (modulo span
  // nesting), so admitted-at-zero-load results are bit-identical to a
  // direct service call; rung two marks it admission-degraded.
  *served = ctx.Under(*span);
  if (decision.outcome == AdmissionOutcome::kServeDegraded) {
    served->admission_degraded = true;
  }
  return Status::OK();
}

Result<core::HybridEstimate> AdmissionController::Estimate(
    const EstimateRequest& request, const core::EstimateContext& ctx) const {
  TraceSpan span;
  core::EstimateContext served;
  ISPHERE_RETURN_NOT_OK(Gate(1, request.now, ctx, &span, &served));
  return service_->Estimate(request, served);
}

std::vector<Result<core::HybridEstimate>> AdmissionController::EstimateBatch(
    std::span<const EstimateRequest> requests,
    const core::EstimateContext& ctx) const {
  if (requests.empty()) return {};
  TraceSpan span;
  core::EstimateContext served;
  const Status shed =
      Gate(requests.size(), requests.front().now, ctx, &span, &served);
  if (!shed.ok()) {
    return std::vector<Result<core::HybridEstimate>>(
        requests.size(), Result<core::HybridEstimate>(shed));
  }
  return service_->EstimateBatch(requests, served);
}

AdmissionStats AdmissionController::Stats() const {
  MutexLock lock(&mu_);
  AdmissionStats stats = tallies_;
  stats.tenants_tracked = static_cast<int64_t>(buckets_.size());
  stats.queue_clears_at = queue_clears_at_;
  return stats;
}

MetricsSnapshot AdmissionController::StatsSnapshot() const {
  const AdmissionStats stats = Stats();
  MetricsSnapshot snap;
  snap.samples = {
      {"serving.admission.admitted", static_cast<double>(stats.admitted),
       "count"},
      {"serving.admission.degraded", static_cast<double>(stats.degraded),
       "count"},
      {"serving.admission.shed_load", static_cast<double>(stats.shed_load),
       "count"},
      {"serving.admission.shed_deadline",
       static_cast<double>(stats.shed_deadline), "count"},
      {"serving.admission.tenant_throttled",
       static_cast<double>(stats.tenant_throttled), "count"},
      {"serving.admission.background_yield",
       static_cast<double>(stats.background_yield), "count"},
      {"serving.admission.tenants", static_cast<double>(stats.tenants_tracked),
       "count"},
      {"serving.admission.tenant_rate", options_.tenant_rate, "1/s"},
      {"serving.admission.tenant_burst", options_.tenant_burst, "tokens"},
      {"serving.admission.max_queue", static_cast<double>(options_.max_queue),
       "count"},
      {"serving.admission.degrade_fraction", options_.degrade_fraction,
       "fraction"},
      {"serving.admission.background_fraction", options_.background_fraction,
       "fraction"},
      {"serving.admission.service_seconds", options_.service_seconds, "s"},
      {"serving.admission.queue_clears_at", stats.queue_clears_at, "s"},
  };
  return snap;
}

}  // namespace intellisphere::serving
