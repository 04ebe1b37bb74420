#include "lifecycle/manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace intellisphere::lifecycle {

namespace {

/// Properties prefix the retrain snapshot is serialized under. Internal
/// plumbing, not a configuration key.
constexpr char kSnapshotPrefix[] = "model";

/// Mean relative error of `models` estimates over the shadow records.
/// Returns an error when the batched forward pass fails; NaN when any
/// individual error is non-finite (rejected by the acceptance rule).
Result<double> ShadowError(const core::LogicalOpModel& model,
                           const std::vector<std::vector<double>>& features,
                           const std::vector<double>& actuals) {
  std::vector<core::LogicalOpEstimate> estimates;
  ISPHERE_RETURN_NOT_OK(model.EstimateBatch(features, &estimates));
  double sum = 0.0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    sum += RelativeError(estimates[i].seconds, actuals[i]);
  }
  if (estimates.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(estimates.size());
}

}  // namespace

bool ShadowAccepts(double candidate_error, double incumbent_error,
                   double min_improvement) {
  if (!std::isfinite(candidate_error)) return false;
  return candidate_error < incumbent_error * (1.0 - min_improvement);
}

Result<LifecycleOptions> LifecycleOptions::FromProperties(
    const Properties& props) {
  LifecycleOptions opts;
  if (props.Contains(kIngestCapacityKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.ingest_capacity,
                             props.GetInt(kIngestCapacityKey));
    if (opts.ingest_capacity < 1) {
      return Status::InvalidArgument(
          "lifecycle.ingest.capacity must be >= 1");
    }
  }
  ISPHERE_ASSIGN_OR_RETURN(opts.drift, DriftOptions::FromProperties(props));
  if (props.Contains(kRetrainWindowKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t window,
                             props.GetInt(kRetrainWindowKey));
    if (window < 2) {
      return Status::InvalidArgument(
          "lifecycle.retrain.window must be >= 2");
    }
    opts.retrain_window = static_cast<int>(window);
  }
  if (props.Contains(kShadowFractionKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.shadow_fraction,
                             props.GetDouble(kShadowFractionKey));
    if (!(opts.shadow_fraction > 0.0) || !(opts.shadow_fraction < 1.0)) {
      return Status::InvalidArgument(
          "lifecycle.shadow.fraction must be in (0, 1)");
    }
  }
  if (props.Contains(kShadowMinImprovementKey)) {
    ISPHERE_ASSIGN_OR_RETURN(opts.shadow_min_improvement,
                             props.GetDouble(kShadowMinImprovementKey));
    if (opts.shadow_min_improvement < 0.0) {
      return Status::InvalidArgument(
          "lifecycle.shadow.min_improvement must be >= 0");
    }
  }
  return opts;
}

LifecycleManager::LifecycleManager(core::CostEstimator* estimator,
                                   ThreadPool* pool, LifecycleOptions opts)
    : estimator_(estimator),
      pool_(pool),
      opts_(opts),
      queue_(opts.ingest_capacity) {}

LifecycleManager::~LifecycleManager() { WaitForRetrains(); }

void LifecycleManager::WaitForRetrains() {
  // Retrain workers take no manager lock, so waiting under mu_ cannot
  // deadlock; it only holds off Stats() readers until the pool is done.
  MutexLock lock(&mu_);
  for (auto& entry : keys_) {
    if (entry.second.retrain.valid()) entry.second.retrain.wait();
  }
}

void LifecycleManager::Record(const std::string& system,
                              const rel::SqlOperator& op,
                              double estimated_seconds, double actual_seconds,
                              double now) {
  ExecutionRecord record;
  record.system = system;
  record.op_type = op.type;
  record.features = op.LogicalOpFeatures();
  record.estimated_seconds = estimated_seconds;
  record.actual_seconds = actual_seconds;
  record.now = now;
  queue_.Push(std::move(record));
}

Result<core::HybridEstimate> LifecycleManager::Estimate(
    const std::string& system, const rel::SqlOperator& op,
    const core::EstimateContext& ctx) const {
  ReaderMutexLock lock(&gate_);
  return estimator_->Estimate(system, op, ctx);
}

Result<core::HybridEstimate> LifecycleManager::Estimate(
    const serving::EstimationService& service,
    const serving::EstimateRequest& request,
    const core::EstimateContext& ctx) const {
  ReaderMutexLock lock(&gate_);
  return service.Estimate(request, ctx);
}

Result<core::HybridEstimate> LifecycleManager::Estimate(
    const serving::AdmissionController& admission,
    const serving::EstimateRequest& request,
    const core::EstimateContext& ctx) const {
  // Lifecycle probes are background-class by definition; a caller-set
  // tenant survives, the priority does not.
  core::EstimateContext background = ctx;
  background.priority = core::RequestPriority::kBackground;
  ReaderMutexLock lock(&gate_);
  return admission.Estimate(request, background);
}

void LifecycleManager::IngestRecords(std::vector<ExecutionRecord> records) {
  if (records.empty()) return;

  // Pass 1 (shared gate): the range-metadata signal — does the record's
  // feature row fall outside the live model's trained range?
  std::vector<bool> routable(records.size(), false);
  std::vector<bool> out_of_range(records.size(), false);
  {
    ReaderMutexLock lock(&gate_);
    for (size_t i = 0; i < records.size(); ++i) {
      const ExecutionRecord& rec = records[i];
      Result<const core::CostingProfile*> profile =
          estimator_->GetProfile(rec.system);
      if (!profile.ok() || !profile.value()->has_logical_model(rec.op_type)) {
        continue;  // Formula-served operators have nothing to retrain.
      }
      Result<const core::LogicalOpModel*> model =
          profile.value()->logical_model(rec.op_type);
      if (!model.ok()) continue;
      routable[i] = true;
      Result<std::vector<size_t>> pivots =
          model.value()->metadata().PivotDimensions(
              rec.features, model.value()->options().beta);
      out_of_range[i] = pivots.ok() && !pivots.value().empty();
    }
  }

  // Pass 2 (mu_): detector windows and the retained retrain rings.
  MutexLock lock(&mu_);
  for (size_t i = 0; i < records.size(); ++i) {
    if (!routable[i]) continue;
    ExecutionRecord& rec = records[i];
    KeyState& state =
        keys_.try_emplace({rec.system, rec.op_type}, opts_.drift).first->second;
    state.detector.Observe(
        RelativeError(rec.estimated_seconds, rec.actual_seconds),
        out_of_range[i]);
    std::deque<ExecutionRecord>& ring = state.recent;
    while (static_cast<int>(ring.size()) >= opts_.retrain_window) {
      ring.pop_front();
    }
    ring.push_back(std::move(rec));
  }
}

Result<LifecycleManager::RetrainInput> LifecycleManager::PrepareRetrain(
    const Key& key, double now) {
  RetrainInput input;
  input.key = key;
  input.now = now;
  {
    MutexLock lock(&mu_);
    auto it = keys_.find(key);
    if (it != keys_.end() && it->second.retrain.valid()) {
      return Status::FailedPrecondition("retrain already in flight for " +
                                        key.first);
    }
    if (it == keys_.end() || it->second.recent.empty()) {
      return Status::FailedPrecondition("no retained executions for " +
                                        key.first);
    }
    input.records.assign(it->second.recent.begin(), it->second.recent.end());
  }
  {
    ReaderMutexLock lock(&gate_);
    ISPHERE_ASSIGN_OR_RETURN(const core::CostingProfile* profile,
                             estimator_->GetProfile(key.first));
    ISPHERE_ASSIGN_OR_RETURN(const core::LogicalOpModel* model,
                             profile->logical_model(key.second));
    model->Save(kSnapshotPrefix, &input.snapshot);
  }
  MutexLock lock(&mu_);
  ++stats_.retrains_started;
  return input;
}

LifecycleManager::FinishedRetrain LifecycleManager::RunRetrain(
    RetrainInput input) const {
  FinishedRetrain finished;
  finished.key = input.key;
  RetrainOutcome& outcome = finished.outcome;
  outcome.system = input.key.first;
  outcome.op_type = input.key.second;

  TraceSpan span(opts_.trace, "lifecycle.retrain");
  span.SetString("system", outcome.system)
      .SetString("operator", rel::OperatorTypeName(outcome.op_type))
      .SetInt("records", static_cast<int64_t>(input.records.size()))
      .SetDouble("now", input.now);
  TraceSpan shadow_span;  // started when the run reaches the shadow step

  // Newest-fraction holdout: retrain on the older records, shadow-score on
  // the newest ones. With a single record the two sets overlap (the
  // acceptance rule still guards against a degenerate candidate).
  const int n = static_cast<int>(input.records.size());
  const int shadow_n = std::clamp(
      static_cast<int>(
          std::llround(opts_.shadow_fraction * static_cast<double>(n))),
      1, n);
  const int shadow_begin = n - shadow_n;
  outcome.train_records = shadow_begin > 0 ? shadow_begin : n;
  outcome.shadow_records = shadow_n;

  // Each step names the reject reason it causes; the first failure ends
  // the run at the one rejection exit below.
  const char* step = "clone_failed";
  const Status ran = [&]() -> Status {
    // Clone the incumbent twice from the snapshot: one copy becomes the
    // candidate, the other scores the incumbent side of the shadow eval
    // with weights bit-identical to what was serving at snapshot time.
    ISPHERE_ASSIGN_OR_RETURN(
        core::LogicalOpModel candidate,
        core::LogicalOpModel::Load(kSnapshotPrefix, input.snapshot));
    ISPHERE_ASSIGN_OR_RETURN(
        const core::LogicalOpModel incumbent,
        core::LogicalOpModel::Load(kSnapshotPrefix, input.snapshot));

    step = "log_failed";
    for (int i = 0; i < outcome.train_records; ++i) {
      ISPHERE_RETURN_NOT_OK(candidate.LogExecution(
          input.records[i].features, input.records[i].actual_seconds));
    }
    // Re-fit the remedy combining weight over the replayed log (Table 1);
    // FailedPrecondition just means no remedy execution was replayed.
    span.SetBool("alpha_refit", candidate.AdjustAlpha().ok());
    step = "tune_failed";
    ISPHERE_RETURN_NOT_OK(candidate.OfflineTune());

    step = "shadow_failed";
    shadow_span = span.Child("lifecycle.shadow");
    std::vector<std::vector<double>> features;
    std::vector<double> actuals;
    features.reserve(shadow_n);
    actuals.reserve(shadow_n);
    for (int i = shadow_begin; i < n; ++i) {
      features.push_back(input.records[i].features);
      actuals.push_back(input.records[i].actual_seconds);
    }
    ISPHERE_ASSIGN_OR_RETURN(const double candidate_error,
                             ShadowError(candidate, features, actuals));
    ISPHERE_ASSIGN_OR_RETURN(outcome.incumbent_error,
                             ShadowError(incumbent, features, actuals));
    if (!std::isfinite(candidate_error)) {
      return Status::FailedPrecondition("candidate shadow error is not finite");
    }
    outcome.candidate_error = candidate_error;
    finished.candidate = std::move(candidate);
    return Status::OK();
  }();

  if (!ran.ok()) {
    outcome.reject_reason = step;
    finished.candidate = ran;
  } else {
    // Acceptance rule: the candidate must strictly beat the incumbent by
    // the configured margin — a tie keeps the devil we know.
    finished.accepted =
        ShadowAccepts(outcome.candidate_error, outcome.incumbent_error,
                      opts_.shadow_min_improvement);
    if (!finished.accepted) {
      outcome.reject_reason =
          outcome.candidate_error == outcome.incumbent_error
              ? "tie"
              : "no_improvement";
    }
  }
  shadow_span.SetInt("records", shadow_n)
      .SetDouble("candidate_error", outcome.candidate_error)
      .SetDouble("incumbent_error", outcome.incumbent_error)
      .SetBool("accepted", finished.accepted)
      .SetString("reject_reason", outcome.reject_reason);
  span.SetBool("swapped", finished.accepted)
      .SetString("reject_reason", outcome.reject_reason)
      .SetDouble("candidate_error", outcome.candidate_error)
      .SetDouble("incumbent_error", outcome.incumbent_error);
  return finished;
}

RetrainOutcome LifecycleManager::ApplyFinished(FinishedRetrain finished) {
  RetrainOutcome& outcome = finished.outcome;
  bool swapped = false;
  if (finished.accepted && finished.candidate.ok()) {
    // The only exclusive section in the whole lifecycle: move the tuned
    // candidate in. GetProfileMutable bumps the model epoch, so every
    // cached pre-swap estimate is stale the moment the gate drops
    // (DESIGN.md §11).
    WriterMutexLock lock(&gate_);
    Result<core::CostingProfile*> profile =
        estimator_->GetProfileMutable(outcome.system);
    if (profile.ok()) {
      Result<core::LogicalOpModel*> model =
          profile.value()->logical_model_mutable(outcome.op_type);
      if (model.ok()) {
        *model.value() = std::move(finished.candidate).value();
        swapped = true;
      }
    }
    if (!swapped) outcome.reject_reason = "swap_failed";
  }
  outcome.swapped = swapped;
  outcome.epoch_after = estimator_->model_epoch();

  const bool failed = !outcome.reject_reason.empty() &&
                      outcome.reject_reason != "tie" &&
                      outcome.reject_reason != "no_improvement";
  {
    MutexLock lock(&mu_);
    ++stats_.retrains_completed;
    if (swapped) {
      ++stats_.shadow_accepted;
      ++stats_.swaps_applied;
    } else if (failed) {
      ++stats_.retrains_failed;
    } else {
      ++stats_.shadow_rejected;
    }
    // Either way the episode is over: the swapped-in model starts clean,
    // and a rejected candidate must re-earn a full window of evidence.
    KeyState& state = keys_.find(finished.key)->second;
    state.detector.Reset();
    state.drift_reported = false;
  }
  return outcome;
}

Status LifecycleManager::Tick(double now) {
  IngestRecords(queue_.Drain());

  // Apply the retrains that have finished, in key order: which retrains
  // a Tick applies depends on when Tick runs, never on the order in which
  // the pool finished them.
  std::vector<FinishedRetrain> finished;
  {
    MutexLock lock(&mu_);
    for (auto& entry : keys_) {
      std::future<FinishedRetrain>& retrain = entry.second.retrain;
      if (retrain.valid() && retrain.wait_for(std::chrono::seconds(0)) ==
                                 std::future_status::ready) {
        finished.push_back(retrain.get());
      }
    }
  }
  for (FinishedRetrain& f : finished) {
    ApplyFinished(std::move(f));
  }

  // Launch a background retrain for every drifted key without one.
  std::vector<Key> to_launch;
  {
    MutexLock lock(&mu_);
    for (auto& [key, state] : keys_) {
      if (!state.detector.State().drifted) continue;
      if (!state.drift_reported) {
        state.drift_reported = true;
        ++stats_.drift_detected;
      }
      if (state.retrain.valid()) continue;
      if (opts_.health != nullptr && opts_.health->IsOpen(key.first, now)) {
        ++stats_.retrains_deferred;
        continue;
      }
      // Priority yield (DESIGN.md §17): retrains are background work; the
      // serving layer under queue pressure keeps its capacity for
      // foreground planners. Drift state persists, so the launch happens
      // on the first uncongested tick.
      if (opts_.admission != nullptr &&
          opts_.admission->ShouldYieldBackground(now)) {
        ++stats_.retrains_yielded;
        continue;
      }
      to_launch.push_back(key);
    }
  }
  for (const Key& key : to_launch) {
    ISPHERE_ASSIGN_OR_RETURN(RetrainInput input, PrepareRetrain(key, now));
    std::future<FinishedRetrain> retrain =
        pool_->Submit([this, input = std::move(input)]() mutable {
          return RunRetrain(std::move(input));
        });
    MutexLock lock(&mu_);
    keys_.find(key)->second.retrain = std::move(retrain);
  }
  return Status::OK();
}

Result<RetrainOutcome> LifecycleManager::RetrainNow(const std::string& system,
                                                    rel::OperatorType type,
                                                    double now) {
  ISPHERE_ASSIGN_OR_RETURN(RetrainInput input,
                           PrepareRetrain({system, type}, now));
  return ApplyFinished(RunRetrain(std::move(input)));
}

LifecycleStats LifecycleManager::Stats() const {
  const IngestQueueStats ingest = queue_.Stats();
  MutexLock lock(&mu_);
  LifecycleStats stats = stats_;
  stats.ingest = ingest;
  for (const auto& entry : keys_) {
    if (entry.second.retrain.valid()) ++stats.in_flight;
  }
  return stats;
}

MetricsSnapshot LifecycleManager::StatsSnapshot() const {
  const LifecycleStats stats = Stats();
  const auto count = [](std::string name, int64_t value) {
    return MetricSample{std::move(name), static_cast<double>(value), "count"};
  };
  MetricsSnapshot snap;
  snap.samples = {
      count("lifecycle.model_epoch", static_cast<int64_t>(model_epoch())),
      count("lifecycle.ingest.capacity", stats.ingest.capacity),
      count("lifecycle.ingest.size", stats.ingest.size),
      count("lifecycle.ingest.pushed", stats.ingest.pushed),
      count("lifecycle.ingest.dropped", stats.ingest.dropped),
      count("lifecycle.ingest.drained", stats.ingest.drained),
      count("lifecycle.drift.window", opts_.drift.window),
      {"lifecycle.drift.threshold", opts_.drift.threshold, "rel"},
      count("lifecycle.drift.min_samples", opts_.drift.min_samples),
      {"lifecycle.drift.out_of_range_fraction",
       opts_.drift.out_of_range_fraction, "fraction"},
      count("lifecycle.drift.detected", stats.drift_detected),
      count("lifecycle.retrain.window", opts_.retrain_window),
      count("lifecycle.retrain.started", stats.retrains_started),
      count("lifecycle.retrain.completed", stats.retrains_completed),
      count("lifecycle.retrain.failed", stats.retrains_failed),
      count("lifecycle.retrain.deferred", stats.retrains_deferred),
      count("lifecycle.retrain.yielded", stats.retrains_yielded),
      count("lifecycle.retrain.in_flight", stats.in_flight),
      {"lifecycle.shadow.fraction", opts_.shadow_fraction, "fraction"},
      {"lifecycle.shadow.min_improvement", opts_.shadow_min_improvement,
       "rel"},
      count("lifecycle.shadow.accepted", stats.shadow_accepted),
      count("lifecycle.shadow.rejected", stats.shadow_rejected),
      count("lifecycle.swap.applied", stats.swaps_applied),
  };
  // One group per drift detector; which rule fired follows from its mean
  // error against lifecycle.drift.threshold, then its out-of-range
  // fraction against lifecycle.drift.out_of_range_fraction.
  MutexLock lock(&mu_);
  for (const auto& [key, key_state] : keys_) {
    const DriftState state = key_state.detector.State();
    const std::string prefix = "lifecycle.detector." + key.first + "." +
                               rel::OperatorTypeName(key.second) + ".";
    snap.samples.insert(
        snap.samples.end(),
        {count(prefix + "window_size", state.window_size),
         count(prefix + "accepted", state.accepted),
         count(prefix + "rejected_nonfinite", state.rejected_nonfinite),
         {prefix + "mean_relative_error", state.mean_relative_error, "rel"},
         {prefix + "out_of_range_fraction", state.out_of_range_fraction,
          "fraction"},
         {prefix + "drifted", state.drifted ? 1.0 : 0.0, "bool"}});
  }
  return snap;
}

}  // namespace intellisphere::lifecycle
