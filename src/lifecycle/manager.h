// The online model-lifecycle driver (DESIGN.md §16, docs/OPERATIONS.md):
// ingest → detect → retrain → shadow → swap, on the deployment clock.
//
//   - Serving threads call Record() after every simulated execution and
//     route their estimate traffic through Estimate(), which holds the
//     model gate shared.
//   - One driver thread calls Tick(now): it drains the ingest queue into
//     the per-(system, operator) drift detectors, launches background
//     retrains on the util::ThreadPool for drifted keys, and applies
//     finished, shadow-accepted candidates with a brief exclusive section
//     plus the epoch bump that invalidates every cached pre-swap value
//     (DESIGN.md §11).
//
// The expensive work — cloning the incumbent, feeding it the recent log,
// OfflineTune, shadow scoring via the batched forward pass — happens on a
// pool worker against private state, so estimate serving never pauses for
// longer than the O(model move) swap itself.

#ifndef INTELLISPHERE_LIFECYCLE_MANAGER_H_
#define INTELLISPHERE_LIFECYCLE_MANAGER_H_

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid.h"
#include "lifecycle/drift_detector.h"
#include "lifecycle/ingest_queue.h"
#include "remote/health.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "util/runtime_metrics.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace intellisphere::lifecycle {

/// Recent execution records retained per (system, operator) for retraining
/// and shadow evaluation (>= 2).
inline constexpr char kRetrainWindowKey[] = "lifecycle.retrain.window";
/// Newest fraction of the retained records held out for shadow scoring (in
/// (0, 1)); the candidate retrains on the remainder.
inline constexpr char kShadowFractionKey[] = "lifecycle.shadow.fraction";
/// Relative margin by which the candidate's shadow error must beat the
/// incumbent's to be swapped in (>= 0; ties always reject).
inline constexpr char kShadowMinImprovementKey[] =
    "lifecycle.shadow.min_improvement";

struct LifecycleOptions {
  int64_t ingest_capacity = 4096;
  DriftOptions drift;
  int retrain_window = 256;
  double shadow_fraction = 0.25;
  double shadow_min_improvement = 0.0;

  /// When set, retrains for a system whose breaker is open at Tick time
  /// are deferred (`lifecycle.retrain.deferred`): actuals collected
  /// during an outage are not trustworthy training signal.
  const remote::HealthRegistry* health = nullptr;
  /// When set, Tick consults the admission controller before launching
  /// background retrains: while the serving layer's virtual queue is past
  /// its background threshold, launches are postponed
  /// (`lifecycle.retrain.yielded`) so retrain traffic yields to
  /// foreground planners (DESIGN.md §17). Drift state is retained, so a
  /// yielded retrain launches on the first uncongested tick.
  const serving::AdmissionController* admission = nullptr;
  /// Sink for the `lifecycle.retrain` / `lifecycle.shadow` spans.
  TraceSink* trace = nullptr;

  /// Reads any `lifecycle.*` keys present (ingest, drift, retrain, shadow);
  /// InvalidArgument on out-of-domain values. The wiring pointers (health,
  /// admission, trace) are not Properties-configurable.
  [[nodiscard]] static Result<LifecycleOptions> FromProperties(
      const Properties& props);
};

/// The shadow acceptance rule (DESIGN.md §16): the candidate's shadow
/// error must be strictly below the incumbent's scaled by the improvement
/// margin — a tie keeps the incumbent, and a non-finite candidate error
/// always rejects.
[[nodiscard]] bool ShadowAccepts(double candidate_error,
                                 double incumbent_error,
                                 double min_improvement);

/// What one retrain attempt did, as reported by RetrainNow and recorded on
/// the `lifecycle.retrain` span.
struct RetrainOutcome {
  std::string system;
  rel::OperatorType op_type = rel::OperatorType::kJoin;
  bool swapped = false;
  /// "" when swapped; otherwise "no_improvement", "tie", or the failing
  /// step ("clone_failed", "log_failed", "tune_failed", "shadow_failed").
  std::string reject_reason;
  double candidate_error = 0.0;
  double incumbent_error = 0.0;
  int train_records = 0;
  int shadow_records = 0;
  /// CostEstimator::model_epoch() after the attempt.
  uint64_t epoch_after = 0;
};

/// Lifetime lifecycle statistics, the manager's only counts of these events
/// (exported as the `lifecycle.*` samples of StatsSnapshot()).
struct LifecycleStats {
  IngestQueueStats ingest;
  int64_t drift_detected = 0;
  int64_t retrains_started = 0;
  int64_t retrains_completed = 0;
  int64_t retrains_failed = 0;
  int64_t retrains_deferred = 0;
  int64_t retrains_yielded = 0;
  int64_t shadow_accepted = 0;
  int64_t shadow_rejected = 0;
  int64_t swaps_applied = 0;
  int64_t in_flight = 0;
};

/// See the file comment. Thread-safety: Record() and the Estimate()
/// overloads are safe from any thread; Tick() and RetrainNow() must be
/// called from a single driver thread (they may run concurrently with the
/// serving-side calls). The manager must own all mutation of the managed
/// estimator — external RegisterSystem/LogActual/OfflineTune calls racing
/// the lifecycle are a contract violation (see CostEstimator's
/// thread-safety note).
class LifecycleManager {
 public:
  /// `estimator` and `pool` must outlive the manager.
  LifecycleManager(core::CostEstimator* estimator, ThreadPool* pool,
                   LifecycleOptions opts);

  /// Blocks until every in-flight background retrain has finished.
  /// Finished candidates that were never applied by a Tick are discarded.
  ~LifecycleManager();

  LifecycleManager(const LifecycleManager&) = delete;
  LifecycleManager& operator=(const LifecycleManager&) = delete;

  /// Feeds one completed execution into the ingest queue (thread-safe,
  /// never blocks on model state).
  void Record(const std::string& system, const rel::SqlOperator& op,
              double estimated_seconds, double actual_seconds, double now);

  /// Estimate against the managed estimator, holding the model gate shared
  /// so a concurrent swap cannot race the read (DESIGN.md §16).
  [[nodiscard]] Result<core::HybridEstimate> Estimate(
      const std::string& system, const rel::SqlOperator& op,
      const core::EstimateContext& ctx = {}) const;

  /// Same, routed through an EstimationService (cache + policy handling).
  /// The service must wrap the same estimator this manager owns.
  [[nodiscard]] Result<core::HybridEstimate> Estimate(
      const serving::EstimationService& service,
      const serving::EstimateRequest& request,
      const core::EstimateContext& ctx = {}) const;

  /// Same, routed through an admission controller at background priority:
  /// lifecycle estimate probes pass the full overload ladder and are the
  /// first traffic shed under pressure. The controller's service must wrap
  /// the same estimator this manager owns.
  [[nodiscard]] Result<core::HybridEstimate> Estimate(
      const serving::AdmissionController& admission,
      const serving::EstimateRequest& request,
      const core::EstimateContext& ctx = {}) const;

  /// One lifecycle turn at deployment time `now`: drain the ingest queue,
  /// update drift detectors, apply finished retrains (shadow-accepted
  /// candidates swap in under the exclusive gate with an epoch bump),
  /// and launch background retrains for drifted keys.
  [[nodiscard]] Status Tick(double now);

  /// Runs the full clone → log → tune → shadow → (maybe) swap sequence
  /// synchronously on the caller's thread. FailedPrecondition when the
  /// key has no retained records or a background retrain is in flight;
  /// NotFound when the system has no logical model for `type`.
  [[nodiscard]] Result<RetrainOutcome> RetrainNow(const std::string& system,
                                                  rel::OperatorType type,
                                                  double now);

  [[nodiscard]] LifecycleStats Stats() const;

  /// The lifecycle's status in the BENCH metric shape (sample names in
  /// docs/OPERATIONS.md): the model epoch, Stats() and the options as
  /// lifecycle.{ingest,drift,retrain,shadow,swap}.* samples, then one
  /// lifecycle.detector.<system>.<operator>.* group per drift detector. No
  /// registry holds these names (DESIGN.md §10).
  [[nodiscard]] MetricsSnapshot StatsSnapshot() const;

  uint64_t model_epoch() const { return estimator_->model_epoch(); }
  const LifecycleOptions& options() const { return opts_; }

 private:
  using Key = std::pair<std::string, rel::OperatorType>;

  /// Everything a background retrain produces; applied by Tick.
  struct FinishedRetrain {
    Key key;
    Result<core::LogicalOpModel> candidate =
        Status::FailedPrecondition("retrain produced no candidate");
    RetrainOutcome outcome;
    bool accepted = false;
  };

  /// Snapshot taken under the shared gate when a retrain launches.
  struct RetrainInput {
    Key key;
    Properties snapshot;
    std::vector<ExecutionRecord> records;
    double now = 0.0;
  };

  /// Drained-record ingestion: computes the range-metadata signal under
  /// the shared gate, then updates rings and detectors under mu_.
  void IngestRecords(std::vector<ExecutionRecord> records);

  /// Applies one finished retrain: exclusive-gate swap when accepted,
  /// counters and detector reset either way. Returns the settled outcome.
  RetrainOutcome ApplyFinished(FinishedRetrain finished) EXCLUDES(mu_);

  /// The pool-worker body: clone, replay the log, tune, shadow-score.
  [[nodiscard]] FinishedRetrain RunRetrain(RetrainInput input) const;

  /// Snapshots the live model + retained records for `key`; marks the key
  /// in flight. NotFound / FailedPrecondition as for RetrainNow.
  [[nodiscard]] Result<RetrainInput> PrepareRetrain(const Key& key,
                                                    double now);

  core::CostEstimator* const estimator_;
  ThreadPool* const pool_;
  const LifecycleOptions opts_;

  ExecutionLogQueue queue_;

  /// Model gate: estimate traffic and retrain snapshots hold it shared;
  /// the swap holds it exclusive. Never held together with mu_ —
  /// lock order is gate_ strictly before mu_ where both are needed.
  mutable SharedMutex gate_;

  mutable Mutex mu_;
  std::map<Key, DriftDetector> detectors_ GUARDED_BY(mu_);
  /// True once `lifecycle.drift.detected` fired for the current episode;
  /// cleared with the detector on reset.
  std::set<Key> drift_reported_ GUARDED_BY(mu_);
  std::map<Key, std::deque<ExecutionRecord>> recent_ GUARDED_BY(mu_);
  std::set<Key> in_flight_ GUARDED_BY(mu_);
  std::vector<FinishedRetrain> pending_ GUARDED_BY(mu_);
  std::vector<std::future<void>> retrain_futures_ GUARDED_BY(mu_);
  int64_t drift_detected_total_ GUARDED_BY(mu_) = 0;
  int64_t retrains_started_total_ GUARDED_BY(mu_) = 0;
  int64_t retrains_completed_total_ GUARDED_BY(mu_) = 0;
  int64_t retrains_failed_total_ GUARDED_BY(mu_) = 0;
  int64_t retrains_deferred_total_ GUARDED_BY(mu_) = 0;
  int64_t retrains_yielded_total_ GUARDED_BY(mu_) = 0;
  int64_t shadow_accepted_total_ GUARDED_BY(mu_) = 0;
  int64_t shadow_rejected_total_ GUARDED_BY(mu_) = 0;
  int64_t swaps_applied_total_ GUARDED_BY(mu_) = 0;
};

}  // namespace intellisphere::lifecycle

#endif  // INTELLISPHERE_LIFECYCLE_MANAGER_H_
