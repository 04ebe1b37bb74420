// Hybrid-operator costing (Section 5): every remote system registers a
// Costing Profile (CP) holding everything needed to cost its operators —
// a sub-op catalog + formulas, logical-op neural models + range metadata,
// or both with a time-phased switch ("sub-op costing [0...t1], logical-op
// costing [t1...]" in Figure 9). The CostEstimator facade is the registry
// the (Teradata) optimizer queries.

#ifndef INTELLISPHERE_CORE_HYBRID_H_
#define INTELLISPHERE_CORE_HYBRID_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/estimate_context.h"
#include "core/formulas.h"
#include "core/logical_op.h"
#include "relational/query.h"
#include "util/status.h"

namespace intellisphere::core {

/// Which costing approach a profile applies.
enum class CostingApproach {
  kSubOp,
  kLogicalOp,
  /// Approximate sub-op costing until `switch_time`, then logical-op
  /// (system C in Figure 9).
  kSubOpThenLogicalOp,
  /// Different approaches per operator type within one system — the
  /// extension Section 5 sketches ("some operators, e.g., selection and
  /// aggregation, can be trained using the logical-op approach, while
  /// other higher-dimensional operators such as joins can be trained using
  /// the sub-op approach").
  kPerOperator,
};

const char* CostingApproachName(CostingApproach approach);

/// A remote-cost estimate with provenance diagnostics — everything EXPLAIN
/// needs to report how the number was produced, without side channels.
struct HybridEstimate {
  double seconds = 0.0;
  CostingApproach approach_used = CostingApproach::kSubOp;
  /// Chosen physical algorithm (sub-op path) or empty.
  std::string algorithm;
  /// Whether the logical-op path went through the online remedy.
  bool used_remedy = false;
  /// The combining weight actually applied: seconds = alpha*c1 +
  /// (1-alpha)*c2 (1.0 when the remedy did not fire; logical path only).
  double remedy_alpha = 1.0;
  /// The network estimate c1 and remedy extrapolation c2 (logical path).
  double nn_seconds = 0.0;
  double remedy_seconds = 0.0;
  /// Whether an active logical path fell back to sub-op because no model
  /// was trained for this operator type.
  bool fell_back_to_sub_op = false;
  /// Why the estimate was degraded; empty for a full-fidelity estimate.
  /// The ladder (DESIGN.md §12) records "<cause>:sub_op",
  /// "<cause>:last_known_good", or "<cause>:stale_model", where <cause> is
  /// "breaker_open" (backend fault) or "admission_overload" (serving-layer
  /// overload, DESIGN.md §17); the serving layer adds
  /// "<cause>:served_stale". Degraded estimates are never cached.
  std::string fell_back_reason;
  /// Algorithm candidates the applicability rules eliminated (sub-op path).
  /// The count is always maintained; the reason list is filled only when
  /// the context asks for provenance.
  int eliminated_count = 0;
  std::vector<EliminatedAlgorithm> eliminated;
  /// Every surviving candidate's estimate (sub-op path), attached only
  /// when the context asks for provenance; a cost-only estimate leaves it
  /// empty.
  std::vector<AlgorithmEstimate> candidates;
};

/// One row of a batched estimate: the arguments of one
/// CostEstimator::Estimate call. The pointees must outlive the batch call.
struct EstimateRow {
  const std::string* system = nullptr;
  const rel::SqlOperator* op = nullptr;
  const EstimateContext* ctx = nullptr;
};

/// A remote system's costing profile.
class CostingProfile {
 public:
  /// Openbox system: sub-op costing only.
  static CostingProfile SubOpOnly(SubOpCostEstimator estimator);

  /// Blackbox system: logical-op costing only. Pass one model per operator
  /// type the system supports.
  static CostingProfile LogicalOpOnly(
      std::map<rel::OperatorType, LogicalOpModel> models);

  /// Little-known system: sub-op costing until `switch_time` (seconds on
  /// the deployment clock), logical-op afterwards.
  static CostingProfile SubOpThenLogicalOp(
      SubOpCostEstimator estimator,
      std::map<rel::OperatorType, LogicalOpModel> models, double switch_time);

  /// Mixed system: a per-operator-type approach selection. Types missing
  /// from `approaches` default to kSubOp. InvalidArgument when a type is
  /// routed to kLogicalOp without a model, or when an approach other than
  /// kSubOp / kLogicalOp is requested for a type.
  [[nodiscard]] static Result<CostingProfile> PerOperator(
      SubOpCostEstimator estimator,
      std::map<rel::OperatorType, LogicalOpModel> models,
      std::map<rel::OperatorType, CostingApproach> approaches);

  // Hand-written because the last-known-good cells are atomics (immovable);
  // moves copy their values with relaxed loads. Profiles are moved only
  // during single-threaded registry setup.
  CostingProfile(CostingProfile&& other) noexcept;
  CostingProfile& operator=(CostingProfile&& other) noexcept;

  /// Estimates the operator's remote elapsed time. The context carries the
  /// deployment clock (consulted by time-phased profiles) plus the
  /// observability hooks; the default context is the zero-overhead fast
  /// path. Emits `estimate` / `estimate.approach_selection` /
  /// `estimate.logical_op.nn` / `estimate.logical_op.remedy` spans when the
  /// context has a trace sink, and bumps the estimate.* counters.
  [[nodiscard]] Result<HybridEstimate> Estimate(
      const rel::SqlOperator& op, const EstimateContext& ctx = {}) const;

  /// Batched Estimate over rows of this profile's system (rows[i].system
  /// is not read): result i is bit-identical to Estimate(*rows[i].op,
  /// *rows[i].ctx). Rows the scalar path would serve straight from a
  /// trained logical-op model run their network forward passes as one
  /// LogicalOpModel::EstimateBatch per operator type (one GEMM per layer
  /// for the whole group); every other row — sub-op, degraded, invalid —
  /// takes the scalar path unchanged. The last-known-good cells are
  /// refreshed in row order exactly as the equivalent scalar loop would.
  [[nodiscard]] std::vector<Result<HybridEstimate>> EstimateBatch(
      std::span<const EstimateRow> rows) const;

  /// Logging phase: records an actual remote execution into the active
  /// logical-op model (no-op result when the profile has none for the
  /// type — sub-op models need no continuous tuning, Figure 8).
  [[nodiscard]] Status LogActual(const rel::SqlOperator& op, double actual_seconds);

  /// Runs the offline tuning phase on every logical-op model with a
  /// non-empty log.
  [[nodiscard]] Status OfflineTune();

  /// The logical-op models OfflineTune would touch (non-empty log), in
  /// operator-type order. Each model tunes independently, so the training
  /// pipeline may tune them on different threads.
  std::vector<LogicalOpModel*> TunableModels();

  /// Persists the whole profile (approach, switch time, per-operator
  /// routing, the sub-op catalog, and every logical-op model). Loading
  /// reconstructs the formula set for the stored engine family.
  void Save(const std::string& prefix, Properties* props) const;
  [[nodiscard]] static Result<CostingProfile> Load(const std::string& prefix,
                                                   const Properties& props);

  CostingApproach approach() const { return approach_; }
  double switch_time() const { return switch_time_; }
  bool has_sub_op() const { return sub_op_.has_value(); }
  bool has_logical_model(rel::OperatorType type) const {
    return logical_.count(type) > 0;
  }
  [[nodiscard]] Result<const LogicalOpModel*> logical_model(rel::OperatorType type) const;
  [[nodiscard]] Result<LogicalOpModel*> logical_model_mutable(rel::OperatorType type);
  [[nodiscard]] Result<const SubOpCostEstimator*> sub_op() const;

 private:
  CostingProfile() = default;

  /// The approach-routing switch shared by Estimate and EstimateBatch:
  /// whether `type` selects the logical path at `now`, before
  /// model-availability fallback and the breaker ladder.
  bool SelectsLogical(rel::OperatorType type, double now) const;

  /// The full Estimate body. When `logical_hint` is non-null it holds the
  /// precomputed LogicalOpEstimate for this op (from a batched forward
  /// pass) and is used in place of the scalar model call — every other
  /// branch (routing, fallback, degradation, LKG refresh, spans, counters)
  /// is shared verbatim with the scalar path.
  [[nodiscard]] Result<HybridEstimate> EstimateImpl(
      const rel::SqlOperator& op, const EstimateContext& ctx,
      const LogicalOpEstimate* logical_hint) const;

  /// rel::OperatorType cardinality, sizing the last-known-good arrays.
  static constexpr int kNumOperatorTypes = 3;

  CostingApproach approach_ = CostingApproach::kSubOp;
  std::optional<SubOpCostEstimator> sub_op_;
  std::map<rel::OperatorType, LogicalOpModel> logical_;
  std::map<rel::OperatorType, CostingApproach> per_operator_;
  double switch_time_ = 0.0;

  /// Last-known-good estimate per operator type, refreshed by every
  /// non-degraded success; the breaker-open ladder serves it when the
  /// profile has nothing better. Mutable relaxed/acq-rel atomics keep the
  /// const Estimate path lock-free for concurrent readers. Not persisted
  /// by Save/Load — it is warm-path state, not model state.
  mutable std::array<std::atomic<double>, kNumOperatorTypes> lkg_seconds_{};
  mutable std::array<std::atomic<bool>, kNumOperatorTypes> lkg_valid_{};
};

/// The remote-system cost estimation module: profile registry + dispatch.
///
/// Thread-safety: the const read path (Estimate / GetProfile / HasSystem) is
/// safe for concurrent callers — estimation touches no mutable state
/// (MlpRegressor::Predict works in stack-local buffers). Mutation
/// (RegisterSystem, LogActual, OfflineTune*, GetProfileMutable) must be
/// externally serialized against readers; the serving layer confines it to
/// an exclusive retrain section and uses `model_epoch()` to fence caches.
class CostEstimator {
 public:
  /// AlreadyExists on duplicate registration.
  [[nodiscard]] Status RegisterSystem(const std::string& system_name,
                                      CostingProfile profile);
  bool HasSystem(const std::string& system_name) const;

  /// Estimates an operator's cost on the named system.
  [[nodiscard]] Result<HybridEstimate> Estimate(
      const std::string& system_name, const rel::SqlOperator& op,
      const EstimateContext& ctx = {}) const;

  /// Batched Estimate over rows for any mix of systems — the one place a
  /// batch of estimates is lowered (DESIGN.md §14). Each row's profile and
  /// breaker state are resolved as Estimate resolves them, and each
  /// profile's rows, in row order, go through one
  /// CostingProfile::EstimateBatch. Result i is bit-identical to
  /// Estimate(*rows[i].system, *rows[i].op, *rows[i].ctx), errors included:
  /// an unregistered system is that row's NotFound.
  [[nodiscard]] std::vector<Result<HybridEstimate>> EstimateBatch(
      std::span<const EstimateRow> rows) const;

  /// Feedback entry points.
  [[nodiscard]] Status LogActual(const std::string& system_name, const rel::SqlOperator& op,
                                 double actual_seconds);
  [[nodiscard]] Status OfflineTune(const std::string& system_name);

  /// Offline-tunes every logical-op model with a non-empty log across all
  /// registered systems, spreading the models over up to `jobs` worker
  /// threads (each model owns its network and tunes independently; 1 runs
  /// the same serial loop OfflineTune would). Identical results for any
  /// `jobs`.
  [[nodiscard]] Status OfflineTuneAll(int jobs);

  /// Quorum variant: tolerates per-model tuning failures as long as at
  /// least `min_success_fraction` (in (0, 1]; see
  /// training.min_grid_fraction) of the tunable models succeed. At 1.0 it
  /// behaves exactly like OfflineTuneAll(jobs); below quorum it returns
  /// the first failure.
  [[nodiscard]] Status OfflineTuneAll(int jobs, double min_success_fraction);

  [[nodiscard]] Result<const CostingProfile*> GetProfile(
      const std::string& system_name) const;
  [[nodiscard]] Result<CostingProfile*> GetProfileMutable(const std::string& system_name);

  size_t num_systems() const { return profiles_.size(); }

  /// Model-state version. Bumped by every mutation that can change what an
  /// estimate returns: RegisterSystem, LogActual (the execution log feeds
  /// the online remedy), OfflineTune, OfflineTuneAll, and GetProfileMutable
  /// (handing out a mutable profile pessimistically counts as a mutation).
  /// Caches key their entries by the epoch captured *before* computing and
  /// reject entries whose epoch is stale, so a value produced against
  /// pre-retrain weights is never served post-retrain.
  uint64_t model_epoch() const {
    return model_epoch_.load(std::memory_order_acquire);
  }

 private:
  void BumpEpoch() { model_epoch_.fetch_add(1, std::memory_order_acq_rel); }

  std::map<std::string, CostingProfile> profiles_;
  std::atomic<uint64_t> model_epoch_{0};
};

/// One model-training unit of the offline pipeline: train a logical-op
/// network for (`system_name`, `type`) from `data`.
struct LogicalTrainingJob {
  std::string system_name;
  rel::OperatorType type = rel::OperatorType::kJoin;
  ml::Dataset data;
  std::vector<std::string> dim_names;
  LogicalOpOptions opts;
};

/// Trains every job's model — spread over up to `num_jobs` worker threads —
/// then registers one LogicalOpOnly profile per distinct system with the
/// estimator. Each job owns its seeded MlpConfig, so the trained weights are
/// identical for any `num_jobs`; profiles are registered in first-appearance
/// order of the system names. InvalidArgument on a duplicate
/// (system, operator type) pair; AlreadyExists when a system already has a
/// profile.
[[nodiscard]] Status TrainAndRegisterLogicalProfiles(
    CostEstimator* estimator, std::vector<LogicalTrainingJob> jobs,
    int num_jobs);

}  // namespace intellisphere::core

#endif  // INTELLISPHERE_CORE_HYBRID_H_
