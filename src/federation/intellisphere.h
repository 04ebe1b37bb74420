// The IntelliSphere federation facade (Figure 1): Teradata as the master
// engine, remote systems registered with costing profiles and QueryGrid
// connectors, foreign tables registered with their location, and a
// cost-based placement optimizer that enumerates the paper's candidate
// placements for an operator — each remote system owning (part of) the
// input data, or Teradata itself — and costs each as
//   transfer-in (QueryGrid relay) + estimated operator elapsed time.

#ifndef INTELLISPHERE_FEDERATION_INTELLISPHERE_H_
#define INTELLISPHERE_FEDERATION_INTELLISPHERE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hybrid.h"
#include "engine/local_cost_model.h"
#include "federation/plan_search.h"
#include "federation/querygrid.h"
#include "relational/cardinality.h"
#include "relational/catalog.h"
#include "relational/query.h"
#include "remote/remote_system.h"
#include "serving/admission.h"
#include "serving/service.h"

namespace intellisphere::fed {

/// One candidate placement of an operator, with the costing provenance
/// ExplainPlacement renders.
struct PlacementOption {
  std::string system;  ///< executing system ("teradata" or a remote name)
  double transfer_seconds = 0.0;  ///< QueryGrid cost to stage the inputs
  double operator_seconds = 0.0;  ///< estimated elapsed time of the operator
  double total_seconds() const { return transfer_seconds + operator_seconds; }

  /// Costing approach that produced operator_seconds: "local" for the
  /// master engine, otherwise the profile's CostingApproachName.
  std::string approach;
  /// Chosen physical algorithm (sub-op path) or empty.
  std::string algorithm;
  /// Every surviving algorithm candidate's estimate (sub-op path).
  std::vector<core::AlgorithmEstimate> algorithm_candidates;
  /// Algorithms the applicability rules eliminated, with the killing rule.
  std::vector<core::EliminatedAlgorithm> eliminated_algorithms;
  /// Online-remedy provenance (logical-op path).
  bool used_remedy = false;
  double remedy_alpha = 1.0;
  /// Degradation provenance (DESIGN.md §12): non-empty when the estimate
  /// was produced down the breaker-open fallback ladder (e.g.
  /// "breaker_open:sub_op", "breaker_open:last_known_good").
  std::string fell_back_reason;
};

/// A candidate host the planner dropped entirely, with the reason (e.g. the
/// engine cannot run the operator, or every algorithm was eliminated).
struct EliminatedPlacement {
  std::string system;
  std::string reason;
};

/// The optimizer's decision: all costed options, cheapest first.
struct PlacementPlan {
  std::vector<PlacementOption> options;
  /// The cheapest placement. FailedPrecondition when the plan holds no
  /// options (planners never return such a plan, but a default-constructed
  /// or filtered one may be empty).
  [[nodiscard]] Result<PlacementOption> best() const;
  /// The operator descriptor the plan was costed for.
  rel::SqlOperator op;
  /// Candidate hosts that were considered but could not run the operator.
  std::vector<EliminatedPlacement> eliminated;
};

/// One candidate placement of a two-operator pipeline (join then
/// aggregation over the join result). The intermediate result may remain
/// on the system that produced it (Section 2, "Query Plans").
struct PipelinePlacement {
  std::string join_system;
  std::string agg_system;
  double input_transfer_seconds = 0.0;    ///< staging the base tables
  double join_seconds = 0.0;
  double interm_transfer_seconds = 0.0;   ///< moving the join result
  double agg_seconds = 0.0;
  double result_transfer_seconds = 0.0;   ///< final answer back to Teradata
  double total_seconds() const {
    return input_transfer_seconds + join_seconds + interm_transfer_seconds +
           agg_seconds + result_transfer_seconds;
  }

  /// Per-stage costing provenance ("local" or CostingApproachName).
  std::string join_approach;
  std::string join_algorithm;
  std::string agg_approach;
  std::string agg_algorithm;
};

/// All costed pipeline placements, cheapest first.
struct PipelinePlan {
  std::vector<PipelinePlacement> options;
  /// The cheapest pipeline placement; FailedPrecondition when empty.
  [[nodiscard]] Result<PipelinePlacement> best() const;
  rel::SqlOperator join_op;
  rel::SqlOperator agg_op;
  /// (host, stage) combinations the planner dropped, with reasons.
  std::vector<EliminatedPlacement> eliminated;
};

/// The federation facade.
class IntelliSphere {
 public:
  IntelliSphere() = default;
  explicit IntelliSphere(const eng::LocalCostParams& local_params)
      : local_model_(local_params) {}

  /// Registers a remote system: the live engine handle, its costing
  /// profile, and its QueryGrid connector.
  [[nodiscard]] Status RegisterRemoteSystem(std::unique_ptr<remote::RemoteSystem> system,
                                            core::CostingProfile profile,
                                            ConnectorParams connector);

  /// Registers a (possibly foreign) table; `def.location` must be
  /// "teradata" or a registered remote system.
  [[nodiscard]] Status RegisterTable(rel::TableDef def);

  [[nodiscard]] Result<rel::TableDef> GetTable(const std::string& name) const;
  [[nodiscard]] Result<remote::RemoteSystem*> GetSystem(const std::string& name) const;
  std::vector<std::string> SystemNames() const;

  /// The unified planning entry point (DESIGN.md §15): runs the DP
  /// join-order x placement search over a declarative QuerySpec and
  /// returns the full QueryPlan — chosen tree, every completed candidate
  /// (cheapest first), and the subplans the search dropped. Tables are
  /// resolved against the catalog in relation order (NotFound for unknown
  /// names); a structurally bad spec is InvalidArgument. All operator
  /// costing goes through one batched-costing call per DP level — the
  /// attached EstimationService's EstimateBatch when present (cache +
  /// batched-GEMM path), CostEstimator::EstimateBatch otherwise; the
  /// master engine's analytic model is evaluated inline. Provenance is on
  /// demand: a default context plans cost-only (no dropped-subplan records,
  /// no elimination reasons), while `detail = kProvenance` or a trace sink
  /// yields the full plan ExplainQueryPlan renders; both give the same
  /// candidates and totals. The context also contributes the deployment
  /// clock, an optional trace sink (one `plan.candidate` span per costed or
  /// eliminated placement under a `plan.query` root), a metrics registry,
  /// and a choice-policy override.
  [[nodiscard]] Result<QueryPlan> PlanQuery(
      const QuerySpec& spec, const core::EstimateContext& ctx = {},
      const PlannerOptions& options = {}) const;

  /// Costs all placements of joining two registered tables on `a1` with an
  /// extra predicate selectivity, projecting the given byte widths.
  /// Candidates: each distinct system owning one of the inputs, plus
  /// Teradata. Options are sorted cheapest-first. A thin wrapper over
  /// PlanQuery on the equivalent two-relation spec (bit-identical results;
  /// pinned by the wrapper-parity regression tests). Like the other three
  /// wrappers it always plans with provenance, which its eliminated-host
  /// reasons come from.
  [[nodiscard]] Result<PlacementPlan> PlanJoin(
      const std::string& left_table, const std::string& right_table,
      int64_t left_projected_bytes, int64_t right_projected_bytes,
      double extra_selectivity = 1.0,
      const core::EstimateContext& ctx = {}) const;

  /// Costs all placements of aggregating a registered table by
  /// `group_column` with `num_aggregates` SUMs. A thin wrapper over
  /// PlanQuery on the equivalent single-relation spec.
  [[nodiscard]] Result<PlacementPlan> PlanAgg(
      const std::string& table, const std::string& group_column,
      int num_aggregates, const core::EstimateContext& ctx = {}) const;

  /// Costs all placements of a selection + projection over a registered
  /// table. When the scan would run on Teradata, QueryGrid's predicate
  /// pushdown already reduces the transferred volume to the survivors.
  /// A thin wrapper over PlanQuery on the equivalent bare-scan spec.
  [[nodiscard]] Result<PlacementPlan> PlanScan(
      const std::string& table, double selectivity, int64_t projected_bytes,
      const core::EstimateContext& ctx = {}) const;

  /// Costs every placement pair of a two-operator pipeline: join the two
  /// tables on a1 (projecting the given widths, applying
  /// `extra_selectivity`), then GROUP BY `group_column` (a column of the
  /// left table surviving the projection) computing `num_aggregates` SUMs
  /// over the join result. The join may run on either owner or Teradata;
  /// the aggregation on the join's host (keeping the intermediate in
  /// place) or on Teradata; the final answer always returns to Teradata.
  /// A thin wrapper over PlanQuery on the equivalent join + aggregate spec
  /// with result_to_master set.
  [[nodiscard]] Result<PipelinePlan> PlanJoinThenAgg(
      const std::string& left_table, const std::string& right_table,
      int64_t left_projected_bytes, int64_t right_projected_bytes,
      double extra_selectivity, const std::string& group_column,
      int num_aggregates, const core::EstimateContext& ctx = {}) const;

  /// Executes the plan's best placement on the actual (simulated) system
  /// and feeds the observed cost back into the costing profile's log.
  /// Returns the observed elapsed seconds of the operator itself.
  [[nodiscard]] Result<double> ExecuteBest(const PlacementPlan& plan);

  /// Routes the planners' remote cost estimates through a serving-layer
  /// cache. The service must wrap *this* facade's cost_estimator()
  /// (InvalidArgument otherwise) and must outlive the facade; the local
  /// Teradata model is analytic and stays uncached. Detach with nullptr.
  /// Cached planning is bit-identical to uncached planning — the cache
  /// keys on everything an estimate depends on, and retraining bumps the
  /// estimator's model epoch, which invalidates on read.
  [[nodiscard]] Status AttachEstimationService(
      const serving::EstimationService* service);

  /// Puts the attached estimation service behind an admission controller:
  /// the planners' remote cost batches are admitted, degraded, or shed per
  /// the controller's ladder (DESIGN.md §17), with tenant/priority/deadline
  /// read from the planning EstimateContext. The controller must wrap the
  /// currently attached service (InvalidArgument otherwise — attach the
  /// service first) and must outlive the facade. Detach with nullptr.
  /// A shed batch surfaces as the plan search's error (ResourceExhausted /
  /// DeadlineExceeded): an overloaded serving layer fails planning fast
  /// instead of stalling it.
  [[nodiscard]] Status AttachAdmissionController(
      const serving::AdmissionController* admission);

  core::CostEstimator& cost_estimator() { return estimator_; }
  const core::CostEstimator& cost_estimator() const { return estimator_; }
  QueryGrid& query_grid() { return grid_; }
  const eng::LocalCostModel& local_model() const { return local_model_; }

 private:
  /// The DP search's batched-costing hook: one Result per request, in
  /// request order. Master-engine ("teradata") requests are evaluated
  /// inline on the analytic local model; remote requests go through the
  /// attached EstimationService::EstimateBatch when present (dedup, cache,
  /// batched GEMM), or are grouped per system through
  /// CostEstimator::EstimateBatch otherwise — both documented
  /// bit-identical to the scalar Estimate path. The returned estimates'
  /// approach strings for Teradata are conventionally "local" (set by the
  /// search via its ApproachLabel).
  std::vector<Result<core::HybridEstimate>> CostBatch(
      const std::vector<PlanCostRequest>& requests,
      const core::EstimateContext& ctx) const;

  eng::LocalCostModel local_model_;
  core::CostEstimator estimator_;
  const serving::EstimationService* serving_ = nullptr;
  const serving::AdmissionController* admission_ = nullptr;
  QueryGrid grid_;
  rel::Catalog catalog_;
  std::map<std::string, std::unique_ptr<remote::RemoteSystem>> systems_;
};

}  // namespace intellisphere::fed

#endif  // INTELLISPHERE_FEDERATION_INTELLISPHERE_H_
