// The IntelliSphere federation facade (Figure 1): Teradata as the master
// engine, remote systems registered with costing profiles and QueryGrid
// connectors, foreign tables registered with their location, and one
// cost-based planning entry point, PlanQuery. It places every operator of a
// QuerySpec on a system owning (part of) the operator's input, or on
// Teradata itself, and costs each placement as
//   transfer-in (QueryGrid relay) + estimated operator elapsed time.
// ExecuteBest runs the chosen plan tree on those systems.

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

  /// The planning entry point (DESIGN.md §15): runs the DP
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

  /// Executes the chosen tree of `plan` (candidates[0]) on the actual
  /// (simulated) systems, children first: each remote operator node runs on
  /// its system and its observed cost is fed back into that system's
  /// costing-profile log; a master-engine node contributes its analytic
  /// estimate (Teradata is not simulated at task granularity); table nodes
  /// execute nothing. Returns the summed observed operator seconds, or
  /// FailedPrecondition when the plan has no candidates.
  [[nodiscard]] Result<double> ExecuteBest(const QueryPlan& plan);

  /// Routes the planner's remote cost estimates through a serving-layer
  /// cache. The service must wrap *this* facade's cost_estimator()
  /// (InvalidArgument otherwise) and must outlive the facade; the local
  /// Teradata model is analytic and stays uncached. Detach with nullptr.
  /// Cached planning is bit-identical to uncached planning — the cache
  /// keys on everything an estimate depends on, and retraining bumps the
  /// estimator's model epoch, which invalidates on read.
  [[nodiscard]] Status AttachEstimationService(
      const serving::EstimationService* service);

  /// Puts the attached estimation service behind an admission controller:
  /// the planner's remote cost batches are admitted, degraded, or shed per
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
  /// batched GEMM), or through one CostEstimator::EstimateBatch call
  /// otherwise — both documented
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
