#include "federation/intellisphere.h"

#include <map>
#include <set>
#include <utility>

namespace intellisphere::fed {

namespace {

/// The legacy planners' results carry every eliminated host with its
/// reason and every estimate's provenance, so the wrappers always plan with
/// full provenance.
core::EstimateContext WithProvenance(const core::EstimateContext& ctx) {
  core::EstimateContext out = ctx;
  out.detail = core::EstimateDetail::kProvenance;
  return out;
}

/// Maps a costed root/subtree node back to the legacy PlacementOption
/// shape (field-for-field; the wrappers' bit-parity contract).
PlacementOption OptionFromNode(const QueryPlanNode& node) {
  PlacementOption option;
  option.system = node.system;
  option.transfer_seconds = node.transfer_seconds;
  option.operator_seconds = node.operator_seconds;
  option.approach = node.approach;
  option.algorithm = node.algorithm;
  option.algorithm_candidates = node.algorithm_candidates;
  option.eliminated_algorithms = node.eliminated_algorithms;
  option.used_remedy = node.used_remedy;
  option.remedy_alpha = node.remedy_alpha;
  option.fell_back_reason = node.fell_back_reason;
  return option;
}

/// Maps a single-operator QueryPlan back to the legacy PlacementPlan:
/// candidates (already cheapest-first) become options, eliminated hosts
/// keep their search order, and the search's "no placement" error is
/// rewritten to the planner's historical message.
Result<PlacementPlan> SingleOperatorPlanFrom(Result<QueryPlan> plan,
                                             const char* no_host_message) {
  if (!plan.ok()) {
    if (plan.status().code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition(no_host_message);
    }
    return plan.status();
  }
  const QueryPlan& qp = plan.value();
  PlacementPlan out;
  out.op = qp.nodes[static_cast<size_t>(qp.candidates.front().root)].op;
  for (const QueryPlanCandidate& c : qp.candidates) {
    out.options.push_back(
        OptionFromNode(qp.nodes[static_cast<size_t>(c.root)]));
  }
  for (const PrunedSubplan& p : qp.pruned) {
    if (p.kind != PrunedSubplan::Kind::kEliminated) continue;
    out.eliminated.push_back({p.system, p.reason});
  }
  return out;
}

}  // namespace

Result<PlacementOption> PlacementPlan::best() const {
  if (options.empty()) {
    return Status::FailedPrecondition("placement plan has no options");
  }
  return options.front();
}

Result<PipelinePlacement> PipelinePlan::best() const {
  if (options.empty()) {
    return Status::FailedPrecondition("pipeline plan has no options");
  }
  return options.front();
}

Status IntelliSphere::RegisterRemoteSystem(
    std::unique_ptr<remote::RemoteSystem> system, core::CostingProfile profile,
    ConnectorParams connector) {
  if (system == nullptr) return Status::InvalidArgument("null remote system");
  std::string name = system->name();
  if (name == kTeradataSystemName) {
    return Status::InvalidArgument(
        "'teradata' is reserved for the master engine");
  }
  if (systems_.count(name)) {
    return Status::AlreadyExists("remote system '" + name + "'");
  }
  ISPHERE_RETURN_NOT_OK(estimator_.RegisterSystem(name, std::move(profile)));
  ISPHERE_RETURN_NOT_OK(grid_.RegisterConnector(name, connector));
  systems_.emplace(std::move(name), std::move(system));
  return Status::OK();
}

Status IntelliSphere::RegisterTable(rel::TableDef def) {
  if (def.location != kTeradataSystemName && !systems_.count(def.location)) {
    return Status::InvalidArgument("table '" + def.name +
                                   "' placed on unregistered system '" +
                                   def.location + "'");
  }
  return catalog_.Add(std::move(def));
}

Result<rel::TableDef> IntelliSphere::GetTable(const std::string& name) const {
  return catalog_.Get(name);
}

Result<remote::RemoteSystem*> IntelliSphere::GetSystem(
    const std::string& name) const {
  auto it = systems_.find(name);
  if (it == systems_.end()) {
    return Status::NotFound("remote system '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> IntelliSphere::SystemNames() const {
  std::vector<std::string> names;
  for (const auto& [name, sys] : systems_) names.push_back(name);
  return names;
}

Status IntelliSphere::AttachEstimationService(
    const serving::EstimationService* service) {
  if (service != nullptr && service->estimator() != &estimator_) {
    return Status::InvalidArgument(
        "estimation service wraps a different CostEstimator than this "
        "facade's");
  }
  if (admission_ != nullptr && admission_->service() != service) {
    return Status::FailedPrecondition(
        "an admission controller wrapping the current service is attached; "
        "detach it before swapping the estimation service");
  }
  serving_ = service;
  return Status::OK();
}

Status IntelliSphere::AttachAdmissionController(
    const serving::AdmissionController* admission) {
  if (admission != nullptr && admission->service() != serving_) {
    return Status::InvalidArgument(
        "admission controller wraps a different EstimationService than the "
        "one attached to this facade");
  }
  admission_ = admission;
  return Status::OK();
}

std::vector<Result<core::HybridEstimate>> IntelliSphere::CostBatch(
    const std::vector<PlanCostRequest>& requests,
    const core::EstimateContext& ctx) const {
  // Every slot is overwritten below. The placeholder's message fits the
  // string's inline buffer, so pre-filling allocates nothing per request.
  std::vector<Result<core::HybridEstimate>> out(
      requests.size(),
      Result<core::HybridEstimate>(Status::Internal("not costed")));
  // Master-engine requests never leave the process: the analytic local
  // model is evaluated inline (it is not cacheable state, and the serving
  // layer deliberately wraps only remote profiles).
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].system != kTeradataSystemName) continue;
    auto seconds = local_model_.EstimateSeconds(requests[i].op);
    if (seconds.ok()) {
      core::HybridEstimate est;
      est.seconds = seconds.value();
      out[i] = std::move(est);
    } else {
      out[i] = seconds.status();
    }
  }

  if (serving_ != nullptr) {
    std::vector<serving::EstimateRequest> remote;
    std::vector<size_t> positions;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].system == kTeradataSystemName) continue;
      serving::EstimateRequest request;
      request.system = requests[i].system;
      request.op = requests[i].op;
      request.now = ctx.now;
      request.policy_override = ctx.policy_override;
      remote.push_back(std::move(request));
      positions.push_back(i);
    }
    if (!remote.empty()) {
      // With an admission controller attached, the remote batch passes its
      // serve / serve-degraded / shed ladder first; shed batches surface
      // as per-request ResourceExhausted / DeadlineExceeded, which aborts
      // the plan search (BatchCostFn contract) — planning fails fast under
      // overload instead of queueing behind the pool.
      std::vector<Result<core::HybridEstimate>> results =
          admission_ != nullptr ? admission_->EstimateBatch(remote, ctx)
                                : serving_->EstimateBatch(remote, ctx);
      for (size_t j = 0; j < positions.size() && j < results.size(); ++j) {
        out[positions[j]] = std::move(results[j]);
      }
    }
    return out;
  }

  // No serving layer: group per system and lower each group through
  // CostEstimator::EstimateBatch (bit-identical to the scalar path).
  std::map<std::string, std::vector<size_t>> by_system;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].system == kTeradataSystemName) continue;
    by_system[requests[i].system].push_back(i);
  }
  for (const auto& [system, positions] : by_system) {
    std::vector<const rel::SqlOperator*> ops;
    std::vector<const core::EstimateContext*> ctxs;
    ops.reserve(positions.size());
    ctxs.reserve(positions.size());
    for (size_t i : positions) {
      ops.push_back(&requests[i].op);
      ctxs.push_back(&ctx);
    }
    std::vector<Result<core::HybridEstimate>> results;
    Status batch = estimator_.EstimateBatch(system, ops, ctxs, &results);
    if (!batch.ok()) {
      for (size_t i : positions) out[i] = batch;
      continue;
    }
    for (size_t j = 0; j < positions.size() && j < results.size(); ++j) {
      out[positions[j]] = std::move(results[j]);
    }
  }
  return out;
}

Result<QueryPlan> IntelliSphere::PlanQuery(const QuerySpec& spec,
                                           const core::EstimateContext& ctx,
                                           const PlannerOptions& options) const {
  PlanSearchInput input;
  input.spec = &spec;
  input.tables.reserve(spec.relations.size());
  for (const QuerySpec::Relation& r : spec.relations) {
    ISPHERE_ASSIGN_OR_RETURN(rel::TableDef def, catalog_.Get(r.table));
    input.tables.push_back(std::move(def));
  }
  input.master = kTeradataSystemName;
  input.cost = [this](const std::vector<PlanCostRequest>& requests,
                      const core::EstimateContext& bctx) {
    return CostBatch(requests, bctx);
  };
  input.transfer = [this](const std::string& from, const std::string& to,
                          int64_t rows, int64_t row_bytes) {
    return grid_.RelaySeconds(from, to, rows, row_bytes);
  };
  return SearchPlan(input, options, ctx);
}

Result<PlacementPlan> IntelliSphere::PlanJoin(
    const std::string& left_table, const std::string& right_table,
    int64_t left_projected_bytes, int64_t right_projected_bytes,
    double extra_selectivity, const core::EstimateContext& ctx) const {
  // Reproduce the pre-PlanQuery argument checks (and their error order):
  // table resolution, then the cardinality-model and descriptor rules.
  ISPHERE_RETURN_NOT_OK(catalog_.Get(left_table).status());
  ISPHERE_RETURN_NOT_OK(catalog_.Get(right_table).status());
  if (extra_selectivity <= 0.0 || extra_selectivity > 1.0) {
    return Status::InvalidArgument("extra_selectivity must be in (0, 1]");
  }
  if (left_projected_bytes < 0 || right_projected_bytes < 0) {
    return Status::InvalidArgument("negative projected size");
  }
  if (left_projected_bytes + right_projected_bytes <= 0) {
    return Status::InvalidArgument("join must project at least one byte");
  }
  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].table = left_table;
  spec.relations[0].projected_bytes = left_projected_bytes;
  spec.relations[1].table = right_table;
  spec.relations[1].projected_bytes = right_projected_bytes;
  QuerySpec::JoinPredicate predicate;
  predicate.left = 0;
  predicate.right = 1;
  predicate.column = "a1";
  predicate.extra_selectivity = extra_selectivity;
  spec.joins.push_back(predicate);
  return SingleOperatorPlanFrom(PlanQuery(spec, WithProvenance(ctx)),
                                "no system can execute this join");
}

Result<PlacementPlan> IntelliSphere::PlanAgg(
    const std::string& table, const std::string& group_column,
    int num_aggregates, const core::EstimateContext& ctx) const {
  QuerySpec spec;
  spec.relations.resize(1);
  spec.relations[0].table = table;
  QuerySpec::Aggregate aggregate;
  aggregate.relation = 0;
  aggregate.group_column = group_column;
  aggregate.num_aggregates = num_aggregates;
  spec.aggregate = aggregate;
  return SingleOperatorPlanFrom(PlanQuery(spec, WithProvenance(ctx)),
                                "no system can execute this aggregation");
}

Result<PlacementPlan> IntelliSphere::PlanScan(
    const std::string& table, double selectivity, int64_t projected_bytes,
    const core::EstimateContext& ctx) const {
  ISPHERE_ASSIGN_OR_RETURN(rel::TableDef t, catalog_.Get(table));
  if (selectivity < 0.0 || selectivity > 1.0) {
    return Status::InvalidArgument("selectivity must be in [0, 1]");
  }
  if (projected_bytes <= 0 || projected_bytes > t.stats.row_bytes) {
    return Status::InvalidArgument(
        "projected bytes must be in [1, input row size]");
  }
  QuerySpec spec;
  spec.relations.resize(1);
  spec.relations[0].table = table;
  spec.relations[0].filter_selectivity = selectivity;
  spec.relations[0].projected_bytes = projected_bytes;
  return SingleOperatorPlanFrom(PlanQuery(spec, WithProvenance(ctx)),
                                "no system can execute this scan");
}

Result<PipelinePlan> IntelliSphere::PlanJoinThenAgg(
    const std::string& left_table, const std::string& right_table,
    int64_t left_projected_bytes, int64_t right_projected_bytes,
    double extra_selectivity, const std::string& group_column,
    int num_aggregates, const core::EstimateContext& ctx) const {
  ISPHERE_ASSIGN_OR_RETURN(rel::TableDef l, catalog_.Get(left_table));
  ISPHERE_ASSIGN_OR_RETURN(rel::TableDef r, catalog_.Get(right_table));
  if (extra_selectivity <= 0.0 || extra_selectivity > 1.0) {
    return Status::InvalidArgument("extra_selectivity must be in (0, 1]");
  }
  if (left_projected_bytes < 0 || right_projected_bytes < 0) {
    return Status::InvalidArgument("negative projected size");
  }
  if (left_projected_bytes + right_projected_bytes <= 0) {
    return Status::InvalidArgument("join must project at least one byte");
  }
  QuerySpec spec;
  spec.relations.resize(2);
  spec.relations[0].table = left_table;
  spec.relations[0].projected_bytes = left_projected_bytes;
  spec.relations[1].table = right_table;
  spec.relations[1].projected_bytes = right_projected_bytes;
  QuerySpec::JoinPredicate predicate;
  predicate.left = 0;
  predicate.right = 1;
  predicate.column = "a1";
  predicate.extra_selectivity = extra_selectivity;
  spec.joins.push_back(predicate);
  QuerySpec::Aggregate aggregate;
  // The legacy planner resolved the group column against the larger input
  // (its post-swap `l`); ties keep the call's left table.
  aggregate.relation = l.stats.num_rows < r.stats.num_rows ? 1 : 0;
  aggregate.group_column = group_column;
  aggregate.num_aggregates = num_aggregates;
  spec.aggregate = aggregate;
  spec.result_to_master = true;

  auto plan = PlanQuery(spec, WithProvenance(ctx));
  if (!plan.ok()) {
    if (plan.status().code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition("no placement can run this pipeline");
    }
    return plan.status();
  }
  const QueryPlan& qp = plan.value();
  PipelinePlan out;
  {
    const QueryPlanNode& agg_node =
        qp.nodes[static_cast<size_t>(qp.candidates.front().root)];
    const QueryPlanNode& join_node =
        qp.nodes[static_cast<size_t>(agg_node.children.front())];
    out.join_op = join_node.op;
    out.agg_op = agg_node.op;
  }
  for (const QueryPlanCandidate& c : qp.candidates) {
    const QueryPlanNode& agg_node = qp.nodes[static_cast<size_t>(c.root)];
    const QueryPlanNode& join_node =
        qp.nodes[static_cast<size_t>(agg_node.children.front())];
    PipelinePlacement p;
    p.join_system = join_node.system;
    p.agg_system = agg_node.system;
    p.input_transfer_seconds = join_node.transfer_seconds;
    p.join_seconds = join_node.operator_seconds;
    p.interm_transfer_seconds = agg_node.transfer_seconds;
    p.agg_seconds = agg_node.operator_seconds;
    p.result_transfer_seconds = c.result_transfer_seconds;
    p.join_approach = join_node.approach;
    p.join_algorithm = join_node.algorithm;
    p.agg_approach = agg_node.approach;
    p.agg_algorithm = agg_node.algorithm;
    out.options.push_back(std::move(p));
  }
  // Rebuild the legacy interleaving: per join host (sorted), its join
  // elimination, then the aggregation eliminations of placements routed
  // via it.
  std::set<std::string> join_hosts = {std::string(kTeradataSystemName),
                                      l.location, r.location};
  for (const std::string& jh : join_hosts) {
    for (const PrunedSubplan& p : qp.pruned) {
      if (p.kind != PrunedSubplan::Kind::kEliminated) continue;
      if (p.stage != QueryPlanNode::Kind::kJoin || p.system != jh) continue;
      out.eliminated.push_back({jh, "join: " + p.reason});
    }
    for (const PrunedSubplan& p : qp.pruned) {
      if (p.kind != PrunedSubplan::Kind::kEliminated) continue;
      if (p.stage != QueryPlanNode::Kind::kAggregate || p.via_system != jh) {
        continue;
      }
      out.eliminated.push_back(
          {p.system, "aggregation after join on " + jh + ": " + p.reason});
    }
  }
  return out;
}

Result<double> IntelliSphere::ExecuteBest(const PlacementPlan& plan) {
  if (plan.options.empty()) {
    return Status::InvalidArgument("empty placement plan");
  }
  ISPHERE_ASSIGN_OR_RETURN(PlacementOption best, plan.best());
  if (best.system == kTeradataSystemName) {
    // Local execution: the analytic estimate stands in for the elapsed
    // time (the master engine is not simulated at task granularity).
    return local_model_.EstimateSeconds(plan.op);
  }
  ISPHERE_ASSIGN_OR_RETURN(remote::RemoteSystem * sys,
                           GetSystem(best.system));
  ISPHERE_ASSIGN_OR_RETURN(remote::QueryResult result,
                           sys->Execute(plan.op));
  // Logging phase: feed the observation back into the costing profile.
  ISPHERE_RETURN_NOT_OK(
      estimator_.LogActual(best.system, plan.op, result.elapsed_seconds));
  return result.elapsed_seconds;
}

}  // namespace intellisphere::fed
