#include "federation/intellisphere.h"

#include <utility>
#include <vector>

namespace intellisphere::fed {

namespace {

/// Appends the subtree rooted at `idx` to `order`, children first (left
/// input before right).
void AppendPostOrder(const QueryPlan& plan, int idx, std::vector<int>* order) {
  for (int child : plan.nodes[static_cast<size_t>(idx)].children) {
    AppendPostOrder(plan, child, order);
  }
  order->push_back(idx);
}

}  // namespace

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
  // Master-engine requests never leave the process: the analytic local
  // model is evaluated inline (it is not cacheable state, and the serving
  // layer deliberately wraps only remote profiles) and its answer is
  // written in place. A remote request's slot holds an empty estimate
  // until its answer is moved in below.
  std::vector<Result<core::HybridEstimate>> out;
  out.reserve(requests.size());
  std::vector<size_t> positions;
  positions.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].system != kTeradataSystemName) {
      positions.push_back(i);
      out.emplace_back(core::HybridEstimate{});
      continue;
    }
    auto seconds = local_model_.EstimateSeconds(requests[i].op);
    if (!seconds.ok()) {
      out.emplace_back(seconds.status());
      continue;
    }
    out.emplace_back(core::HybridEstimate{}).value().seconds = seconds.value();
  }
  if (positions.empty()) return out;

  std::vector<Result<core::HybridEstimate>> results;
  if (serving_ != nullptr) {
    std::vector<serving::EstimateRequest> remote;
    remote.reserve(positions.size());
    for (size_t i : positions) {
      serving::EstimateRequest& request = remote.emplace_back();
      request.system = requests[i].system;
      request.op = requests[i].op;
      request.now = ctx.now;
      request.policy_override = ctx.policy_override;
    }
    // With an admission controller attached, the remote batch passes its
    // serve / serve-degraded / shed ladder first; shed batches surface as
    // per-request ResourceExhausted / DeadlineExceeded, which aborts the
    // plan search (BatchCostFn contract) — planning fails fast under
    // overload instead of queueing behind the pool.
    results = admission_ != nullptr ? admission_->EstimateBatch(remote, ctx)
                                    : serving_->EstimateBatch(remote, ctx);
  } else {
    // No serving layer: one estimator batch over every remote request
    // (bit-identical to the scalar path).
    std::vector<core::EstimateRow> rows;
    rows.reserve(positions.size());
    for (size_t i : positions) {
      rows.push_back({&requests[i].system, &requests[i].op, &ctx});
    }
    results = estimator_.EstimateBatch(rows);
  }
  for (size_t j = 0; j < positions.size(); ++j) {
    if (j < results.size()) {
      out[positions[j]] = std::move(results[j]);
    } else {
      out[positions[j]] = Status::Internal("not costed");
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

Result<double> IntelliSphere::ExecuteBest(const QueryPlan& plan) {
  ISPHERE_ASSIGN_OR_RETURN(QueryPlanCandidate best, plan.best());
  std::vector<int> order;
  AppendPostOrder(plan, best.root, &order);
  double observed_seconds = 0.0;
  for (int idx : order) {
    const QueryPlanNode& node = plan.nodes[static_cast<size_t>(idx)];
    if (node.kind == QueryPlanNode::Kind::kTable) continue;
    if (node.system == kTeradataSystemName) {
      // Local execution: the analytic estimate stands in for the elapsed
      // time (the master engine is not simulated at task granularity).
      ISPHERE_ASSIGN_OR_RETURN(double seconds,
                               local_model_.EstimateSeconds(node.op));
      observed_seconds += seconds;
      continue;
    }
    ISPHERE_ASSIGN_OR_RETURN(remote::RemoteSystem * sys,
                             GetSystem(node.system));
    ISPHERE_ASSIGN_OR_RETURN(remote::QueryResult result,
                             sys->Execute(node.op));
    // Logging phase: feed the observation back into the costing profile.
    ISPHERE_RETURN_NOT_OK(
        estimator_.LogActual(node.system, node.op, result.elapsed_seconds));
    observed_seconds += result.elapsed_seconds;
  }
  return observed_seconds;
}

}  // namespace intellisphere::fed
