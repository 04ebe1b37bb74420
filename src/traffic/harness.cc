#include "traffic/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace intellisphere::traffic {

namespace {

/// True when any plan node carries degradation provenance — the plan was
/// answered, but at least one placement's estimate came down a fallback
/// rung (breaker or admission overload). Teradata nodes are analytic and
/// never fall back, so checking only the chosen tree would under-count
/// degraded answers.
bool PlanDegraded(const fed::QueryPlan& plan) {
  for (const fed::QueryPlanNode& node : plan.nodes) {
    if (!node.fell_back_reason.empty()) return true;
  }
  return false;
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<size_t>(std::ceil(q * n));
  if (rank > 0) --rank;
  if (rank >= samples.size()) rank = samples.size() - 1;
  return samples[rank];
}

fed::QuerySpec SpecFor(const WorkItem& item) {
  fed::QuerySpec spec;
  spec.relations.resize(1);
  spec.relations[0].table = item.table;
  spec.aggregate =
      fed::QuerySpec::Aggregate{0, item.group_column, item.num_aggregates};
  return spec;
}

Result<std::vector<ItemTruth>> ComputeOracle(
    fed::IntelliSphere* sphere, const std::vector<WorkItem>& items) {
  std::vector<ItemTruth> truth;
  truth.reserve(items.size());
  for (const WorkItem& item : items) {
    ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlan plan,
                             sphere->PlanQuery(SpecFor(item)));
    ItemTruth t;
    t.oracle_seconds = std::numeric_limits<double>::infinity();
    for (const fed::QueryPlanCandidate& candidate : plan.candidates) {
      const fed::QueryPlanNode& root =
          plan.nodes[static_cast<size_t>(candidate.root)];
      double op_seconds = 0.0;
      if (root.system == fed::kTeradataSystemName) {
        ISPHERE_ASSIGN_OR_RETURN(
            op_seconds, sphere->local_model().EstimateSeconds(root.op));
      } else {
        ISPHERE_ASSIGN_OR_RETURN(remote::RemoteSystem * system,
                                 sphere->GetSystem(root.system));
        ISPHERE_ASSIGN_OR_RETURN(remote::QueryResult observed,
                                 system->Execute(root.op));
        op_seconds = observed.elapsed_seconds;
      }
      const double total = root.transfer_seconds + op_seconds;
      t.total_seconds[root.system] = total;
      t.oracle_seconds = std::min(t.oracle_seconds, total);
    }
    truth.push_back(std::move(t));
  }
  return truth;
}

Result<TrafficReport> RunTraffic(const fed::IntelliSphere& sphere,
                                 const std::vector<WorkItem>& items,
                                 const std::vector<ItemTruth>& truth,
                                 const TrafficOptions& opts) {
  if (items.empty()) {
    return Status::InvalidArgument("RunTraffic: items must be non-empty");
  }
  if (!truth.empty() && truth.size() != items.size()) {
    return Status::InvalidArgument(
        "RunTraffic: truth must be empty or one entry per work item");
  }
  ISPHERE_ASSIGN_OR_RETURN(
      std::vector<TrafficEvent> events,
      GenerateTraffic(opts, static_cast<int>(items.size())));

  std::vector<fed::QuerySpec> specs;
  specs.reserve(items.size());
  for (const WorkItem& item : items) specs.push_back(SpecFor(item));

  // Stable tenant-name storage: EstimateContext::tenant is a string_view
  // into this vector for the whole run.
  std::vector<std::string> tenant_names;
  tenant_names.reserve(static_cast<size_t>(opts.tenants));
  for (int i = 0; i < opts.tenants; ++i) {
    tenant_names.push_back("tenant" + std::to_string(i));
  }

  struct TenantAccum {
    bool background = false;
    int64_t arrivals = 0;
    int64_t answered = 0;
    int64_t degraded = 0;
    int64_t shed = 0;
    std::vector<double> latencies_us;
  };
  std::vector<TenantAccum> accums(static_cast<size_t>(opts.tenants));

  TrafficReport report;
  std::vector<double> all_latencies_us;
  all_latencies_us.reserve(events.size());
  double regret_sum = 0.0;

  for (const TrafficEvent& ev : events) {
    TenantAccum& acc = accums[static_cast<size_t>(ev.tenant)];
    acc.background = ev.background;
    ++acc.arrivals;
    ++report.arrivals;

    core::EstimateContext ctx;
    ctx.now = ev.time;
    ctx.tenant = tenant_names[static_cast<size_t>(ev.tenant)];
    ctx.priority = ev.background ? core::RequestPriority::kBackground
                                 : core::RequestPriority::kForeground;
    if (opts.deadline_seconds > 0.0) {
      ctx.deadline_seconds = ev.time + opts.deadline_seconds;
    }

    const auto started = std::chrono::steady_clock::now();
    const Result<fed::QueryPlan> plan =
        sphere.PlanQuery(specs[static_cast<size_t>(ev.item)], ctx);
    const double latency_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - started)
            .count();

    if (!plan.ok()) {
      switch (plan.status().code()) {
        case StatusCode::kResourceExhausted:
          ++report.shed_load;
          ++acc.shed;
          break;
        case StatusCode::kDeadlineExceeded:
          ++report.shed_deadline;
          ++acc.shed;
          break;
        default:
          ++report.planner_errors;
          break;
      }
      continue;
    }

    ++acc.answered;
    acc.latencies_us.push_back(latency_us);
    all_latencies_us.push_back(latency_us);
    if (PlanDegraded(plan.value())) {
      ++report.answered_degraded;
      ++acc.degraded;
    } else {
      ++report.answered_full;
    }

    if (!truth.empty()) {
      const ItemTruth& t = truth[static_cast<size_t>(ev.item)];
      ISPHERE_ASSIGN_OR_RETURN(const fed::QueryPlanNode* root,
                               plan.value().root());
      const auto chosen = t.total_seconds.find(root->system);
      if (chosen != t.total_seconds.end() && t.oracle_seconds > 0.0) {
        const double regret =
            (chosen->second - t.oracle_seconds) / t.oracle_seconds;
        regret_sum += regret;
        report.max_regret = std::max(report.max_regret, regret);
        ++report.regret_samples;
      }
    }
  }

  const int64_t answered = report.answered_full + report.answered_degraded;
  const int64_t shed = report.shed_load + report.shed_deadline;
  const int64_t non_shed = report.arrivals - shed;
  report.availability =
      non_shed > 0 ? static_cast<double>(answered) /
                         static_cast<double>(non_shed)
                   : 1.0;
  if (report.arrivals > 0) {
    report.shed_fraction = static_cast<double>(shed) /
                           static_cast<double>(report.arrivals);
    report.degraded_fraction =
        static_cast<double>(report.answered_degraded) /
        static_cast<double>(report.arrivals);
  }
  report.p50_us = Percentile(all_latencies_us, 0.50);
  report.p99_us = Percentile(all_latencies_us, 0.99);
  if (report.regret_samples > 0) {
    report.mean_regret =
        regret_sum / static_cast<double>(report.regret_samples);
  }

  for (int i = 0; i < opts.tenants; ++i) {
    const TenantAccum& acc = accums[static_cast<size_t>(i)];
    if (acc.arrivals == 0) continue;
    TenantTrafficStats stats;
    stats.tenant = tenant_names[static_cast<size_t>(i)];
    stats.background = acc.background;
    stats.arrivals = acc.arrivals;
    stats.answered = acc.answered;
    stats.degraded = acc.degraded;
    stats.shed = acc.shed;
    stats.p50_us = Percentile(acc.latencies_us, 0.50);
    stats.p99_us = Percentile(acc.latencies_us, 0.99);
    stats.slo_violated = acc.answered > 0 && stats.p99_us > opts.slo_p99_us;
    if (stats.slo_violated) ++report.slo_violations;
    report.tenants.push_back(std::move(stats));
  }
  return report;
}

}  // namespace intellisphere::traffic
