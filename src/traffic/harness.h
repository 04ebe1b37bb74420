// The closed-loop traffic harness (DESIGN.md §17): replays a generated
// arrival trace against a federation facade — PlanQuery → (admission) →
// serving → cache → models — on the simulated deployment clock, and
// accounts for what the overload machinery actually delivered: per-tenant
// wall-latency percentiles vs SLO, availability over non-shed traffic,
// shed/degraded fractions, and planning *regret* against an exhaustive
// oracle that executes every placement on the simulated engines.
//
// The harness never calls ExecuteBest / LogActual: feeding actuals back
// would bump the model epoch and invalidate the serving cache mid-run,
// conflating lifecycle effects with admission effects. Lifecycle pressure
// is exercised separately (tests/admission_test.cc).

#ifndef INTELLISPHERE_TRAFFIC_HARNESS_H_
#define INTELLISPHERE_TRAFFIC_HARNESS_H_

#include <map>
#include <string>
#include <vector>

#include "federation/intellisphere.h"
#include "traffic/generator.h"
#include "util/status.h"

namespace intellisphere::traffic {

/// One distinct query shape in the workload: an aggregation over a
/// registered table (the paper's GROUP-BY benchmark operator), planned as
/// SpecFor(item).
struct WorkItem {
  std::string table;
  std::string group_column;
  int num_aggregates = 1;
};

/// The single-relation aggregate spec the harness plans for `item` through
/// IntelliSphere::PlanQuery.
fed::QuerySpec SpecFor(const WorkItem& item);

/// Ground truth for one work item: the *observed* cost of every candidate
/// placement, measured by executing the candidate's root operator on its
/// simulated engine (the master engine's analytic model for Teradata), plus
/// the QueryGrid transfer the planner charged. `oracle_seconds` is the
/// cheapest.
struct ItemTruth {
  std::map<std::string, double> total_seconds;  ///< by system name
  double oracle_seconds = 0.0;
};

/// Per-tenant accounting over the run. Latency percentiles are
/// nearest-rank over *answered* requests only (shed requests are refusals,
/// not latencies).
struct TenantTrafficStats {
  std::string tenant;
  bool background = false;
  int64_t arrivals = 0;
  int64_t answered = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool slo_violated = false;  ///< p99_us > TrafficOptions::slo_p99_us
};

/// The harness's verdict on one run.
struct TrafficReport {
  int64_t arrivals = 0;
  int64_t answered_full = 0;      ///< plan ok, no degradation provenance
  int64_t answered_degraded = 0;  ///< plan ok, some plan node fell back
  int64_t shed_load = 0;          ///< ResourceExhausted from admission
  int64_t shed_deadline = 0;      ///< DeadlineExceeded (predicted or expired)
  int64_t planner_errors = 0;     ///< any other planning failure
  /// answered / (arrivals - shed): sheds are deliberate refusals under the
  /// overload contract; only unexplained planner errors count against
  /// availability. 1.0 when nothing was admitted.
  double availability = 1.0;
  double shed_fraction = 0.0;      ///< (shed_load + shed_deadline) / arrivals
  double degraded_fraction = 0.0;  ///< answered_degraded / arrivals
  /// Wall-latency percentiles over all answered requests, microseconds.
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Planning regret over answered requests with ground truth: the chosen
  /// placement's observed cost vs the oracle's best, relative. 0 = the
  /// planner always picked the truly cheapest placement.
  double mean_regret = 0.0;
  double max_regret = 0.0;
  int64_t regret_samples = 0;
  int64_t slo_violations = 0;  ///< tenants whose answered p99 missed SLO
  std::vector<TenantTrafficStats> tenants;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty. Exposed for tests.
double Percentile(std::vector<double> samples, double q);

/// Executes every candidate placement of every work item once on the
/// simulated engines to build the regret oracle. Plans with a default
/// (cost-only) context, the detail level RunTraffic plans at, so the probe
/// plans warm the cache entries the trace reads. Call this *before*
/// attaching an admission controller (the probe plans flow through whatever
/// serving path is attached, and must not charge the admission queue).
/// Errors if any item fails to plan or any placement fails to execute.
[[nodiscard]] Result<std::vector<ItemTruth>> ComputeOracle(
    fed::IntelliSphere* sphere, const std::vector<WorkItem>& items);

/// Replays the generated trace for (opts, items) against the facade: for
/// each arrival, plans SpecFor(item) through PlanQuery with a cost-only
/// EstimateContext carrying {now = arrival time, tenant, priority class,
/// absolute deadline}, classifies the outcome by status code, and measures
/// the planning wall latency. `truth` may be empty (regret reporting is then
/// skipped); otherwise it must be ComputeOracle's output for `items`.
[[nodiscard]] Result<TrafficReport> RunTraffic(
    const fed::IntelliSphere& sphere, const std::vector<WorkItem>& items,
    const std::vector<ItemTruth>& truth, const TrafficOptions& opts);

}  // namespace intellisphere::traffic

#endif  // INTELLISPHERE_TRAFFIC_HARNESS_H_
