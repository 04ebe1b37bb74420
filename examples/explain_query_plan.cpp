// EXPLAIN walkthrough for the DP plan search: declare a four-relation
// query (filters, a join chain spanning three engines, and a trailing
// GROUP BY whose answer returns to the master), run it through
// IntelliSphere::PlanQuery, and render the full search result — the
// chosen plan tree with per-node placement and cost, every completed
// alternative, and the subplans the search dropped (eliminated hosts,
// dominated DP entries) — as a tree and as JSON.
//
// Run from anywhere; writes EXPLAIN_query_plan.json to the working
// directory. scripts/check.sh runs this binary and validates the JSON
// against the query_plan schema in scripts/check_explain_json.py.

#include <cstdio>
#include <fstream>

#include "core/sub_op.h"
#include "federation/explain.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "util/runtime_metrics.h"
#include "util/trace.h"

namespace {

intellisphere::core::OpenboxInfo InfoFor(
    const intellisphere::remote::SimulatedEngineBase& engine,
    double broadcast_factor) {
  intellisphere::core::OpenboxInfo info;
  info.dfs_block_bytes = engine.cluster().config().dfs_block_bytes;
  info.total_slots = engine.cluster().config().TotalSlots();
  info.num_worker_nodes = engine.cluster().config().num_worker_nodes;
  info.task_memory_bytes = engine.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes = broadcast_factor * info.task_memory_bytes;
  return info;
}

intellisphere::core::CostingProfile ProfileFor(
    intellisphere::remote::SimulatedEngineBase* engine,
    double broadcast_factor) {
  intellisphere::core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = intellisphere::core::CalibrateSubOps(
                 engine, InfoFor(*engine, broadcast_factor), copts)
                 .value();
  return intellisphere::core::CostingProfile::SubOpOnly(
      intellisphere::core::SubOpCostEstimator::ForHive(
          std::move(run.catalog))
          .value());
}

}  // namespace

int main() {
  using namespace intellisphere;  // NOLINT

  fed::IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 75);
  auto* hive_raw = hive.get();
  auto spark = remote::SparkEngine::CreateDefault("spark", 76);
  auto* spark_raw = spark.get();
  if (!sphere
           .RegisterRemoteSystem(
               std::move(hive),
               ProfileFor(hive_raw,
                          hive_raw->options().broadcast_threshold_factor),
               fed::ConnectorParams{})
           .ok() ||
      !sphere
           .RegisterRemoteSystem(
               std::move(spark),
               ProfileFor(spark_raw,
                          spark_raw->options().broadcast_threshold_factor),
               fed::ConnectorParams{})
           .ok()) {
    std::fprintf(stderr, "system registration failed\n");
    return 1;
  }

  auto a = rel::SyntheticTableDef(8000000, 250).value();
  a.location = "hive";
  auto b = rel::SyntheticTableDef(2000000, 100).value();
  b.location = "spark";
  auto c = rel::SyntheticTableDef(500000, 40).value();
  c.location = "hive";
  auto d = rel::SyntheticTableDef(100000, 100).value();
  d.location = fed::kTeradataSystemName;
  if (!sphere.RegisterTable(a).ok() || !sphere.RegisterTable(b).ok() ||
      !sphere.RegisterTable(c).ok() || !sphere.RegisterTable(d).ok()) {
    std::fprintf(stderr, "table registration failed\n");
    return 1;
  }

  // The declarative query: filter the fact table to 20%, join the chain
  // across all three engines, GROUP BY a 100-distinct column with two
  // SUMs, and relay the answer back to the master.
  fed::QuerySpec spec;
  spec.relations = {{"T8000000_250", 0.2, 32},
                    {"T2000000_100", 1.0, 24},
                    {"T500000_40", 1.0, 16},
                    {"T100000_100", 1.0, 8}};
  spec.joins = {{0, 1, "a1", 0.5}, {1, 2, "a10", 1.0}, {2, 3, "a5", 1.0}};
  spec.aggregate = fed::QuerySpec::Aggregate{0, "a100", 2};
  spec.result_to_master = true;

  // Plan with observability on: the search emits one plan.query root span
  // with a plan.candidate child per costed or eliminated placement. A trace
  // sink also turns on provenance, without which the plan would carry no
  // dropped subplans to explain.
  CollectingTraceSink sink;
  core::EstimateContext ctx;
  ctx.trace = &sink;
  auto plan = sphere.PlanQuery(spec, ctx);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  fed::PlacementExplanation ex = fed::ExplainQueryPlan(plan.value());
  std::printf("%s", ex.tree.c_str());

  std::printf("\ntrace: search emitted %zu spans\n", sink.size());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const MetricSample* costed = snap.Find("plan.candidates_costed");
  if (costed != nullptr) {
    std::printf("metrics: plan.candidates_costed = %.0f\n", costed->value);
  }

  std::ofstream out("EXPLAIN_query_plan.json");
  if (!out) {
    std::fprintf(stderr, "cannot open EXPLAIN_query_plan.json\n");
    return 1;
  }
  out << ex.json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed writing EXPLAIN_query_plan.json\n");
    return 1;
  }
  std::printf("wrote EXPLAIN_query_plan.json\n");
  return 0;
}
