// Federated query planning: the paper's motivating scenario (Section 2,
// "Query Plans"). Relation R lives in a Hive-like system, relation S in a
// Spark-like system. Joining them admits three placements:
//   - on Hive   (S relays through Teradata to Hive),
//   - on Spark  (R relays through Teradata to Spark),
//   - on Teradata (both relations come home).
// The optimizer costs each as transfer + estimated operator time, executes
// the winner, and feeds the observed cost back. Finally, the same query is
// computed at small scale on the local executor to show the answer is
// placement-independent.
//
// Build and run:  ./build/examples/federated_query_planning

#include <cstdio>

#include "core/formulas.h"
#include "core/hybrid.h"
#include "core/sub_op.h"
#include "engine/executor.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"

using namespace intellisphere;

namespace {

core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& engine,
                          double broadcast_factor) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = engine.cluster().config().dfs_block_bytes;
  info.total_slots = engine.cluster().config().TotalSlots();
  info.num_worker_nodes = engine.cluster().config().num_worker_nodes;
  info.task_memory_bytes = engine.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes = broadcast_factor * info.task_memory_bytes;
  return info;
}

// Calibrates a sub-op profile for an openbox engine.
core::CostingProfile MakeProfile(remote::SimulatedEngineBase* engine,
                                 double broadcast_factor) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 100, 250, 500, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(engine, InfoFor(*engine, broadcast_factor),
                                   copts);
  auto estimator = core::SubOpCostEstimator::ForHive(
      std::move(run).value().catalog, core::ChoicePolicy::kInHouseComparable);
  return core::CostingProfile::SubOpOnly(std::move(estimator).value());
}

}  // namespace

int main() {
  fed::IntelliSphere sphere;

  // Register the two remote systems with their costing profiles and
  // QueryGrid connectors.
  auto hive = remote::HiveEngine::CreateDefault("hive", 21);
  auto* hive_raw = hive.get();
  core::CostingProfile hive_profile =
      MakeProfile(hive_raw, hive_raw->options().broadcast_threshold_factor);
  if (auto s = sphere.RegisterRemoteSystem(std::move(hive),
                                           std::move(hive_profile),
                                           fed::ConnectorParams{});
      !s.ok()) {
    std::fprintf(stderr, "register hive: %s\n", s.ToString().c_str());
    return 1;
  }
  auto spark = remote::SparkEngine::CreateDefault("spark", 22);
  auto* spark_raw = spark.get();
  core::CostingProfile spark_profile =
      MakeProfile(spark_raw, spark_raw->options().broadcast_threshold_factor);
  if (auto s = sphere.RegisterRemoteSystem(std::move(spark),
                                           std::move(spark_profile),
                                           fed::ConnectorParams{});
      !s.ok()) {
    std::fprintf(stderr, "register spark: %s\n", s.ToString().c_str());
    return 1;
  }

  // Foreign tables: R (8M x 250 B) on Hive, S (2M x 100 B) on Spark.
  auto r_def = rel::SyntheticTableDef(8000000, 250).value();
  r_def.location = "hive";
  auto s_def = rel::SyntheticTableDef(2000000, 100).value();
  s_def.location = "spark";
  if (!sphere.RegisterTable(r_def).ok() || !sphere.RegisterTable(s_def).ok()) {
    std::fprintf(stderr, "table registration failed\n");
    return 1;
  }

  // Plan the join. The optimizer enumerates hive / spark / teradata.
  fed::QuerySpec join;
  join.relations = {{"T8000000_250", /*filter_selectivity=*/1.0,
                     /*projected_bytes=*/32},
                    {"T2000000_100", 1.0, 32}};
  join.joins = {{0, 1, "a1", /*extra_selectivity=*/0.5}};
  auto plan = sphere.PlanQuery(join);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("placement options (cheapest first):\n");
  for (const auto& c : plan.value().candidates) {
    const fed::QueryPlanNode& root =
        plan.value().nodes[static_cast<size_t>(c.root)];
    std::printf("  %-9s transfer %7.1f s + operator %7.1f s = %7.1f s\n",
                root.system.c_str(), root.transfer_seconds,
                root.operator_seconds, c.total_seconds);
  }

  // Execute the winning plan; the observed cost of every remote operator is
  // logged back into that system's costing profile.
  auto elapsed = sphere.ExecuteBest(plan.value());
  if (!elapsed.ok()) {
    std::fprintf(stderr, "execute: %s\n", elapsed.status().ToString().c_str());
    return 1;
  }
  auto winner = plan.value().root();
  if (!winner.ok()) {
    std::fprintf(stderr, "best: %s\n", winner.status().ToString().c_str());
    return 1;
  }
  std::printf("executed on %s: %.1f s observed (estimate was %.1f s)\n",
              winner.value()->system.c_str(), elapsed.value(),
              winner.value()->operator_seconds);

  // Multi-operator pipeline: join then GROUP BY a100, where the join
  // result may stay on the system that produced it and the final answer
  // returns to Teradata.
  fed::QuerySpec join_agg;
  join_agg.relations = {{"T8000000_250", 1.0, 250}, {"T2000000_100", 1.0, 100}};
  join_agg.joins = {{0, 1, "a1", 1.0}};
  join_agg.aggregate = fed::QuerySpec::Aggregate{0, "a100", 2};
  join_agg.result_to_master = true;
  auto pipeline = sphere.PlanQuery(join_agg);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 pipeline.status().ToString().c_str());
    return 1;
  }
  std::printf("pipeline placements (join -> aggregation):\n");
  for (const auto& c : pipeline.value().candidates) {
    const auto& nodes = pipeline.value().nodes;
    const fed::QueryPlanNode& agg = nodes[static_cast<size_t>(c.root)];
    const fed::QueryPlanNode& j =
        nodes[static_cast<size_t>(agg.children.front())];
    std::printf(
        "  %-9s -> %-9s  transfers %6.1f s, join %6.1f s, agg %5.1f s = "
        "%7.1f s\n",
        j.system.c_str(), agg.system.c_str(),
        j.transfer_seconds + agg.transfer_seconds + c.result_transfer_seconds,
        j.operator_seconds, agg.operator_seconds, c.total_seconds);
  }

  // Answer correctness is placement-independent: compute the same query at
  // small scale on the local executor.
  auto r_rows = rel::MaterializePrefix(r_def, 2000).value();
  auto s_rows = rel::MaterializePrefix(s_def, 500).value();
  auto joined = eng::HashJoin(r_rows, s_rows, "a1", "a1").value();
  auto aggregated = eng::HashAggregateSum(joined, "a10", {"a2"}).value();
  std::printf(
      "local verification at 2000x500-row scale: join produced %zu rows, "
      "follow-on GROUP BY a10 produced %zu groups\n",
      joined.num_rows(), aggregated.num_rows());
  return 0;
}
