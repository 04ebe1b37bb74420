// Serving-layer walkthrough: stand up an EstimationService in front of a
// federated IntelliSphere facade, attach it so planner estimates flow
// through the sharded cache, plan the same join twice (cold, then warm),
// and render the service's status snapshot — model epoch, pool width,
// cache configuration + counters, breaker counts — as one status document
// (written to EXPLAIN_serving.json).
//
// Run from anywhere; writes EXPLAIN_serving.json to the working directory.
// scripts/check.sh runs this binary and validates the JSON with
// scripts/check_explain_json.py.

#include <cstdio>
#include <fstream>

#include "core/sub_op.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/service.h"
#include "util/properties.h"

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
  auto hive = remote::HiveEngine::CreateDefault("hive", 81);
  auto* hive_raw = hive.get();
  auto spark = remote::SparkEngine::CreateDefault("spark", 82);
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

  auto r = rel::SyntheticTableDef(8000000, 250).value();
  r.location = "hive";
  auto s = rel::SyntheticTableDef(2000000, 100).value();
  s.location = "spark";
  if (!sphere.RegisterTable(r).ok() || !sphere.RegisterTable(s).ok()) {
    std::fprintf(stderr, "table registration failed\n");
    return 1;
  }

  // The serving configuration as an operator would ship it: Properties
  // keys (see docs/CONFIG.md), not code.
  Properties props;
  props.SetInt(serving::kCacheShardsKey, 4);
  props.SetInt(serving::kCacheCapacityKey, 1024);
  props.SetInt(serving::kServingJobsKey, 1);
  auto opts = serving::ServiceOptions::FromProperties(props);
  if (!opts.ok()) {
    std::fprintf(stderr, "options: %s\n",
                 opts.status().ToString().c_str());
    return 1;
  }
  serving::EstimationService service(&sphere.cost_estimator(), opts.value());
  if (!sphere.AttachEstimationService(&service).ok()) {
    std::fprintf(stderr, "attach failed\n");
    return 1;
  }

  // Plan the same join twice: the first pass fills the cache, the second
  // is served from it (identical plan, bit-identical costs).
  fed::QuerySpec join;
  join.relations = {{"T8000000_250", 1.0, 32}, {"T2000000_100", 1.0, 32}};
  join.joins = {{0, 1, "a1", 0.5}};
  for (int pass = 0; pass < 2; ++pass) {
    auto plan = sphere.PlanQuery(join);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    auto best = plan.value().best();
    if (!best.ok()) {
      std::fprintf(stderr, "empty plan\n");
      return 1;
    }
    const fed::QueryPlanNode& root =
        plan.value().nodes[static_cast<size_t>(best.value().root)];
    const serving::CacheStats stats = service.cache_stats();
    std::printf(
        "pass %d: placed on %s, %.3fs total; cache hits=%lld misses=%lld\n",
        pass + 1, root.system.c_str(), best.value().total_seconds,
        static_cast<long long>(stats.hits),
        static_cast<long long>(stats.misses));
  }

  const std::string json =
      "{\n  \"status\": " + service.StatsSnapshot().ToJson("  ") + "\n}\n";
  std::printf("\n%s", json.c_str());

  std::ofstream out("EXPLAIN_serving.json");
  if (!out) {
    std::fprintf(stderr, "cannot open EXPLAIN_serving.json\n");
    return 1;
  }
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed writing EXPLAIN_serving.json\n");
    return 1;
  }
  std::printf("wrote EXPLAIN_serving.json\n");
  return 0;
}
