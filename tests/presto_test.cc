// Tests for the Presto-like engine: strategy selection, the no-spill
// memory limit (a genuine capability gap), and how the federation layer
// routes around systems that cannot run an operator.

#include <gtest/gtest.h>

#include "core/sub_op.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/presto_engine.h"

namespace intellisphere {
namespace {

using rel::MakeAggQuery;
using rel::MakeJoinQuery;
using rel::SyntheticTableDef;

TEST(PrestoEngineTest, BroadcastsSmallBuildSides) {
  auto presto = remote::PrestoEngine::CreateDefault("presto", 91);
  auto l = SyntheticTableDef(8000000, 250).value();
  auto r = SyntheticTableDef(100000, 100).value();  // 10 MB
  auto q = MakeJoinQuery(l, r, 32, 32, 1.0).value();
  EXPECT_EQ(presto->PlanJoin(q).value(),
            remote::PrestoJoinAlgorithm::kBroadcastHashJoin);
  auto result = presto->ExecuteJoin(q).value();
  EXPECT_EQ(result.physical_algorithm, "broadcast_hash_join");
  EXPECT_GT(result.elapsed_seconds, 0.0);
}

TEST(PrestoEngineTest, PartitionsMediumBuildSides) {
  auto presto = remote::PrestoEngine::CreateDefault("presto", 92);
  auto l = SyntheticTableDef(8000000, 250).value();
  auto r = SyntheticTableDef(4000000, 250).value();  // 1 GB: partitioned
  auto q = MakeJoinQuery(l, r, 32, 32, 0.5).value();
  EXPECT_EQ(presto->PlanJoin(q).value(),
            remote::PrestoJoinAlgorithm::kPartitionedHashJoin);
  EXPECT_TRUE(presto->ExecuteJoin(q).ok());
}

TEST(PrestoEngineTest, OversizedJoinsFailInsteadOfSpilling) {
  auto presto = remote::PrestoEngine::CreateDefault("presto", 93);
  auto l = SyntheticTableDef(80000000, 1000).value();
  auto r = SyntheticTableDef(80000000, 1000).value();  // 80 GB build side
  auto q = MakeJoinQuery(l, r, 32, 32, 0.5).value();
  EXPECT_EQ(presto->PlanJoin(q).status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(presto->ExecuteJoin(q).status().code(),
            StatusCode::kUnsupported);
}

TEST(PrestoEngineTest, OversizedAggregationsFail) {
  auto presto = remote::PrestoEngine::CreateDefault("presto", 94);
  auto t = SyntheticTableDef(80000000, 100).value();
  // 80M groups x 44 B spread over 6 workers still exceeds the budget.
  auto big = MakeAggQuery(t, 2, 5).value();
  big.output_rows = t.stats.num_rows / 2;
  EXPECT_EQ(presto->ExecuteAgg(big).status().code(),
            StatusCode::kUnsupported);
  // A shrinking aggregation is fine.
  auto small = MakeAggQuery(t, 100, 2).value();
  EXPECT_TRUE(presto->ExecuteAgg(small).ok());
}

TEST(PrestoEngineTest, FastestOfTheThreeEnginesOnSmallJoins) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 95);
  auto presto = remote::PrestoEngine::CreateDefault("presto", 95);
  auto l = SyntheticTableDef(4000000, 250).value();
  auto r = SyntheticTableDef(100000, 100).value();
  auto q = MakeJoinQuery(l, r, 32, 32, 1.0).value();
  double th = hive->ExecuteJoin(q).value().elapsed_seconds;
  double tp = presto->ExecuteJoin(q).value().elapsed_seconds;
  EXPECT_LT(tp, th);  // pipelined MPP beats the MapReduce path
}

TEST(PrestoEngineTest, SupportsProbesAndScans) {
  auto presto = remote::PrestoEngine::CreateDefault("presto", 96);
  EXPECT_TRUE(
      presto->ExecuteProbe(remote::ProbeKind::kReadOnly, {1000000, 100})
          .ok());
  auto t = SyntheticTableDef(1000000, 100).value();
  EXPECT_TRUE(presto->ExecuteScan(rel::MakeScanQuery(t, 0.5, 32).value())
                  .ok());
}

TEST(PrestoFederationTest, PlannerRoutesAroundMemoryLimits) {
  // A table lives on Presto but joining it there would exceed the memory
  // limit: the optimizer must not offer Presto as a candidate.
  fed::IntelliSphere sphere;
  auto presto = remote::PrestoEngine::CreateDefault("presto", 97);
  auto* raw = presto.get();
  core::OpenboxInfo info;
  info.dfs_block_bytes = raw->cluster().config().dfs_block_bytes;
  info.total_slots = raw->cluster().config().TotalSlots();
  info.num_worker_nodes = raw->cluster().config().num_worker_nodes;
  info.task_memory_bytes = raw->cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      raw->options().broadcast_threshold_factor * info.task_memory_bytes;
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto cal = core::CalibrateSubOps(raw, info, copts).value();
  // The expert encodes the no-spill limit as the profile's memory budget:
  // a build side beyond all workers' memory has no applicable algorithm.
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(
                      std::move(presto),
                      core::CostingProfile::SubOpOnly(
                          core::SubOpCostEstimator::ForHive(cal.catalog)
                              .value()),
                      fed::ConnectorParams{})
                  .ok());
  auto big = SyntheticTableDef(80000000, 1000).value();
  big.location = "presto";
  ASSERT_TRUE(sphere.RegisterTable(big).ok());
  auto other = SyntheticTableDef(80000000, 500).value();
  other.location = fed::kTeradataSystemName;
  ASSERT_TRUE(sphere.RegisterTable(other).ok());

  fed::QuerySpec spec;
  spec.relations = {{"T80000000_1000", 1.0, 32}, {"T80000000_500", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 0.5}};
  auto plan = sphere.PlanQuery(spec).value();
  // Presto cannot execute the oversized join (ExecuteBest would fail), but
  // Teradata can, so a plan exists either way.
  ASSERT_FALSE(plan.candidates.empty());
  bool teradata_offered = false;
  for (const auto& c : plan.candidates) {
    teradata_offered |= plan.nodes[static_cast<size_t>(c.root)].system ==
                        fed::kTeradataSystemName;
  }
  EXPECT_TRUE(teradata_offered);
}

}  // namespace
}  // namespace intellisphere
