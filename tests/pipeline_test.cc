// Tests for multi-operator pipeline planning through PlanQuery: a join
// followed by an aggregation, where the intermediate result may stay on the
// system that produced it and the final answer returns to Teradata.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/sub_op.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"

namespace intellisphere::fed {
namespace {

core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& e) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = e.cluster().config().dfs_block_bytes;
  info.total_slots = e.cluster().config().TotalSlots();
  info.num_worker_nodes = e.cluster().config().num_worker_nodes;
  info.task_memory_bytes = e.cluster().config().TaskMemoryBytes();
  // The expert records the engine's auto-broadcast threshold; leaving it
  // unset would let the worst-case policy price broadcasts the engine
  // would never attempt.
  info.broadcast_threshold_bytes = 0.02 * info.task_memory_bytes;
  return info;
}

core::CostingProfile ProfileFor(remote::SimulatedEngineBase* engine) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(engine, InfoFor(*engine), copts).value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

/// Join `left` and `right` on a1, then GROUP BY `group_column` (a column of
/// the left table) computing `num_aggregates` SUMs; the final answer
/// returns to Teradata.
QuerySpec JoinThenAggSpec(const std::string& left, const std::string& right,
                          int64_t left_projected_bytes,
                          int64_t right_projected_bytes,
                          double extra_selectivity,
                          const std::string& group_column,
                          int num_aggregates) {
  QuerySpec spec;
  spec.relations = {{left, 1.0, left_projected_bytes},
                    {right, 1.0, right_projected_bytes}};
  spec.joins = {{0, 1, "a1", extra_selectivity}};
  spec.aggregate = QuerySpec::Aggregate{0, group_column, num_aggregates};
  spec.result_to_master = true;
  return spec;
}

/// A candidate's two stages: the aggregation root and the join under it.
struct Stages {
  const QueryPlanNode& join;
  const QueryPlanNode& agg;
};

Stages StagesOf(const QueryPlan& plan, const QueryPlanCandidate& candidate) {
  const QueryPlanNode& agg = plan.nodes[static_cast<size_t>(candidate.root)];
  return {plan.nodes[static_cast<size_t>(agg.children.front())], agg};
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto hive = remote::HiveEngine::CreateDefault("hive", 81);
    auto* hive_raw = hive.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(hive),
                                          ProfileFor(hive_raw),
                                          ConnectorParams{})
                    .ok());
    auto spark = remote::SparkEngine::CreateDefault("spark", 82);
    auto* spark_raw = spark.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(spark),
                                          ProfileFor(spark_raw),
                                          ConnectorParams{})
                    .ok());
    auto r = rel::SyntheticTableDef(8000000, 250).value();
    r.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(r).ok());
    auto s = rel::SyntheticTableDef(2000000, 100).value();
    s.location = "spark";
    ASSERT_TRUE(sphere_.RegisterTable(s).ok());
  }

  IntelliSphere sphere_;
};

TEST_F(PipelineTest, EnumeratesJoinAggPlacements) {
  auto plan = sphere_
                  .PlanQuery(JoinThenAggSpec("T8000000_250", "T2000000_100",
                                             32, 32, 0.5, "a10", 2))
                  .value();
  // Join hosts: hive, spark, teradata; agg hosts: join host or teradata.
  // (join on teradata collapses the pair, so 5 distinct placements.)
  EXPECT_EQ(plan.candidates.size(), 5u);
  // Sorted cheapest-first.
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_LE(plan.candidates[i - 1].total_seconds,
              plan.candidates[i].total_seconds);
  }
  // Operator descriptors are consistent.
  const Stages best = StagesOf(plan, plan.candidates.front());
  EXPECT_EQ(best.join.op.type, rel::OperatorType::kJoin);
  EXPECT_EQ(best.agg.op.type, rel::OperatorType::kAggregation);
  EXPECT_EQ(best.agg.op.agg.input.num_rows, best.join.op.join.output_rows);
  EXPECT_EQ(best.agg.op.agg.input.row_bytes,
            best.join.op.join.OutputRowBytes());
}

TEST_F(PipelineTest, TransferAccountingIsConsistent) {
  auto plan = sphere_
                  .PlanQuery(JoinThenAggSpec("T8000000_250", "T2000000_100",
                                             32, 32, 0.5, "a10", 2))
                  .value();
  for (const auto& c : plan.candidates) {
    const Stages p = StagesOf(plan, c);
    // Keeping the aggregation with the join avoids intermediate transfer.
    if (p.agg.system == p.join.system) {
      EXPECT_DOUBLE_EQ(p.agg.transfer_seconds, 0.0);
    } else {
      EXPECT_GT(p.agg.transfer_seconds, 0.0);
    }
    // A remote final answer must come back to Teradata.
    if (p.agg.system == kTeradataSystemName) {
      EXPECT_DOUBLE_EQ(c.result_transfer_seconds, 0.0);
    } else {
      EXPECT_GT(c.result_transfer_seconds, 0.0);
    }
    EXPECT_GT(p.join.operator_seconds, 0.0);
    EXPECT_GT(p.agg.operator_seconds, 0.0);
  }
}

TEST_F(PipelineTest, ShrinkingAggregationStaysRemote) {
  // An 80 GB left table makes shipping it to Teradata prohibitive; with
  // full-row projections the join result is a 2.2 GB intermediate, and
  // GROUP BY a100 shrinks it 100x: the winning plan joins on the data's
  // owner and aggregates in place, shipping only the groups.
  auto big = rel::SyntheticTableDef(80000000, 1000).value();
  big.location = "hive";
  ASSERT_TRUE(sphere_.RegisterTable(big).ok());
  auto plan = sphere_
                  .PlanQuery(JoinThenAggSpec("T80000000_1000", "T2000000_100",
                                             1000, 100, 1.0, "a100", 1))
                  .value();
  const Stages best = StagesOf(plan, plan.best().value());
  EXPECT_EQ(best.join.system, "hive");
  EXPECT_EQ(best.agg.system, best.join.system);
}

TEST_F(PipelineTest, GroupCardinalityCappedByJoinOutput) {
  // At selectivity 0.01 the join result (20k rows) has fewer rows than
  // a10's distinct count (800k): the estimate must cap.
  auto plan = sphere_
                  .PlanQuery(JoinThenAggSpec("T8000000_250", "T2000000_100",
                                             32, 32, 0.01, "a10", 1))
                  .value();
  const Stages best = StagesOf(plan, plan.candidates.front());
  EXPECT_LE(best.agg.op.agg.output_rows, best.join.op.join.output_rows);
}

TEST_F(PipelineTest, ErrorsOnUnknownTables) {
  EXPECT_FALSE(sphere_
                   .PlanQuery(JoinThenAggSpec("nope", "T2000000_100", 32, 32,
                                              0.5, "a10", 2))
                   .ok());
}

}  // namespace
}  // namespace intellisphere::fed
