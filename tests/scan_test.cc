// Tests for the selection/projection ("scan") operator across the stack:
// descriptor validation, workload generation, remote execution, sub-op
// formula, logical-op training, local cost model, and placement planning.

#include <gtest/gtest.h>

#include "core/formulas.h"
#include "core/sub_op.h"
#include "core/trainer.h"
#include "engine/local_cost_model.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/blackbox.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "util/metrics.h"

namespace intellisphere {
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

TEST(ScanQueryTest, ValidationRules) {
  rel::ScanQuery q;
  q.input = {1000, 100};
  q.selectivity = 0.5;
  q.projected_bytes = 32;
  q.output_rows = 500;
  EXPECT_TRUE(q.Validate().ok());
  auto f = q.LogicalOpFeatures();
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], 1000);
  EXPECT_EQ(f[3], 32);

  rel::ScanQuery bad = q;
  bad.selectivity = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad = q;
  bad.projected_bytes = 101;  // wider than the input row
  EXPECT_FALSE(bad.Validate().ok());
  bad = q;
  bad.output_rows = 1001;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ScanQueryTest, MakeScanQueryAndWorkload) {
  auto def = rel::SyntheticTableDef(100000, 250).value();
  auto q = rel::MakeScanQuery(def, 0.25, 32).value();
  EXPECT_EQ(q.output_rows, 25000);
  EXPECT_FALSE(rel::MakeScanQuery(def, -0.1, 32).ok());
  EXPECT_FALSE(rel::MakeScanQuery(def, 0.5, 300).ok());

  rel::ScanWorkloadOptions opts;
  opts.record_counts = {10000, 100000};
  opts.record_sizes = {40, 250};
  opts.selectivities = {1.0, 0.1};
  opts.projection_levels = {0, 2};
  auto queries = rel::GenerateScanWorkload(opts).value();
  EXPECT_EQ(queries.size(), 2u * 2 * 2 * 2);
}

TEST(ScanExecutionTest, EnginesRunScans) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 61);
  auto spark = remote::SparkEngine::CreateDefault("spark", 62);
  auto def = rel::SyntheticTableDef(8000000, 250).value();
  auto q = rel::MakeScanQuery(def, 0.5, 32).value();
  auto rh = hive->ExecuteScan(q).value();
  auto rs = spark->ExecuteScan(q).value();
  EXPECT_GT(rh.elapsed_seconds, 0.0);
  EXPECT_EQ(rh.physical_algorithm, "map_only_scan");
  // Spark's lower per-task overheads make the same map-only scan cheaper.
  EXPECT_LT(rs.elapsed_seconds, rh.elapsed_seconds);
}

TEST(ScanExecutionTest, CostGrowsWithInputAndOutput) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 63);
  auto small = rel::SyntheticTableDef(2000000, 250).value();
  auto big = rel::SyntheticTableDef(20000000, 250).value();
  double t_small =
      hive->ExecuteScan(rel::MakeScanQuery(small, 0.5, 32).value())
          .value()
          .elapsed_seconds;
  double t_big = hive->ExecuteScan(rel::MakeScanQuery(big, 0.5, 32).value())
                     .value()
                     .elapsed_seconds;
  EXPECT_GT(t_big, 2.0 * t_small);
  // Writing more survivors costs more.
  double t_sel_low =
      hive->ExecuteScan(rel::MakeScanQuery(big, 0.01, 250).value())
          .value()
          .elapsed_seconds;
  double t_sel_high =
      hive->ExecuteScan(rel::MakeScanQuery(big, 1.0, 250).value())
          .value()
          .elapsed_seconds;
  EXPECT_GT(t_sel_high, t_sel_low);
}

TEST(ScanExecutionTest, DispatchThroughSqlOperator) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 64);
  auto def = rel::SyntheticTableDef(1000000, 100).value();
  auto op = rel::SqlOperator::MakeScan(rel::MakeScanQuery(def, 0.5, 32).value());
  EXPECT_TRUE(hive->Execute(op).ok());
  remote::BlackboxSystem blackbox(
      remote::HiveEngine::CreateDefault("bb", 65));
  auto r = blackbox.Execute(op).value();
  EXPECT_TRUE(r.physical_algorithm.empty());  // blackbox hides the plan
}

TEST(ScanSubOpTest, FormulaTracksEngine) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 66);
  auto cal = core::CalibrateSubOps(hive.get(), InfoFor(*hive),
                                   core::CalibrationOptions{})
                 .value();
  auto est = core::SubOpCostEstimator::ForHive(cal.catalog).value();
  std::vector<double> actual, pred;
  for (int64_t rows : {2000000LL, 8000000LL, 20000000LL}) {
    for (double sel : {1.0, 0.25}) {
      auto def = rel::SyntheticTableDef(rows, 250).value();
      auto q = rel::MakeScanQuery(def, sel, 32).value();
      actual.push_back(hive->ExecuteScan(q).value().elapsed_seconds);
      auto se = est.EstimateScan(q).value();
      EXPECT_EQ(se.chosen_algorithm, "map_only_scan");
      pred.push_back(se.seconds);
    }
  }
  EXPECT_GT(RSquared(actual, pred).value(), 0.85);
}

TEST(ScanLogicalOpTest, BlackboxScanModelTrains) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 67);
  rel::ScanWorkloadOptions wopts;
  wopts.record_counts = {100000, 400000, 1000000, 4000000};
  wopts.record_sizes = {40, 100, 250, 500};
  auto queries = rel::GenerateScanWorkload(wopts).value();
  auto run = core::CollectScanTraining(hive.get(), queries).value();
  EXPECT_EQ(run.data.num_features(), 4u);
  EXPECT_EQ(core::ScanDimensionNames().size(), 4u);
  core::LogicalOpOptions opts;
  opts.mlp.iterations = 6000;
  auto model = core::LogicalOpModel::Train(rel::OperatorType::kScan,
                                           run.data,
                                           core::ScanDimensionNames(), opts)
                   .value();
  std::vector<double> actual, pred;
  for (size_t i = 0; i < run.data.size(); i += 4) {
    actual.push_back(run.data.y[i]);
    pred.push_back(model.Estimate(run.data.x[i]).value().seconds);
  }
  EXPECT_GT(RSquared(actual, pred).value(), 0.9);
}

TEST(ScanLocalModelTest, ScalesAndDispatches) {
  eng::LocalCostModel model;
  auto def = rel::SyntheticTableDef(1000000, 250).value();
  auto q = rel::MakeScanQuery(def, 0.5, 32).value();
  double t = model.EstimateScanSeconds(q).value();
  EXPECT_GT(t, 0.0);
  auto big = rel::SyntheticTableDef(8000000, 250).value();
  EXPECT_GT(model.EstimateScanSeconds(rel::MakeScanQuery(big, 0.5, 32).value())
                .value(),
            t);
  auto op = rel::SqlOperator::MakeScan(q);
  EXPECT_DOUBLE_EQ(model.EstimateSeconds(op).value(), t);
}

TEST(ScanPlanningTest, PushdownMakesTeradataCompetitive) {
  fed::IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 68);
  auto* raw = hive.get();
  auto cal = core::CalibrateSubOps(raw, InfoFor(*raw),
                                   core::CalibrationOptions{})
                 .value();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(
                      std::move(hive),
                      core::CostingProfile::SubOpOnly(
                          core::SubOpCostEstimator::ForHive(cal.catalog)
                              .value()),
                      fed::ConnectorParams{})
                  .ok());
  auto t = rel::SyntheticTableDef(8000000, 250).value();
  t.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(t).ok());

  // A highly selective scan: QueryGrid pushdown ships only the survivors,
  // so either placement is cheap; the remote one avoids the transfer.
  fed::QuerySpec spec;
  spec.relations = {{"T8000000_250", 0.01, 32}};
  auto plan = sphere.PlanQuery(spec).value();
  ASSERT_EQ(plan.candidates.size(), 2u);
  const fed::QueryPlanNode* root = plan.root().value();
  EXPECT_EQ(root->op.type, rel::OperatorType::kScan);
  EXPECT_EQ(root->op.scan.output_rows, 80000);
  for (const auto& c : plan.candidates) {
    const fed::QueryPlanNode& node = plan.nodes[static_cast<size_t>(c.root)];
    if (node.system == fed::kTeradataSystemName) {
      // Only 80k x 32 B travel: far below shipping the full 2 GB table.
      EXPECT_LT(node.transfer_seconds, 5.0);
    }
  }
  // Executing the best placement works end to end.
  EXPECT_TRUE(sphere.ExecuteBest(plan).ok());
}

class ScanSelectivitySweep : public ::testing::TestWithParam<double> {};

TEST_P(ScanSelectivitySweep, OutputsNeverExceedInput) {
  auto def = rel::SyntheticTableDef(4000000, 100).value();
  auto q = rel::MakeScanQuery(def, GetParam(), 32).value();
  EXPECT_LE(q.output_rows, q.input.num_rows);
  auto hive = remote::HiveEngine::CreateDefault("hive", 69);
  EXPECT_GT(hive->ExecuteScan(q).value().elapsed_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Selectivities, ScanSelectivitySweep,
                         ::testing::Values(0.0, 0.01, 0.25, 0.5, 1.0));

}  // namespace
}  // namespace intellisphere
