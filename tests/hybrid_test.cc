// Unit tests for hybrid costing profiles and the CostEstimator registry
// (Section 5, Figure 9).

#include <gtest/gtest.h>

#include "core/hybrid.h"
#include "core/trainer.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"

namespace intellisphere::core {
namespace {

OpenboxInfo InfoFor(const remote::HiveEngine& hive) {
  OpenboxInfo info;
  info.dfs_block_bytes = hive.cluster().config().dfs_block_bytes;
  info.total_slots = hive.cluster().config().TotalSlots();
  info.num_worker_nodes = hive.cluster().config().num_worker_nodes;
  info.task_memory_bytes = hive.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      hive.options().broadcast_threshold_factor * info.task_memory_bytes;
  return info;
}

SubOpCostEstimator MakeSubOpEstimator(remote::HiveEngine* hive) {
  CalibrationOptions opts;
  opts.record_sizes = {40, 250, 1000};
  opts.record_counts = {1000000, 4000000};
  auto run = CalibrateSubOps(hive, InfoFor(*hive), opts).value();
  return SubOpCostEstimator::ForHive(std::move(run.catalog)).value();
}

LogicalOpModel MakeAggModel(remote::HiveEngine* hive) {
  rel::AggWorkloadOptions wopts;
  wopts.record_counts = {100000, 400000, 1000000};
  wopts.record_sizes = {100, 500};
  wopts.num_aggregates = {1, 3};
  auto queries = rel::GenerateAggWorkload(wopts).value();
  auto run = CollectAggTraining(hive, queries).value();
  LogicalOpOptions opts;
  opts.mlp.iterations = 4000;
  return LogicalOpModel::Train(rel::OperatorType::kAggregation, run.data,
                               AggDimensionNames(), opts)
      .value();
}

rel::SqlOperator SampleAgg() {
  auto t = rel::SyntheticTableDef(400000, 100).value();
  return rel::SqlOperator::MakeAgg(rel::MakeAggQuery(t, 10, 1).value());
}

rel::SqlOperator SampleJoin() {
  auto l = rel::SyntheticTableDef(4000000, 250).value();
  auto r = rel::SyntheticTableDef(400000, 100).value();
  return rel::SqlOperator::MakeJoin(
      rel::MakeJoinQuery(l, r, 32, 32, 0.5).value());
}

TEST(CostingProfileTest, SubOpOnlyProfile) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 21);
  auto profile = CostingProfile::SubOpOnly(MakeSubOpEstimator(hive.get()));
  EXPECT_EQ(profile.approach(), CostingApproach::kSubOp);
  EXPECT_TRUE(profile.has_sub_op());
  auto est = profile.Estimate(SampleJoin()).value();
  EXPECT_EQ(est.approach_used, CostingApproach::kSubOp);
  EXPECT_GT(est.seconds, 0.0);
  EXPECT_FALSE(est.algorithm.empty());
  EXPECT_FALSE(profile.has_logical_model(rel::OperatorType::kJoin));
}

TEST(CostingProfileTest, CostOnlySubOpEstimateCarriesNoCandidateList) {
  // The candidate list is provenance: a cost-only estimate skips it and
  // keeps every number the provenance estimate has.
  auto hive = remote::HiveEngine::CreateDefault("hive", 22);
  auto profile = CostingProfile::SubOpOnly(MakeSubOpEstimator(hive.get()));
  EstimateContext provenance;
  provenance.detail = EstimateDetail::kProvenance;
  auto cost_only = profile.Estimate(SampleJoin()).value();
  auto full = profile.Estimate(SampleJoin(), provenance).value();
  EXPECT_EQ(cost_only.seconds, full.seconds);
  EXPECT_EQ(cost_only.algorithm, full.algorithm);
  EXPECT_EQ(cost_only.eliminated_count, full.eliminated_count);
  EXPECT_TRUE(cost_only.candidates.empty());
  EXPECT_FALSE(full.candidates.empty());
}

TEST(CostingProfileTest, LogicalOpOnlyProfile) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 22);
  std::map<rel::OperatorType, LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive.get()));
  auto profile = CostingProfile::LogicalOpOnly(std::move(models));
  auto est = profile.Estimate(SampleAgg()).value();
  EXPECT_EQ(est.approach_used, CostingApproach::kLogicalOp);
  EXPECT_GT(est.seconds, 0.0);
  // No model for joins and no sub-op fallback: an error, not a guess.
  EXPECT_FALSE(profile.Estimate(SampleJoin()).ok());
}

TEST(CostingProfileTest, TimePhasedSwitch) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 23);
  std::map<rel::OperatorType, LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive.get()));
  auto profile = CostingProfile::SubOpThenLogicalOp(
      MakeSubOpEstimator(hive.get()), std::move(models),
      /*switch_time=*/1000.0);
  // Before t1: sub-op.
  EXPECT_EQ(profile.Estimate(SampleAgg(), EstimateContext::AtTime(0.0))
                .value()
                .approach_used,
            CostingApproach::kSubOp);
  // After t1: logical-op.
  EXPECT_EQ(profile.Estimate(SampleAgg(), EstimateContext::AtTime(2000.0))
                .value()
                .approach_used,
            CostingApproach::kLogicalOp);
  // After t1 but no join model yet: falls back to sub-op.
  auto est = profile.Estimate(SampleJoin(), EstimateContext::AtTime(2000.0))
                 .value();
  EXPECT_EQ(est.approach_used, CostingApproach::kSubOp);
  EXPECT_TRUE(est.fell_back_to_sub_op);
}

TEST(CostingProfileTest, AtTimeContextMatchesFullContext) {
  // EstimateContext::AtTime(now) is the clock-only migration target for the
  // removed `double now` overloads; it must cost identically to an
  // explicitly populated context carrying the same clock.
  auto hive = remote::HiveEngine::CreateDefault("hive", 27);
  std::map<rel::OperatorType, LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive.get()));
  auto profile = CostingProfile::SubOpThenLogicalOp(
      MakeSubOpEstimator(hive.get()), std::move(models),
      /*switch_time=*/1000.0);
  EstimateContext explicit_ctx;
  explicit_ctx.now = 2000.0;
  auto at_time = profile.Estimate(SampleAgg(), EstimateContext::AtTime(2000.0))
                     .value();
  auto full = profile.Estimate(SampleAgg(), explicit_ctx).value();
  EXPECT_EQ(at_time.approach_used, full.approach_used);
  EXPECT_DOUBLE_EQ(at_time.seconds, full.seconds);
}

TEST(CostingProfileTest, LoggingFeedsLogicalModels) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 24);
  std::map<rel::OperatorType, LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive.get()));
  auto profile = CostingProfile::LogicalOpOnly(std::move(models));
  ASSERT_TRUE(profile.LogActual(SampleAgg(), 12.5).ok());
  EXPECT_EQ(
      profile.logical_model(rel::OperatorType::kAggregation).value()->log_size(),
      1u);
  ASSERT_TRUE(profile.OfflineTune().ok());
  EXPECT_EQ(
      profile.logical_model(rel::OperatorType::kAggregation).value()->log_size(),
      0u);
  // Logging an operator type with no logical model is a silent no-op.
  EXPECT_TRUE(profile.LogActual(SampleJoin(), 99.0).ok());
}

TEST(CostEstimatorTest, RegistryDispatch) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 25);
  CostEstimator estimator;
  ASSERT_TRUE(estimator
                  .RegisterSystem("hive", CostingProfile::SubOpOnly(
                                              MakeSubOpEstimator(hive.get())))
                  .ok());
  EXPECT_TRUE(estimator.HasSystem("hive"));
  EXPECT_EQ(estimator.num_systems(), 1u);
  EXPECT_GT(estimator.Estimate("hive", SampleJoin()).value().seconds, 0.0);
  EXPECT_EQ(estimator.Estimate("presto", SampleJoin()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(estimator
                .RegisterSystem("hive", CostingProfile::SubOpOnly(
                                            MakeSubOpEstimator(hive.get())))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(CostEstimatorTest, FeedbackRoutesThroughRegistry) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 26);
  CostEstimator estimator;
  std::map<rel::OperatorType, LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive.get()));
  ASSERT_TRUE(
      estimator
          .RegisterSystem("hive",
                          CostingProfile::LogicalOpOnly(std::move(models)))
          .ok());
  ASSERT_TRUE(estimator.LogActual("hive", SampleAgg(), 10.0).ok());
  EXPECT_TRUE(estimator.OfflineTune("hive").ok());
  EXPECT_FALSE(estimator.LogActual("nope", SampleAgg(), 10.0).ok());
}

TEST(CostEstimatorTest, DifferentProfilesGiveDifferentCosts) {
  // Heterogeneity: the same operator costs differently on two registered
  // systems — the reason the optimizer needs per-system profiles at all.
  auto hive = remote::HiveEngine::CreateDefault("hive", 27);
  auto hive2 = remote::HiveEngine::CreateDefault("hive-small", 28);
  CostEstimator estimator;
  ASSERT_TRUE(estimator
                  .RegisterSystem("hive", CostingProfile::SubOpOnly(
                                              MakeSubOpEstimator(hive.get())))
                  .ok());
  // A second profile calibrated with fewer slots claimed by the expert.
  CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000};
  OpenboxInfo info = InfoFor(*hive2);
  info.total_slots = 2;  // pretend a smaller deployment
  auto run = CalibrateSubOps(hive2.get(), info, copts).value();
  ASSERT_TRUE(
      estimator
          .RegisterSystem("hive-small",
                          CostingProfile::SubOpOnly(
                              SubOpCostEstimator::ForHive(run.catalog).value()))
          .ok());
  double big = estimator.Estimate("hive", SampleJoin()).value().seconds;
  double small =
      estimator.Estimate("hive-small", SampleJoin()).value().seconds;
  EXPECT_GT(small, big);  // fewer slots -> more waves -> higher estimate
}

}  // namespace
}  // namespace intellisphere::core
