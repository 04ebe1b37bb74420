// Unit tests for the federation layer: QueryGrid transfer model, the
// IntelliSphere placement optimizer (PlanQuery) and the plan executor
// (ExecuteBest).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sub_op.h"
#include "federation/intellisphere.h"
#include "federation/querygrid.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "util/trace.h"

namespace intellisphere::fed {
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

core::CostingProfile ProfileFor(remote::HiveEngine* hive) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(
                 hive, InfoFor(*hive, hive->options().broadcast_threshold_factor),
                 copts)
                 .value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

TEST(QueryGridTest, TransferCostComponents) {
  QueryGrid grid;
  ConnectorParams p;
  p.setup_seconds = 1.0;
  p.per_record_us = 1.0;
  p.bandwidth_bytes_per_sec = 1e6;
  ASSERT_TRUE(grid.RegisterConnector("hive", p).ok());
  // 1e6 records x 100 B: 1 + 1 s marshalling + 100 s wire time.
  EXPECT_NEAR(grid.TransferSeconds("hive", 1000000, 100).value(), 102.0,
              1e-9);
  EXPECT_FALSE(grid.TransferSeconds("presto", 1, 1).ok());
  EXPECT_FALSE(grid.TransferSeconds("hive", -1, 1).ok());
}

TEST(QueryGridTest, PushdownReducesVolume) {
  QueryGrid grid;
  ConnectorParams p;
  p.pushdown_selectivity = 0.1;
  ASSERT_TRUE(grid.RegisterConnector("hive", p).ok());
  ConnectorParams full;
  QueryGrid grid2;
  ASSERT_TRUE(grid2.RegisterConnector("hive", full).ok());
  EXPECT_LT(grid.TransferSeconds("hive", 1000000, 100).value(),
            grid2.TransferSeconds("hive", 1000000, 100).value());
}

TEST(QueryGridTest, RelayGoesThroughTeradata) {
  QueryGrid grid;
  ASSERT_TRUE(grid.RegisterConnector("hive", ConnectorParams{}).ok());
  ASSERT_TRUE(grid.RegisterConnector("spark", ConnectorParams{}).ok());
  double one_hop = grid.TransferSeconds("hive", 1000000, 100).value();
  // Remote-to-remote pays both hops.
  EXPECT_NEAR(grid.RelaySeconds("hive", "spark", 1000000, 100).value(),
              2 * one_hop, 1e-9);
  // To/from Teradata pays one hop.
  EXPECT_NEAR(
      grid.RelaySeconds("hive", kTeradataSystemName, 1000000, 100).value(),
      one_hop, 1e-9);
  EXPECT_DOUBLE_EQ(grid.RelaySeconds("hive", "hive", 1000000, 100).value(),
                   0.0);
}

TEST(QueryGridTest, RegistrationRules) {
  QueryGrid grid;
  EXPECT_FALSE(grid.RegisterConnector(kTeradataSystemName, {}).ok());
  ASSERT_TRUE(grid.RegisterConnector("hive", {}).ok());
  EXPECT_EQ(grid.RegisterConnector("hive", {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(grid.HasConnector("hive"));
}

QuerySpec JoinSpec(const std::string& left, const std::string& right,
                   double extra_selectivity) {
  QuerySpec spec;
  spec.relations = {{left, 1.0, 32}, {right, 1.0, 32}};
  spec.joins = {{0, 1, "a1", extra_selectivity}};
  return spec;
}

QuerySpec AggSpec(const std::string& table, const std::string& group_column,
                  int num_aggregates) {
  QuerySpec spec;
  spec.relations.resize(1);
  spec.relations[0].table = table;
  spec.aggregate = QuerySpec::Aggregate{0, group_column, num_aggregates};
  return spec;
}

const QueryPlanNode& RootOf(const QueryPlan& plan,
                            const QueryPlanCandidate& candidate) {
  return plan.nodes[static_cast<size_t>(candidate.root)];
}

/// Pass-through decorator that records the observed seconds of every
/// operator it runs, in execution order.
class RecordingSystem : public remote::RemoteSystem {
 public:
  explicit RecordingSystem(std::unique_ptr<remote::RemoteSystem> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] Result<remote::QueryResult> ExecuteJoin(
      const rel::JoinQuery& query) override {
    return Record(inner_->ExecuteJoin(query));
  }
  [[nodiscard]] Result<remote::QueryResult> ExecuteAgg(
      const rel::AggQuery& query) override {
    return Record(inner_->ExecuteAgg(query));
  }
  [[nodiscard]] Result<remote::QueryResult> ExecuteScan(
      const rel::ScanQuery& query) override {
    return Record(inner_->ExecuteScan(query));
  }
  double total_simulated_seconds() const override {
    return inner_->total_simulated_seconds();
  }
  int64_t queries_executed() const override {
    return inner_->queries_executed();
  }
  const std::vector<double>& observed() const { return observed_; }

 private:
  Result<remote::QueryResult> Record(Result<remote::QueryResult> result) {
    if (result.ok()) observed_.push_back(result.value().elapsed_seconds);
    return result;
  }

  std::unique_ptr<remote::RemoteSystem> inner_;
  std::vector<double> observed_;
};

class IntelliSphereTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto hive = remote::HiveEngine::CreateDefault("hive", 31);
    hive_ = hive.get();
    core::CostingProfile profile = ProfileFor(hive_);
    auto recorder = std::make_unique<RecordingSystem>(std::move(hive));
    recorder_ = recorder.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(recorder),
                                          std::move(profile), ConnectorParams{})
                    .ok());
    auto big = rel::SyntheticTableDef(8000000, 250).value();
    big.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(big).ok());
    auto small = rel::SyntheticTableDef(100000, 100).value();
    small.location = kTeradataSystemName;
    ASSERT_TRUE(sphere_.RegisterTable(small).ok());
  }

  IntelliSphere sphere_;
  remote::HiveEngine* hive_ = nullptr;
  RecordingSystem* recorder_ = nullptr;  ///< wraps hive_ in the facade
};

TEST_F(IntelliSphereTest, RegistrationValidation) {
  auto orphan = rel::SyntheticTableDef(1000, 40).value();
  orphan.location = "presto";  // unregistered
  EXPECT_FALSE(sphere_.RegisterTable(orphan).ok());
  EXPECT_FALSE(sphere_.GetTable("nope").ok());
  EXPECT_TRUE(sphere_.GetSystem("hive").ok());
  EXPECT_FALSE(sphere_.GetSystem(kTeradataSystemName).ok());
  EXPECT_EQ(sphere_.SystemNames(), std::vector<std::string>{"hive"});
}

TEST_F(IntelliSphereTest, PlanJoinEnumeratesHostsAndSorts) {
  auto plan =
      sphere_.PlanQuery(JoinSpec("T8000000_250", "T100000_100", 1.0)).value();
  // Candidates: hive (owns the big table) and teradata.
  ASSERT_EQ(plan.candidates.size(), 2u);
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_LE(plan.candidates[i - 1].total_seconds,
              plan.candidates[i].total_seconds);
  }
  // Moving the 2 GB table to Teradata is costed as transfer.
  for (const auto& c : plan.candidates) {
    const QueryPlanNode& root = RootOf(plan, c);
    if (root.system == kTeradataSystemName) {
      EXPECT_GT(root.transfer_seconds, 1.0);
    } else {
      EXPECT_EQ(root.system, "hive");
      // Only the small Teradata-side table moves to hive.
      EXPECT_LT(root.transfer_seconds, 10.0);
    }
  }
}

TEST_F(IntelliSphereTest, BigRemoteInputFavorsRemoteExecution) {
  // Shipping 2 GB out of hive to join with a 10 MB table would be absurd;
  // the optimizer should place the join on hive.
  auto plan =
      sphere_.PlanQuery(JoinSpec("T8000000_250", "T100000_100", 1.0)).value();
  EXPECT_EQ(plan.root().value()->system, "hive");
}

TEST_F(IntelliSphereTest, TinyLocalInputsFavorTeradata) {
  auto a = rel::SyntheticTableDef(20000, 40).value();
  a.location = kTeradataSystemName;
  a.name = "local_a";
  auto b = rel::SyntheticTableDef(10000, 40).value();
  b.location = kTeradataSystemName;
  b.name = "local_b";
  ASSERT_TRUE(sphere_.RegisterTable(a).ok());
  ASSERT_TRUE(sphere_.RegisterTable(b).ok());
  auto plan = sphere_.PlanQuery(JoinSpec("local_a", "local_b", 1.0)).value();
  EXPECT_EQ(plan.root().value()->system, kTeradataSystemName);
}

TEST_F(IntelliSphereTest, PlanAggConsidersOwnerAndTeradata) {
  // A strongly shrinking aggregation (80k groups) is far cheaper to run
  // where the 2 GB input lives than after shipping it to Teradata.
  auto plan = sphere_.PlanQuery(AggSpec("T8000000_250", "a100", 2)).value();
  ASSERT_EQ(plan.candidates.size(), 2u);
  const QueryPlanNode* root = plan.root().value();
  EXPECT_EQ(root->system, "hive");
  EXPECT_EQ(root->op.type, rel::OperatorType::kAggregation);
  EXPECT_EQ(root->op.agg.output_rows, 80000);
}

TEST_F(IntelliSphereTest, ExecuteBestRunsOnChosenSystem) {
  auto plan = sphere_.PlanQuery(AggSpec("T8000000_250", "a100", 1)).value();
  const QueryPlanNode best = *plan.root().value();
  ASSERT_EQ(best.system, "hive");
  int64_t before = hive_->queries_executed();
  double elapsed = sphere_.ExecuteBest(plan).value();
  EXPECT_GT(elapsed, 0.0);
  EXPECT_EQ(hive_->queries_executed(), before + 1);
  // The estimate is in the same ballpark as the observed execution.
  EXPECT_NEAR(best.operator_seconds, elapsed,
              0.6 * std::max(elapsed, best.operator_seconds));
}

TEST_F(IntelliSphereTest, ExecuteBestRunsEveryOperatorOfTheChosenTree) {
  // Joining an 80 GB hive table with another hive table and aggregating
  // the result: shipping either input to Teradata is prohibitive, so the
  // whole chosen tree runs on hive, one remote query per operator.
  auto huge = rel::SyntheticTableDef(80000000, 1000).value();
  huge.location = "hive";
  ASSERT_TRUE(sphere_.RegisterTable(huge).ok());
  auto other = rel::SyntheticTableDef(2000000, 100).value();
  other.location = "hive";
  ASSERT_TRUE(sphere_.RegisterTable(other).ok());
  QuerySpec spec;
  spec.relations = {{"T80000000_1000", 1.0, kFullRowWidth},
                    {"T2000000_100", 1.0, kFullRowWidth}};
  spec.joins = {{0, 1, "a1", 1.0}};
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  auto plan = sphere_.PlanQuery(spec).value();
  const QueryPlanNode* agg = plan.root().value();
  ASSERT_EQ(agg->kind, QueryPlanNode::Kind::kAggregate);
  ASSERT_EQ(agg->system, "hive");
  const QueryPlanNode& join = plan.nodes[static_cast<size_t>(agg->children[0])];
  ASSERT_EQ(join.kind, QueryPlanNode::Kind::kJoin);
  ASSERT_EQ(join.system, "hive");

  const int64_t before = hive_->queries_executed();
  const double elapsed = sphere_.ExecuteBest(plan).value();
  EXPECT_EQ(hive_->queries_executed(), before + 2);
  ASSERT_EQ(recorder_->observed().size(), 2u);
  EXPECT_EQ(elapsed, recorder_->observed()[0] + recorder_->observed()[1]);
}

TEST_F(IntelliSphereTest, ExecuteBestOnTeradataRunsNoRemoteQuery) {
  auto a = rel::SyntheticTableDef(20000, 40).value();
  a.location = kTeradataSystemName;
  a.name = "local_a";
  auto b = rel::SyntheticTableDef(10000, 40).value();
  b.location = kTeradataSystemName;
  b.name = "local_b";
  ASSERT_TRUE(sphere_.RegisterTable(a).ok());
  ASSERT_TRUE(sphere_.RegisterTable(b).ok());
  QuerySpec spec = JoinSpec("local_a", "local_b", 1.0);
  spec.aggregate = QuerySpec::Aggregate{0, "a10", 1};
  auto plan = sphere_.PlanQuery(spec).value();
  const QueryPlanNode* agg = plan.root().value();
  ASSERT_EQ(agg->system, kTeradataSystemName);
  const QueryPlanNode& join = plan.nodes[static_cast<size_t>(agg->children[0])];
  ASSERT_EQ(join.system, kTeradataSystemName);

  const int64_t before = hive_->queries_executed();
  const double elapsed = sphere_.ExecuteBest(plan).value();
  EXPECT_EQ(hive_->queries_executed(), before);
  EXPECT_TRUE(recorder_->observed().empty());
  // Master-engine operators contribute their analytic estimates.
  const eng::LocalCostModel& local = sphere_.local_model();
  EXPECT_EQ(elapsed, local.EstimateSeconds(join.op).value() +
                         local.EstimateSeconds(agg->op).value());
}

TEST_F(IntelliSphereTest, ExecuteBestOnEmptyPlanIsFailedPrecondition) {
  const int64_t before = hive_->queries_executed();
  auto elapsed = sphere_.ExecuteBest(QueryPlan{});
  ASSERT_FALSE(elapsed.ok());
  EXPECT_EQ(elapsed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(hive_->queries_executed(), before);
}

TEST_F(IntelliSphereTest, RejectsDuplicateAndReservedRegistrations) {
  auto another = remote::HiveEngine::CreateDefault("hive", 32);
  auto* raw = another.get();
  EXPECT_EQ(sphere_
                .RegisterRemoteSystem(std::move(another), ProfileFor(raw),
                                      ConnectorParams{})
                .code(),
            StatusCode::kAlreadyExists);
  auto reserved = remote::HiveEngine::CreateDefault(kTeradataSystemName, 33);
  auto* raw2 = reserved.get();
  EXPECT_FALSE(sphere_
                   .RegisterRemoteSystem(std::move(reserved),
                                         ProfileFor(raw2), ConnectorParams{})
                   .ok());
}

TEST(IntelliSphereMultiSystemTest, JoinAcrossTwoRemotes) {
  // The paper's example: R in Hive, S in another system; candidates are
  // Hive, the other system, and Teradata.
  IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 41);
  auto* hive_raw = hive.get();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(std::move(hive), ProfileFor(hive_raw),
                                        ConnectorParams{})
                  .ok());
  auto spark = remote::SparkEngine::CreateDefault("spark", 42);
  auto* spark_raw = spark.get();
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(
                 spark_raw,
                 InfoFor(*spark_raw,
                         spark_raw->options().broadcast_threshold_factor),
                 copts)
                 .value();
  ASSERT_TRUE(
      sphere
          .RegisterRemoteSystem(
              std::move(spark),
              core::CostingProfile::SubOpOnly(
                  core::SubOpCostEstimator::ForHive(std::move(run.catalog))
                      .value()),
              ConnectorParams{})
          .ok());

  auto r = rel::SyntheticTableDef(8000000, 250).value();
  r.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(r).ok());
  auto s = rel::SyntheticTableDef(2000000, 100).value();
  s.location = "spark";
  ASSERT_TRUE(sphere.RegisterTable(s).ok());

  auto plan =
      sphere.PlanQuery(JoinSpec("T8000000_250", "T2000000_100", 0.5)).value();
  EXPECT_EQ(plan.candidates.size(), 3u);
  std::set<std::string> hosts;
  for (const auto& c : plan.candidates) hosts.insert(RootOf(plan, c).system);
  EXPECT_TRUE(hosts.count("hive"));
  EXPECT_TRUE(hosts.count("spark"));
  EXPECT_TRUE(hosts.count(kTeradataSystemName));
}

TEST_F(IntelliSphereTest, ClockOnlyPlannerContextsRecordGlobalCounters) {
  // Planner calls with a clock-only context (AtTime / default) carry a null
  // registry, which resolves to Global() — such callers must keep feeding
  // the ambient plan.* counters.
  Counter* costed =
      MetricsRegistry::Global().GetCounter("plan.candidates_costed");
  const int64_t before = costed->value();
  const core::EstimateContext ctx = core::EstimateContext::AtTime(0.0);
  QuerySpec scan;
  scan.relations = {{"T8000000_250", 0.5, 32}};
  QuerySpec join_agg = JoinSpec("T8000000_250", "T100000_100", 1.0);
  join_agg.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  join_agg.result_to_master = true;
  int64_t expected = 0;
  for (const QuerySpec& spec :
       {JoinSpec("T8000000_250", "T100000_100", 1.0),
        AggSpec("T8000000_250", "a100", 1), scan, join_agg}) {
    auto plan = sphere_.PlanQuery(spec, ctx);
    ASSERT_TRUE(plan.ok());
    expected += plan.value().candidates_costed;
  }
  // The search bumps the counter by exactly each plan's own tally.
  EXPECT_EQ(costed->value() - before, expected);
}

TEST_F(IntelliSphereTest, CountsReconcileAcrossAdmissionServingAndCache) {
  // Planning under a tight admission ladder: every layer counts each
  // request once, so the controller's tallies, its spans, the serving
  // batches' spans and the cache's stats must add up.
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&sphere_.cost_estimator(), sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 8;
  aopts.degrade_fraction = 0.5;
  aopts.service_seconds = 1.0;
  serving::AdmissionController admission(&service, aopts);
  ASSERT_TRUE(sphere_.AttachEstimationService(&service).ok());
  ASSERT_TRUE(sphere_.AttachAdmissionController(&admission).ok());

  // A second Hive table, so a level's remote batch carries several
  // requests and a per-batch count would differ from a per-request one.
  auto mid = rel::SyntheticTableDef(4000000, 100).value();
  mid.location = "hive";
  ASSERT_TRUE(sphere_.RegisterTable(mid).ok());

  const serving::AdmissionStats admission_before = admission.Stats();
  const serving::CacheStats cache_before = service.cache_stats();
  CollectingTraceSink sink;
  QuerySpec agg_join = JoinSpec("T8000000_250", "T4000000_100", 0.5);
  agg_join.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  QuerySpec chain = JoinSpec("T8000000_250", "T4000000_100", 1.0);
  chain.relations.push_back({"T100000_100", 1.0, 32});
  chain.joins.push_back({1, 2, "a1", 1.0});
  const std::vector<QuerySpec> specs = {
      JoinSpec("T8000000_250", "T4000000_100", 1.0), chain,
      AggSpec("T8000000_250", "a100", 1), agg_join,
      JoinSpec("T8000000_250", "T100000_100", 0.25)};
  int planned = 0;
  int failed = 0;
  for (int i = 0; i < 24; ++i) {
    core::EstimateContext ctx;
    ctx.now = 0.5 * i;
    ctx.trace = &sink;
    if (sphere_.PlanQuery(specs[i % specs.size()], ctx).ok()) {
      ++planned;
    } else {
      ++failed;
    }
  }
  EXPECT_GT(planned, 0);
  EXPECT_GT(failed, 0);  // shed batches fail their plan

  std::map<std::string, int64_t> decided;  // request count per outcome
  int64_t largest_decision = 0;
  int64_t batched = 0;
  int64_t span_hits = 0;
  int64_t span_misses = 0;
  for (const TraceSpanRecord& span : sink.spans()) {
    if (span.name == "admission") {
      const int64_t size = span.FindAttribute("size")->int_value;
      decided[span.FindAttribute("outcome")->string_value] += size;
      largest_decision = std::max(largest_decision, size);
    } else if (span.name == "serving.batch") {
      batched += span.FindAttribute("size")->int_value;
      span_hits += span.FindAttribute("hits")->int_value;
      span_misses += span.FindAttribute("misses")->int_value;
      // Planner batches cost each distinct operator once.
      EXPECT_EQ(span.FindAttribute("deduped")->int_value, 0);
    }
  }
  const serving::AdmissionStats admission_after = admission.Stats();
  const int64_t admitted = admission_after.admitted - admission_before.admitted;
  const int64_t degraded = admission_after.degraded - admission_before.degraded;
  const int64_t shed = admission_after.shed_load - admission_before.shed_load;
  EXPECT_GT(admitted, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(shed, 0);
  EXPECT_GT(largest_decision, 1);
  EXPECT_EQ(decided["serve"], admitted);
  EXPECT_EQ(decided["serve_degraded"], degraded);
  EXPECT_EQ(decided["shed_load"], shed);
  EXPECT_EQ(decided["shed_deadline"],
            admission_after.shed_deadline - admission_before.shed_deadline);
  EXPECT_EQ(batched, admitted + degraded);

  const serving::CacheStats cache_after = service.cache_stats();
  EXPECT_EQ(cache_after.hits - cache_before.hits, span_hits);
  EXPECT_EQ(cache_after.misses - cache_before.misses, span_misses);
  EXPECT_GT(span_hits, 0);
  EXPECT_GT(span_misses, 0);

  // The service and the controller must not outlive their attachment.
  ASSERT_TRUE(sphere_.AttachAdmissionController(nullptr).ok());
  ASSERT_TRUE(sphere_.AttachEstimationService(nullptr).ok());
}

}  // namespace
}  // namespace intellisphere::fed
