// Tests for EXPLAIN-style plan rendering (federation/explain.h): golden
// tree + JSON renderings of hand-built deterministic QueryPlans, the
// zero-candidate best()/root() regression, and an integration pass over
// plans from IntelliSphere::PlanQuery.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sub_op.h"
#include "federation/explain.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "util/json.h"

namespace intellisphere::fed {
namespace {

// --- Result-returning best()/root(): the zero-candidate regression -------

TEST(QueryPlanTest, BestOnEmptyPlanIsFailedPrecondition) {
  QueryPlan plan;  // default-constructed: no candidates
  auto best = plan.best();
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(best.status().message().find("no candidates"), std::string::npos);
}

TEST(QueryPlanTest, RootOnEmptyPlanIsFailedPrecondition) {
  QueryPlan plan;
  auto root = plan.root();
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.status().code(), StatusCode::kFailedPrecondition);
}

// --- Golden rendering ------------------------------------------------------

QueryPlanNode TableNode(const std::string& label, const std::string& system,
                        uint64_t mask, int64_t rows, int64_t row_bytes) {
  QueryPlanNode n;
  n.kind = QueryPlanNode::Kind::kTable;
  n.system = system;
  n.label = label;
  n.relation_mask = mask;
  n.output_rows = rows;
  n.output_row_bytes = row_bytes;
  return n;
}

QueryPlanNode OperatorNode(QueryPlanNode::Kind kind, const std::string& system,
                           double transfer, double op_seconds,
                           double subtree, const std::string& approach,
                           const std::string& algorithm,
                           std::vector<int> children) {
  QueryPlanNode n;
  n.kind = kind;
  n.system = system;
  n.relation_mask = 3;
  n.output_rows = 50000;
  n.output_row_bytes = 64;
  n.transfer_seconds = transfer;
  n.operator_seconds = op_seconds;
  n.subtree_seconds = subtree;
  n.approach = approach;
  n.algorithm = algorithm;
  n.children = std::move(children);
  return n;
}

// A provenance plan for joining two Teradata tables: shipping both to hive
// and running a sub-op-costed shuffle join there wins over joining them in
// place; presto cannot run the join at all.
QueryPlan GoldenPlan() {
  QueryPlan plan;
  plan.nodes.push_back(TableNode("R", "teradata", 1, 100000, 100));
  plan.nodes.push_back(TableNode("S", "teradata", 2, 20000, 40));
  QueryPlanNode hive =
      OperatorNode(QueryPlanNode::Kind::kJoin, "hive", 1.5, 2.5, 4.0,
                   "sub_op", "shuffle_join", {0, 1});
  hive.algorithm_candidates = {{"shuffle_join", 2.5}, {"broadcast_join", 3.0}};
  hive.eliminated_algorithms = {
      {"skew_join", "hot-key fraction below the skew threshold"}};
  plan.nodes.push_back(hive);
  plan.nodes.push_back(OperatorNode(QueryPlanNode::Kind::kJoin, "teradata",
                                    0.0, 10.25, 10.25, "local", "", {0, 1}));
  plan.candidates = {{2, 0.0, 4.0}, {3, 0.0, 10.25}};
  PrunedSubplan presto;
  presto.kind = PrunedSubplan::Kind::kEliminated;
  presto.stage = QueryPlanNode::Kind::kJoin;
  presto.relation_mask = 3;
  presto.system = "presto";
  presto.reason = "engine cannot run joins";
  presto.description = "join({R}@teradata, {S}@teradata) at presto";
  plan.pruned.push_back(presto);
  plan.candidates_costed = 3;
  plan.dp_entries = 4;
  return plan;
}

TEST(ExplainQueryPlanTest, GoldenTree) {
  PlacementExplanation ex = ExplainQueryPlan(GoldenPlan());
  const std::string expected =
      "query plan: 2 candidates, 1 subplans dropped (costed=3 "
      "dp_entries=4)\n"
      "|- chosen: total=4s (result transfer=0s)\n"
      "|  `- join@hive (relations 0,1): subtree=4s (transfer=1.5s "
      "operator=2.5s) rows=50000 approach=sub_op algorithm=shuffle_join\n"
      "|     |- candidate shuffle_join: 2.5s\n"
      "|     |- candidate broadcast_join: 3s\n"
      "|     |- eliminated skew_join: hot-key fraction below the skew "
      "threshold\n"
      "|     |- table R@teradata: rows=100000 row_bytes=100\n"
      "|     `- table S@teradata: rows=20000 row_bytes=40\n"
      "|- candidate 2: root@teradata total=10.25s\n"
      "|  `- join@teradata (relations 0,1): subtree=10.25s (transfer=0s "
      "operator=10.25s) rows=50000 approach=local\n"
      "|     |- table R@teradata: rows=100000 row_bytes=100\n"
      "|     `- table S@teradata: rows=20000 row_bytes=40\n"
      "`- eliminated join({R}@teradata, {S}@teradata) at presto: engine "
      "cannot run joins\n";
  EXPECT_EQ(ex.tree, expected);
}

TEST(ExplainQueryPlanTest, GoldenJson) {
  PlacementExplanation ex = ExplainQueryPlan(GoldenPlan());
  const std::string r_table = R"({
          "kind": "table",
          "system": "teradata",
          "label": "R",
          "relation_mask": 1,
          "output_rows": 100000,
          "output_row_bytes": 100,
          "transfer_seconds": 0,
          "operator_seconds": 0,
          "subtree_seconds": 0,
          "approach": "",
          "algorithm": "",
          "used_remedy": false,
          "remedy_alpha": 1,
          "fell_back_reason": "",
          "algorithm_candidates": [],
          "eliminated_algorithms": [],
          "children": []
        })";
  const std::string s_table = R"({
          "kind": "table",
          "system": "teradata",
          "label": "S",
          "relation_mask": 2,
          "output_rows": 20000,
          "output_row_bytes": 40,
          "transfer_seconds": 0,
          "operator_seconds": 0,
          "subtree_seconds": 0,
          "approach": "",
          "algorithm": "",
          "used_remedy": false,
          "remedy_alpha": 1,
          "fell_back_reason": "",
          "algorithm_candidates": [],
          "eliminated_algorithms": [],
          "children": []
        })";
  const std::string hive_tree = R"({
      "kind": "join",
      "system": "hive",
      "label": "",
      "relation_mask": 3,
      "output_rows": 50000,
      "output_row_bytes": 64,
      "transfer_seconds": 1.5,
      "operator_seconds": 2.5,
      "subtree_seconds": 4,
      "approach": "sub_op",
      "algorithm": "shuffle_join",
      "used_remedy": false,
      "remedy_alpha": 1,
      "fell_back_reason": "",
      "algorithm_candidates": [
        {"algorithm": "shuffle_join", "seconds": 2.5},
        {"algorithm": "broadcast_join", "seconds": 3}
      ],
      "eliminated_algorithms": [
        {"algorithm": "skew_join", "reason": "hot-key fraction below the skew threshold"}
      ],
      "children": [
        )" + r_table + R"(,
        )" + s_table + R"(
      ]
    })";
  // A candidate's tree sits four spaces deeper than the top-level tree.
  auto indented = [](const std::string& text) {
    std::string out;
    for (char c : text) {
      out += c;
      if (c == '\n') out += "    ";
    }
    return out;
  };
  const std::string expected = R"({
  "query_plan": {
    "candidates_costed": 3,
    "dp_entries": 4,
    "best_total_seconds": 4,
    "tree": )" + hive_tree + R"(,
    "candidates": [
      {
        "rank": 1,
        "system": "hive",
        "result_transfer_seconds": 0,
        "total_seconds": 4,
        "tree": )" + indented(hive_tree) + R"(
      },
      {
        "rank": 2,
        "system": "teradata",
        "result_transfer_seconds": 0,
        "total_seconds": 10.25,
        "tree": {
          "kind": "join",
          "system": "teradata",
          "label": "",
          "relation_mask": 3,
          "output_rows": 50000,
          "output_row_bytes": 64,
          "transfer_seconds": 0,
          "operator_seconds": 10.25,
          "subtree_seconds": 10.25,
          "approach": "local",
          "algorithm": "",
          "used_remedy": false,
          "remedy_alpha": 1,
          "fell_back_reason": "",
          "algorithm_candidates": [],
          "eliminated_algorithms": [],
          "children": [
            )" + indented(r_table) + R"(,
            )" + indented(s_table) + R"(
          ]
        }
      }
    ],
    "pruned": [
      {"kind": "eliminated", "stage": "join", "relation_mask": 3, "system": "presto", "via_system": "", "subtree_seconds": 0, "reason": "engine cannot run joins", "description": "join({R}@teradata, {S}@teradata) at presto"}
    ]
  }
}
)";
  EXPECT_EQ(ex.json, expected);
}

TEST(ExplainQueryPlanTest, GoldenTreeForOneCandidate) {
  // A cost-only join-then-aggregate plan: both stages on hive, the final
  // answer relayed back to the master.
  QueryPlan plan;
  plan.nodes.push_back(TableNode("R", "hive", 1, 8000000, 250));
  plan.nodes.push_back(TableNode("S", "spark", 2, 2000000, 100));
  plan.nodes.push_back(OperatorNode(QueryPlanNode::Kind::kJoin, "hive", 1.0,
                                    2.0, 3.0, "sub_op", "shuffle_join",
                                    {0, 1}));
  QueryPlanNode agg =
      OperatorNode(QueryPlanNode::Kind::kAggregate, "hive", 0.0, 0.5, 3.5,
                   "sub_op", "hash_aggregation", {2});
  agg.output_rows = 1000;
  plan.nodes.push_back(agg);
  plan.candidates = {{3, 0.25, 3.75}};
  plan.candidates_costed = 2;
  plan.dp_entries = 3;

  PlacementExplanation ex = ExplainQueryPlan(plan);
  const std::string expected =
      "query plan: 1 candidates, 0 subplans dropped (costed=2 "
      "dp_entries=3)\n"
      "`- chosen: total=3.75s (result transfer=0.25s)\n"
      "   `- aggregate@hive (relations 0,1): subtree=3.5s (transfer=0s "
      "operator=0.5s) rows=1000 approach=sub_op algorithm=hash_aggregation\n"
      "      `- join@hive (relations 0,1): subtree=3s (transfer=1s "
      "operator=2s) rows=50000 approach=sub_op algorithm=shuffle_join\n"
      "         |- table R@hive: rows=8000000 row_bytes=250\n"
      "         `- table S@spark: rows=2000000 row_bytes=100\n";
  EXPECT_EQ(ex.tree, expected);
  EXPECT_NE(ex.json.find("\"result_transfer_seconds\": 0.25"),
            std::string::npos);
  EXPECT_NE(ex.json.find("\"total_seconds\": 3.75"), std::string::npos);
}

TEST(ExplainQueryPlanTest, EmptyPlanRendersNullTree) {
  PlacementExplanation ex = ExplainQueryPlan(QueryPlan{});
  EXPECT_EQ(ex.tree,
            "query plan: 0 candidates, 0 subplans dropped (costed=0 "
            "dp_entries=0)\n");
  EXPECT_EQ(ex.json, R"({
  "query_plan": {
    "candidates_costed": 0,
    "dp_entries": 0,
    "best_total_seconds": null,
    "tree": null,
    "candidates": [],
    "pruned": []
  }
}
)");
}

TEST(QueryPlanTest, BestReturnsCheapestCandidate) {
  QueryPlan plan = GoldenPlan();
  auto best = plan.best();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value().root, 2);
  EXPECT_EQ(plan.root().value()->system, "hive");
}

// --- Integration: explaining a real planner's output -----------------------

core::OpenboxInfo InfoFor(const remote::HiveEngine& engine) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = engine.cluster().config().dfs_block_bytes;
  info.total_slots = engine.cluster().config().TotalSlots();
  info.num_worker_nodes = engine.cluster().config().num_worker_nodes;
  info.task_memory_bytes = engine.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      engine.options().broadcast_threshold_factor * info.task_memory_bytes;
  return info;
}

core::CostingProfile ProfileFor(remote::HiveEngine* hive) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(hive, InfoFor(*hive), copts).value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

core::EstimateContext ProvenanceContext() {
  core::EstimateContext ctx;
  ctx.detail = core::EstimateDetail::kProvenance;
  return ctx;
}

TEST(ExplainIntegrationTest, PlannedJoinExplainsWithProvenance) {
  IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 61);
  auto* hive_raw = hive.get();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(std::move(hive), ProfileFor(hive_raw),
                                        ConnectorParams{})
                  .ok());
  auto big = rel::SyntheticTableDef(8000000, 250).value();
  big.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(big).ok());
  auto small = rel::SyntheticTableDef(100000, 100).value();
  small.location = kTeradataSystemName;
  ASSERT_TRUE(sphere.RegisterTable(small).ok());

  QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, 32}, {"T100000_100", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 1.0}};
  QueryPlan plan = sphere.PlanQuery(spec, ProvenanceContext()).value();
  PlacementExplanation ex = ExplainQueryPlan(plan);

  // The tree names both candidate hosts and marks the winner.
  ASSERT_EQ(plan.candidates.size(), 2u);
  EXPECT_NE(ex.tree.find("chosen: total="), std::string::npos);
  EXPECT_NE(ex.tree.find("join@hive"), std::string::npos);
  EXPECT_NE(ex.tree.find("join@teradata"), std::string::npos);
  // The remote placement carries sub-op provenance: every costed host's
  // `candidate` line appears, and so do its algorithm candidates.
  EXPECT_NE(ex.tree.find("approach=sub_op"), std::string::npos);
  bool saw_algorithm_candidate = false;
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const QueryPlanCandidate& c = plan.candidates[i];
    const QueryPlanNode& root = plan.nodes[static_cast<size_t>(c.root)];
    if (i > 0) {
      EXPECT_NE(ex.tree.find("candidate " + std::to_string(i + 1) +
                             ": root@" + root.system + " total="),
                std::string::npos)
          << root.system;
    }
    for (const auto& a : root.algorithm_candidates) {
      saw_algorithm_candidate = true;
      EXPECT_NE(ex.tree.find("candidate " + a.algorithm + ": " +
                             JsonNumberShort(a.seconds) + "s"),
                std::string::npos)
          << root.system << " " << a.algorithm;
    }
  }
  EXPECT_TRUE(saw_algorithm_candidate);
  // JSON agrees on the same facts.
  EXPECT_NE(ex.json.find("\"kind\": \"join\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"system\": \"hive\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"approach\": \"local\""), std::string::npos);

  // Rendering is pure: explaining twice gives identical output.
  PlacementExplanation again = ExplainQueryPlan(plan);
  EXPECT_EQ(ex.tree, again.tree);
  EXPECT_EQ(ex.json, again.json);
}

TEST(ExplainIntegrationTest, JoinThenAggregateExplains) {
  IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 62);
  auto* hive_raw = hive.get();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(std::move(hive), ProfileFor(hive_raw),
                                        ConnectorParams{})
                  .ok());
  auto left = rel::SyntheticTableDef(8000000, 250).value();
  left.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(left).ok());
  auto right = rel::SyntheticTableDef(2000000, 100).value();
  right.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(right).ok());

  QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, 32}, {"T2000000_100", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 0.5}};
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  spec.result_to_master = true;
  QueryPlan plan = sphere.PlanQuery(spec).value();
  PlacementExplanation ex = ExplainQueryPlan(plan);
  EXPECT_NE(ex.tree.find("query plan:"), std::string::npos);
  EXPECT_NE(ex.tree.find("aggregate@"), std::string::npos);
  EXPECT_NE(ex.tree.find("join@"), std::string::npos);
  EXPECT_NE(ex.tree.find("result transfer="), std::string::npos);
  EXPECT_NE(ex.json.find("\"kind\": \"aggregate\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"kind\": \"join\""), std::string::npos);
}

}  // namespace
}  // namespace intellisphere::fed
