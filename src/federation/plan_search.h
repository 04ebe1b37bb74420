// Cross-engine dynamic-programming plan search (DESIGN.md §15): the
// declarative QuerySpec -> QueryPlan planning API behind
// IntelliSphere::PlanQuery.
//
// The enumerator crosses join orders with per-operator placement: the DP
// table is keyed by (relation-subset bitmask, execution site), each entry
// holding the cheapest way to materialize that subset's join result on
// that site. Subsets are combined bottom-up (bushy trees included), and
// every candidate of a DP level is costed through ONE batched-costing
// callback, so the serving layer's dedup/cache and the batched-GEMM path
// absorb the candidate explosion (DESIGN.md §14).
//
// The search state is integer-only: the master and every relation's
// location are interned as site ids in name order, the DP table is one flat
// (subset mask x site id) array, and each costed placement is a small
// record. A batch asks once per distinct (site, operator), however many
// placements share it, and a search asks the transfer hook once per
// (subset, from site, to site). Plan nodes are built only for the trees the
// plan returns, and provenance is collected only when the caller's context
// asks for it.
//
// Cost model parity: on one- and two-relation specs the search reproduces
// the single-operator planners that preceded it bit for bit — same operator
// descriptors, same floating-point accumulation order, same host iteration
// and sort. tests/plan_search_test.cc pins this against hand-rolled
// replicas of those planners' loops.

#ifndef INTELLISPHERE_FEDERATION_PLAN_SEARCH_H_
#define INTELLISPHERE_FEDERATION_PLAN_SEARCH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/estimate_context.h"
#include "core/hybrid.h"
#include "relational/catalog.h"
#include "relational/query.h"
#include "util/properties.h"
#include "util/status.h"

namespace intellisphere::fed {

/// Properties keys for the planner knobs (documented in docs/CONFIG.md).
inline constexpr char kPlannerMaxDpRelationsKey[] = "planner.max_dp_relations";
inline constexpr char kPlannerPruneFactorKey[] = "planner.prune_factor";

/// Byte widths the planners assume for aggregate outputs: a 4-byte group
/// key (the a1 width) plus 8 bytes per SUM() column.
inline constexpr int64_t kGroupKeyBytes = 4;
inline constexpr int64_t kAggregateValueBytes = 8;

/// Sentinel for QuerySpec::Relation::projected_bytes: project the full row.
inline constexpr int64_t kFullRowWidth = -1;

/// Tuning knobs for the DP search.
struct PlannerOptions {
  /// Hard ceiling on the number of relations a spec may join (the DP table
  /// is exponential in it); exceeding it is InvalidArgument, not a silent
  /// fallback. Key: planner.max_dp_relations.
  int max_dp_relations = 12;
  /// Heuristic pruning: once a relation subset is fully enumerated, DP
  /// entries costlier than prune_factor x the subset's cheapest entry are
  /// dropped (recorded as pruned) before they spawn larger joins. 0
  /// disables pruning — the exact search the oracle tests verify. Values
  /// in (0, 1) are InvalidArgument. The final subset is never pruned, so
  /// the returned candidate list is always complete. Key:
  /// planner.prune_factor.
  double prune_factor = 0.0;

  /// Reads planner.*; absent keys keep their defaults, out-of-range values
  /// are InvalidArgument.
  [[nodiscard]] static Result<PlannerOptions> FromProperties(
      const Properties& props);
};

/// A declarative multi-relation query: base relations (with optional
/// filters and projections), equi-join predicates forming a connected join
/// graph, and an optional trailing GROUP BY aggregation.
struct QuerySpec {
  struct Relation {
    /// Catalog table name.
    std::string table;
    /// Fraction of rows surviving this relation's filter predicates. A
    /// value < 1 plans an explicit scan stage for the relation; 1.0 feeds
    /// the raw table to the join (the legacy planners' shape).
    double filter_selectivity = 1.0;
    /// Byte width this relation contributes to join projections (and the
    /// scan output width). kFullRowWidth (-1) = the full row width; values
    /// >= 0 are literal (0 is legal for a join input that projects nothing,
    /// as long as the other side projects something).
    int64_t projected_bytes = kFullRowWidth;
  };
  struct JoinPredicate {
    /// Indices into `relations`.
    int left = 0;
    int right = 1;
    /// Equi-join column; must have (or fall back to) distinct statistics
    /// on both sides.
    std::string column = "a1";
    /// Selectivity of extra non-equi predicates on this edge, in (0, 1].
    double extra_selectivity = 1.0;
  };
  struct Aggregate {
    /// The relation whose statistics resolve `group_column`.
    int relation = 0;
    std::string group_column;
    int num_aggregates = 1;
  };

  std::vector<Relation> relations;
  std::vector<JoinPredicate> joins;
  std::optional<Aggregate> aggregate;
  /// When true, candidate totals include relaying the final result back to
  /// the master engine (the paper's pipeline convention); when false, the
  /// result stays on the system that produced it (the single-operator
  /// planners' convention).
  bool result_to_master = false;

  /// Structural validation: index ranges, selectivity ranges, join-graph
  /// connectivity. Catalog existence is checked by PlanQuery. Always
  /// InvalidArgument on a bad spec — never UB.
  [[nodiscard]] Status Validate() const;
};

/// One node of a chosen (or candidate) plan tree. Nodes live in
/// QueryPlan::nodes (a flat arena; children are indices), so subtrees
/// shared between candidates are stored once.
struct QueryPlanNode {
  enum class Kind { kTable, kScan, kJoin, kAggregate };
  Kind kind = Kind::kTable;
  /// Where this node's output materializes ("teradata" or a remote name).
  std::string system;
  /// Table name for kTable/kScan nodes; empty otherwise.
  std::string label;
  /// Bitmask of the spec relations this subtree covers (bit i = relation
  /// i).
  uint64_t relation_mask = 0;
  int64_t output_rows = 0;
  int64_t output_row_bytes = 0;
  /// QueryGrid cost of staging this node's inputs onto `system`.
  double transfer_seconds = 0.0;
  /// Estimated elapsed time of this node's operator (0 for kTable).
  double operator_seconds = 0.0;
  /// Cumulative cost of the subtree: children + input transfers + operator.
  double subtree_seconds = 0.0;

  /// Costing provenance: the approach that produced operator_seconds
  /// ("local" for the master engine, the profile's approach name
  /// otherwise). Algorithm candidates
  /// and eliminated algorithms (with their reasons) are filled only when
  /// the plan was searched with provenance.
  std::string approach;
  std::string algorithm;
  std::vector<core::AlgorithmEstimate> algorithm_candidates;
  std::vector<core::EliminatedAlgorithm> eliminated_algorithms;
  bool used_remedy = false;
  double remedy_alpha = 1.0;
  std::string fell_back_reason;

  /// The operator descriptor this node was costed for (kTable nodes keep a
  /// default-constructed operator).
  rel::SqlOperator op;
  /// Child node indices into QueryPlan::nodes, left input first.
  std::vector<int> children;
};

/// A DP-table alternative the search dropped, kept for EXPLAIN: a host
/// that could not run an operator, a subplan beaten by a cheaper way to
/// build the same (subset, site) entry, or a prune_factor victim.
struct PrunedSubplan {
  enum class Kind {
    kEliminated,  ///< the engine cannot run the operator (with the reason)
    kDominated,   ///< a cheaper plan reached the same (subset, site)
    kPruned,      ///< dropped by planner.prune_factor
  };
  Kind kind = Kind::kDominated;
  /// The stage that was dropped.
  QueryPlanNode::Kind stage = QueryPlanNode::Kind::kJoin;
  uint64_t relation_mask = 0;
  /// The candidate's execution site.
  std::string system;
  /// For aggregation-stage drops: the site the join result lived on.
  std::string via_system;
  /// The candidate's cumulative cost (0 when eliminated before costing
  /// completed).
  double subtree_seconds = 0.0;
  /// Elimination reason (estimator message) or domination/pruning note.
  std::string reason;
  /// Human-readable candidate label for EXPLAIN.
  std::string description;
};

/// One completed root alternative: a full plan for the whole spec.
struct QueryPlanCandidate {
  /// Root node index into QueryPlan::nodes.
  int root = -1;
  /// Relay of the final answer to the master engine (0 unless the spec
  /// set result_to_master and the root runs remotely).
  double result_transfer_seconds = 0.0;
  /// End-to-end cost: root subtree + result transfer.
  double total_seconds = 0.0;
};

/// The DP search result: the chosen plan tree plus every completed
/// alternative (cheapest first) and, under provenance, the subplans the
/// search dropped.
struct QueryPlan {
  /// The nodes of the candidates' trees and nothing else, children before
  /// parents; every node is reachable from a candidate root.
  std::vector<QueryPlanNode> nodes;
  /// All completed root candidates, sorted cheapest first; candidates[0]
  /// is the chosen plan.
  std::vector<QueryPlanCandidate> candidates;
  /// Eliminated, dominated and pruned subplans in search order, recorded
  /// only when the search context asks for provenance
  /// (EstimateContext::provenance()); empty for a cost-only search.
  std::vector<PrunedSubplan> pruned;
  /// Search statistics: operator placements actually costed, DP entries
  /// surviving in the table.
  int64_t candidates_costed = 0;
  int64_t dp_entries = 0;

  /// The chosen candidate; FailedPrecondition when the plan is empty.
  [[nodiscard]] Result<QueryPlanCandidate> best() const;
  /// The chosen candidate's root node; FailedPrecondition when empty.
  [[nodiscard]] Result<const QueryPlanNode*> root() const;
};

/// One operator-placement costing request the search emits.
struct PlanCostRequest {
  std::string system;
  rel::SqlOperator op;
};

/// Batched costing callback: returns one Result per request, in request
/// order (the EstimationService::EstimateBatch contract). Requests within a
/// batch are distinct per (system, operator): every placement of one
/// operator on one host reads the same result. Per-request
/// kUnsupported/kFailedPrecondition results eliminate every placement that
/// reads it; any other error aborts the search.
using BatchCostFn = std::function<std::vector<Result<core::HybridEstimate>>(
    const std::vector<PlanCostRequest>&, const core::EstimateContext&)>;

/// Data-movement cost callback (QueryGrid::RelaySeconds shape). Never
/// called with from == to. The hook must be a pure function of its
/// arguments: the search asks it once per (relation subset, from site, to
/// site) and reuses that answer wherever the subset's result moves between
/// those sites, in any split or stage; only the relay of an aggregation's
/// result to the master is asked once per root candidate.
using TransferFn = std::function<Result<double>(
    const std::string& from, const std::string& to, int64_t rows,
    int64_t row_bytes)>;

/// Everything the search engine needs, with the environment abstracted so
/// tests can drive it directly.
struct PlanSearchInput {
  const QuerySpec* spec = nullptr;
  /// Resolved table definitions, aligned with spec->relations.
  std::vector<rel::TableDef> tables;
  /// The master engine's system name ("teradata" in the facade).
  std::string master;
  BatchCostFn cost;
  TransferFn transfer;
};

/// Runs the DP join-order x placement search. The context's detail level
/// is passed on to every costing batch: a default (cost-only) context gets
/// cost-only estimates and a plan without `pruned` records, while a
/// provenance or traced context gets estimates with their provenance and
/// every dropped subplan — what ExplainQueryPlan renders. Each returned
/// node copies its estimate's provenance, so nodes whose placements shared
/// a request carry the same provenance. Candidates, totals, the chosen
/// tree and the search statistics do not depend on the detail level as
/// long as the costing hook's seconds do not (the facade's do not). Emits
/// a `plan.query` root span with one `plan.candidate` child per costed or
/// eliminated placement (not per request), and bumps the
/// plan.candidates_costed / plan.placements_eliminated counters.
[[nodiscard]] Result<QueryPlan> SearchPlan(const PlanSearchInput& input,
                                           const PlannerOptions& options,
                                           const core::EstimateContext& ctx);

}  // namespace intellisphere::fed

#endif  // INTELLISPHERE_FEDERATION_PLAN_SEARCH_H_
