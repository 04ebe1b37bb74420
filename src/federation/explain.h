// EXPLAIN-style rendering of placement plans: the full cost breakdown the
// optimizer saw — per-candidate transfer vs. operator seconds, the costing
// approach and algorithm behind every number, eliminated algorithm
// candidates with the applicability rule that killed them, and eliminated
// hosts with the reason — as a human-readable tree and as JSON.
//
// Rendering is pure: it reads only the plan structs, so an explanation can
// be produced for any plan after the fact, with no side channels and no
// re-estimation. Output is deterministic for a given plan (fixed number
// formatting), which is what the golden tests pin down. The legacy
// planners always collect full provenance; a QueryPlan carries it only when
// it was searched with a provenance or traced context (a cost-only plan
// renders its trees and candidates but no dropped subplans).

#ifndef INTELLISPHERE_FEDERATION_EXPLAIN_H_
#define INTELLISPHERE_FEDERATION_EXPLAIN_H_

#include <string>

#include "federation/intellisphere.h"

namespace intellisphere::fed {

/// Both renderings of one plan.
struct PlacementExplanation {
  std::string tree;  ///< human-readable tree, ASCII box-drawing
  std::string json;  ///< machine-readable JSON object
};

/// Explains a single-operator placement plan (PlanJoin / PlanAgg /
/// PlanScan result).
PlacementExplanation ExplainPlacement(const PlacementPlan& plan);

/// Explains a two-operator pipeline plan (PlanJoinThenAgg result).
PlacementExplanation ExplainPipeline(const PipelinePlan& plan);

/// Explains a DP search result (PlanQuery / SearchPlan): the chosen plan
/// tree rendered node by node (placement, transfer vs. operator seconds,
/// approach/algorithm provenance per node), every completed alternative's
/// headline, and the subplans the search dropped — eliminated hosts,
/// dominated DP entries, prune_factor victims — with their reasons. Plan
/// with `EstimateContext::detail = kProvenance` (or a trace sink) to get
/// the dropped subplans. The JSON form is one top-level `query_plan` object
/// (schema checked by scripts/check_explain_json.py).
PlacementExplanation ExplainQueryPlan(const QueryPlan& plan);

}  // namespace intellisphere::fed

#endif  // INTELLISPHERE_FEDERATION_EXPLAIN_H_
