// EXPLAIN-style rendering of a QueryPlan: the full cost breakdown the
// optimizer saw, as a human-readable tree and as JSON. Every candidate plan
// tree is rendered node by node — placement, transfer vs. operator seconds,
// the costing approach and algorithm behind every number, each surviving
// algorithm candidate's estimate and each eliminated algorithm with the
// applicability rule that killed it — followed by the subplans the search
// dropped (eliminated hosts, dominated DP entries, prune_factor victims)
// with their reasons.
//
// Rendering is pure: it reads only the plan, so an explanation can be
// produced for any plan after the fact, with no side channels and no
// re-estimation. Output is deterministic for a given plan (fixed number
// formatting), which is what the golden tests pin down. A QueryPlan carries
// provenance only when it was searched with a provenance or traced context;
// a cost-only plan renders its trees and candidates but no algorithm
// candidates, eliminations or dropped subplans.

#ifndef INTELLISPHERE_FEDERATION_EXPLAIN_H_
#define INTELLISPHERE_FEDERATION_EXPLAIN_H_

#include <string>

#include "federation/plan_search.h"

namespace intellisphere::fed {

/// Both renderings of one plan.
struct PlacementExplanation {
  std::string tree;  ///< human-readable tree, ASCII box-drawing
  std::string json;  ///< machine-readable JSON object
};

/// Explains a DP search result (PlanQuery / SearchPlan): the chosen plan
/// tree, then every alternative candidate's tree under its `candidate i`
/// line, then the dropped subplans. Each operator node lists its algorithm
/// candidates and eliminated algorithms before its children. Plan with
/// `EstimateContext::detail = kProvenance` (or a trace sink) to get the
/// provenance. The JSON form is one top-level `query_plan` object whose
/// `tree` is the chosen candidate's and whose `candidates` entries each
/// carry their own `tree` (schema checked by scripts/check_explain_json.py).
PlacementExplanation ExplainQueryPlan(const QueryPlan& plan);

}  // namespace intellisphere::fed

#endif  // INTELLISPHERE_FEDERATION_EXPLAIN_H_
