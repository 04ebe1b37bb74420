#include "federation/explain.h"

#include <cstddef>
#include <vector>

#include "util/json.h"

namespace intellisphere::fed {

namespace {

/// Fixed-precision seconds, shared by both renderings so tree and JSON
/// always agree (and golden tests stay stable).
std::string Sec(double seconds) { return JsonNumberShort(seconds); }

/// One tree line: `prefix` is the accumulated indentation of the parent,
/// `last` picks the branch glyph.
void TreeLine(std::string* out, const std::string& prefix, bool last,
              const std::string& text) {
  *out += prefix + (last ? "`- " : "|- ") + text + "\n";
}

/// `items` as a JSON array, one element per line at `indent` + 2 spaces.
std::string JsonArray(const std::vector<std::string>& items,
                      const std::string& indent) {
  std::string j = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    j += (i > 0 ? ",\n" : "\n") + indent + "  " + items[i];
  }
  if (!items.empty()) j += "\n" + indent;
  return j + "]";
}

const char* NodeKindName(QueryPlanNode::Kind kind) {
  switch (kind) {
    case QueryPlanNode::Kind::kTable: return "table";
    case QueryPlanNode::Kind::kScan: return "scan";
    case QueryPlanNode::Kind::kJoin: return "join";
    case QueryPlanNode::Kind::kAggregate: return "aggregate";
  }
  return "unknown";
}

const char* PrunedKindName(PrunedSubplan::Kind kind) {
  switch (kind) {
    case PrunedSubplan::Kind::kEliminated: return "eliminated";
    case PrunedSubplan::Kind::kDominated: return "dominated";
    case PrunedSubplan::Kind::kPruned: return "pruned";
  }
  return "unknown";
}

/// "relations 0,2,3" — readable form of a relation-subset bitmask.
std::string MaskText(uint64_t mask) {
  std::string text = "relations ";
  bool first = true;
  for (int i = 0; i < 64; ++i) {
    if ((mask >> i) & 1u) {
      if (!first) text += ",";
      text += std::to_string(i);
      first = false;
    }
  }
  if (first) text += "none";
  return text;
}

std::string QueryNodeHeadline(const QueryPlanNode& n) {
  std::string line = std::string(NodeKindName(n.kind));
  if (!n.label.empty()) line += " " + n.label;
  line += "@" + n.system;
  if (n.kind == QueryPlanNode::Kind::kTable) {
    return line + ": rows=" + std::to_string(n.output_rows) +
           " row_bytes=" + std::to_string(n.output_row_bytes);
  }
  line += " (" + MaskText(n.relation_mask) + "): subtree=" +
          Sec(n.subtree_seconds) + "s (transfer=" + Sec(n.transfer_seconds) +
          "s operator=" + Sec(n.operator_seconds) +
          "s) rows=" + std::to_string(n.output_rows) +
          " approach=" + n.approach;
  if (!n.algorithm.empty()) line += " algorithm=" + n.algorithm;
  if (n.used_remedy) line += " remedy_alpha=" + Sec(n.remedy_alpha);
  if (!n.fell_back_reason.empty()) line += " degraded=" + n.fell_back_reason;
  return line;
}

/// Recursively renders the subtree rooted at `idx` under `prefix`: the
/// node's headline, its algorithm candidates and eliminated algorithms,
/// then its children.
void RenderQueryNode(std::string* out, const QueryPlan& plan, int idx,
                     const std::string& prefix, bool last) {
  const QueryPlanNode& n = plan.nodes[static_cast<size_t>(idx)];
  TreeLine(out, prefix, last, QueryNodeHeadline(n));
  const std::string child_prefix = prefix + (last ? "   " : "|  ");
  size_t remaining = n.algorithm_candidates.size() +
                     n.eliminated_algorithms.size() + n.children.size();
  for (const auto& c : n.algorithm_candidates) {
    TreeLine(out, child_prefix, --remaining == 0,
             "candidate " + c.algorithm + ": " + Sec(c.seconds) + "s");
  }
  for (const auto& e : n.eliminated_algorithms) {
    TreeLine(out, child_prefix, --remaining == 0,
             "eliminated " + e.algorithm + ": " + e.reason);
  }
  for (int child : n.children) {
    RenderQueryNode(out, plan, child, child_prefix, --remaining == 0);
  }
}

std::string QueryNodeJson(const QueryPlan& plan, int idx,
                          const std::string& indent) {
  const QueryPlanNode& n = plan.nodes[static_cast<size_t>(idx)];
  std::string j = "{\n";
  j += indent + "  \"kind\": \"" + NodeKindName(n.kind) + "\",\n";
  j += indent + "  \"system\": \"" + JsonEscape(n.system) + "\",\n";
  j += indent + "  \"label\": \"" + JsonEscape(n.label) + "\",\n";
  j += indent +
       "  \"relation_mask\": " + std::to_string(n.relation_mask) + ",\n";
  j += indent + "  \"output_rows\": " + std::to_string(n.output_rows) + ",\n";
  j += indent +
       "  \"output_row_bytes\": " + std::to_string(n.output_row_bytes) +
       ",\n";
  j += indent + "  \"transfer_seconds\": " + Sec(n.transfer_seconds) + ",\n";
  j += indent + "  \"operator_seconds\": " + Sec(n.operator_seconds) + ",\n";
  j += indent + "  \"subtree_seconds\": " + Sec(n.subtree_seconds) + ",\n";
  j += indent + "  \"approach\": \"" + JsonEscape(n.approach) + "\",\n";
  j += indent + "  \"algorithm\": \"" + JsonEscape(n.algorithm) + "\",\n";
  j += indent + "  \"used_remedy\": " + (n.used_remedy ? "true" : "false") +
       ",\n";
  j += indent + "  \"remedy_alpha\": " + Sec(n.remedy_alpha) + ",\n";
  j += indent + "  \"fell_back_reason\": \"" +
       JsonEscape(n.fell_back_reason) + "\",\n";
  std::vector<std::string> items;
  for (const auto& c : n.algorithm_candidates) {
    items.push_back("{\"algorithm\": \"" + JsonEscape(c.algorithm) +
                    "\", \"seconds\": " + Sec(c.seconds) + "}");
  }
  j += indent + "  \"algorithm_candidates\": " +
       JsonArray(items, indent + "  ") + ",\n";
  items.clear();
  for (const auto& e : n.eliminated_algorithms) {
    items.push_back("{\"algorithm\": \"" + JsonEscape(e.algorithm) +
                    "\", \"reason\": \"" + JsonEscape(e.reason) + "\"}");
  }
  j += indent + "  \"eliminated_algorithms\": " +
       JsonArray(items, indent + "  ") + ",\n";
  items.clear();
  for (int child : n.children) {
    items.push_back(QueryNodeJson(plan, child, indent + "    "));
  }
  j += indent + "  \"children\": " + JsonArray(items, indent + "  ") + "\n";
  j += indent + "}";
  return j;
}

}  // namespace

PlacementExplanation ExplainQueryPlan(const QueryPlan& plan) {
  PlacementExplanation ex;

  // --- Tree.
  ex.tree = "query plan: " + std::to_string(plan.candidates.size()) +
            " candidates, " + std::to_string(plan.pruned.size()) +
            " subplans dropped (costed=" +
            std::to_string(plan.candidates_costed) +
            " dp_entries=" + std::to_string(plan.dp_entries) + ")\n";
  // Every candidate's tree, the chosen one first, then everything the
  // search dropped.
  size_t remaining = plan.candidates.size() + plan.pruned.size();
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const QueryPlanCandidate& c = plan.candidates[i];
    const bool last = --remaining == 0;
    TreeLine(&ex.tree, "", last,
             i == 0 ? "chosen: total=" + Sec(c.total_seconds) +
                          "s (result transfer=" +
                          Sec(c.result_transfer_seconds) + "s)"
                    : "candidate " + std::to_string(i + 1) + ": root@" +
                          plan.nodes[static_cast<size_t>(c.root)].system +
                          " total=" + Sec(c.total_seconds) + "s");
    RenderQueryNode(&ex.tree, plan, c.root, last ? "   " : "|  ", true);
  }
  for (const auto& p : plan.pruned) {
    std::string line = std::string(PrunedKindName(p.kind)) + " " +
                       (p.description.empty() ? MaskText(p.relation_mask)
                                              : p.description);
    if (!p.reason.empty()) line += ": " + p.reason;
    TreeLine(&ex.tree, "", --remaining == 0, line);
  }

  // --- JSON.
  ex.json = "{\n  \"query_plan\": {\n";
  ex.json += "    \"candidates_costed\": " +
             std::to_string(plan.candidates_costed) + ",\n";
  ex.json += "    \"dp_entries\": " + std::to_string(plan.dp_entries) + ",\n";
  if (!plan.candidates.empty()) {
    ex.json += "    \"best_total_seconds\": " +
               Sec(plan.candidates.front().total_seconds) + ",\n";
    ex.json += "    \"tree\": " +
               QueryNodeJson(plan, plan.candidates.front().root, "    ") +
               ",\n";
  } else {
    ex.json += "    \"best_total_seconds\": null,\n";
    ex.json += "    \"tree\": null,\n";
  }
  std::vector<std::string> items;
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const QueryPlanCandidate& c = plan.candidates[i];
    const std::string in = "        ";
    items.push_back(
        "{\n" + in + "\"rank\": " + std::to_string(i + 1) + ",\n" + in +
        "\"system\": \"" +
        JsonEscape(plan.nodes[static_cast<size_t>(c.root)].system) + "\",\n" +
        in + "\"result_transfer_seconds\": " +
        Sec(c.result_transfer_seconds) + ",\n" + in +
        "\"total_seconds\": " + Sec(c.total_seconds) + ",\n" + in +
        "\"tree\": " + QueryNodeJson(plan, c.root, in) + "\n      }");
  }
  ex.json += "    \"candidates\": " + JsonArray(items, "    ") + ",\n";
  items.clear();
  for (const PrunedSubplan& p : plan.pruned) {
    items.push_back(
        "{\"kind\": \"" + std::string(PrunedKindName(p.kind)) +
        "\", \"stage\": \"" + NodeKindName(p.stage) +
        "\", \"relation_mask\": " + std::to_string(p.relation_mask) +
        ", \"system\": \"" + JsonEscape(p.system) +
        "\", \"via_system\": \"" + JsonEscape(p.via_system) +
        "\", \"subtree_seconds\": " + Sec(p.subtree_seconds) +
        ", \"reason\": \"" + JsonEscape(p.reason) +
        "\", \"description\": \"" + JsonEscape(p.description) + "\"}");
  }
  ex.json += "    \"pruned\": " + JsonArray(items, "    ") + "\n";
  ex.json += "  }\n";
  ex.json += "}\n";
  return ex;
}

}  // namespace intellisphere::fed
