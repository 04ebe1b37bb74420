#!/usr/bin/env python3
"""Validates an EXPLAIN JSON artifact against its expected schema.

Used by scripts/check.sh after running the EXPLAIN examples: the JSON
renderings must stay machine-readable, so this checks structure and types,
not specific cost numbers. The artifact kind is detected from the top-level
key:

  * "status" is a status document: the StatsSnapshot() samples of the
    components an example built, rendered by MetricsSnapshot::ToJson
    (examples/explain_serving, explain_admission and explain_lifecycle).
    One flat checker covers every component: each sample is a
    {name, value, unit} entry named once, with a finite value >= 0; counts
    are integers, fractions and ratios lie in [0, 1], bools are 0 or 1; and
    the STATUS_BOUNDS pairs (plus each drift detector's
    window_size <= accepted) hold.
  * "query_plan" is an ExplainQueryPlan() document
    (examples/explain_query_plan).

Any other document fails.

Usage: check_explain_json.py <path-to-EXPLAIN_*.json>
"""

import json
import math
import sys

def fail(msg):
    print(f"check_explain_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_type(obj, field, expected, where):
    if field not in obj:
        fail(f"{where}: missing field '{field}'")
    # bool is an int subclass in Python; don't let a bool satisfy a number.
    value = obj[field]
    if expected is not bool and isinstance(value, bool):
        fail(f"{where}: field '{field}' must not be a bool")
    if not isinstance(value, expected):
        fail(f"{where}: field '{field}' has type {type(value).__name__}")


# The units a status sample may carry.
STATUS_UNITS = {"count", "fraction", "ratio", "bool", "s", "rel", "1/s",
                "tokens"}

# Cross-field rules: each pair (lhs, rhs) requires sum(lhs) <= sum(rhs). A
# document holding any name of a pair must hold all of them, so a renamed
# sample cannot silently switch its rule off.
STATUS_BOUNDS = [
    (["serving.cache.entries"], ["serving.cache.capacity"]),
    (["serving.health.open"], ["serving.health.tracked"]),
    (["lifecycle.ingest.dropped"], ["lifecycle.ingest.pushed"]),
    (["lifecycle.ingest.size"], ["lifecycle.ingest.capacity"]),
    (["lifecycle.retrain.completed", "lifecycle.retrain.in_flight"],
     ["lifecycle.retrain.started"]),
    (["lifecycle.swap.applied"], ["lifecycle.shadow.accepted"]),
    (["serving.admission.tenant_throttled"], ["serving.admission.degraded"]),
    (["serving.admission.background_yield"], ["serving.admission.shed_load"]),
]

# Each drift detector's samples: lifecycle.detector.<system>.<operator>.*.
DETECTOR_PREFIX = "lifecycle.detector."


def check_status(doc):
    samples = doc["status"]
    if not isinstance(samples, list):
        fail("status: must be a list of samples")
    values = {}
    for i, sample in enumerate(samples):
        where = f"status[{i}]"
        if not isinstance(sample, dict) or set(sample) != {
                "name", "value", "unit"}:
            fail(f"{where}: must be an object of name, value and unit")
        check_type(sample, "name", str, where)
        check_type(sample, "value", (int, float), where)
        check_type(sample, "unit", str, where)
        name, value, unit = sample["name"], sample["value"], sample["unit"]
        where = f"status '{name}'"
        if name in values:
            fail(f"{where}: name appears twice")
        if not math.isfinite(value) or value < 0:
            fail(f"{where}: value {value} must be finite and >= 0")
        if unit not in STATUS_UNITS:
            fail(f"{where}: unknown unit '{unit}'")
        if unit == "count" and value != int(value):
            fail(f"{where}: count {value} is not an integer")
        if unit in ("fraction", "ratio") and value > 1:
            fail(f"{where}: {unit} {value} exceeds 1")
        if unit == "bool" and value not in (0, 1):
            fail(f"{where}: bool {value} is neither 0 nor 1")
        values[name] = value

    bounds = list(STATUS_BOUNDS)
    for name in values:
        if name.startswith(DETECTOR_PREFIX) and name.endswith(".window_size"):
            stem = name[:-len("window_size")]
            bounds.append(([name], [stem + "accepted"]))
    for lhs, rhs in bounds:
        rule = f"{' + '.join(lhs)} <= {' + '.join(rhs)}"
        present = [n in values for n in lhs + rhs]
        if any(present) and not all(present):
            fail(f"status: {rule} needs all of its samples")
        if any(present) and (sum(values[n] for n in lhs) >
                             sum(values[n] for n in rhs)):
            fail(f"status: {rule} does not hold")
    print(f"check_explain_json: OK (status: {len(values)} samples)")


QUERY_NODE_FIELDS = {
    "kind": str,
    "system": str,
    "label": str,
    "relation_mask": int,
    "output_rows": int,
    "output_row_bytes": int,
    "transfer_seconds": (int, float),
    "operator_seconds": (int, float),
    "subtree_seconds": (int, float),
    "approach": str,
    "algorithm": str,
    "used_remedy": bool,
    "remedy_alpha": (int, float),
    "fell_back_reason": str,
    "algorithm_candidates": list,
    "eliminated_algorithms": list,
    "children": list,
}

QUERY_NODE_KINDS = {"table", "scan", "join", "aggregate"}

QUERY_CANDIDATE_FIELDS = {
    "rank": int,
    "system": str,
    "result_transfer_seconds": (int, float),
    "total_seconds": (int, float),
    "tree": dict,
}

QUERY_PRUNED_FIELDS = {
    "kind": str,
    "stage": str,
    "relation_mask": int,
    "system": str,
    "via_system": str,
    "subtree_seconds": (int, float),
    "reason": str,
    "description": str,
}

QUERY_PRUNED_KINDS = {"eliminated", "dominated", "pruned"}


def check_query_node(node, where):
    if not isinstance(node, dict):
        fail(f"{where}: must be an object")
    for field, expected in QUERY_NODE_FIELDS.items():
        check_type(node, field, expected, where)
    if node["kind"] not in QUERY_NODE_KINDS:
        fail(f"{where}: unknown node kind '{node['kind']}'")
    if node["relation_mask"] <= 0:
        fail(f"{where}: relation_mask must cover at least one relation")
    for i, cand in enumerate(node["algorithm_candidates"]):
        cwhere = f"{where}.algorithm_candidates[{i}]"
        if not isinstance(cand, dict):
            fail(f"{cwhere}: must be an object")
        check_type(cand, "algorithm", str, cwhere)
        check_type(cand, "seconds", (int, float), cwhere)
    for i, elim in enumerate(node["eliminated_algorithms"]):
        ewhere = f"{where}.eliminated_algorithms[{i}]"
        if not isinstance(elim, dict):
            fail(f"{ewhere}: must be an object")
        check_type(elim, "algorithm", str, ewhere)
        check_type(elim, "reason", str, ewhere)
    for i, child in enumerate(node["children"]):
        check_query_node(child, f"{where}.children[{i}]")


def check_query_plan(doc):
    plan = doc["query_plan"]
    if not isinstance(plan, dict):
        fail("query_plan: must be an object")
    check_type(plan, "candidates_costed", int, "query_plan")
    check_type(plan, "dp_entries", int, "query_plan")
    check_type(plan, "candidates", list, "query_plan")
    check_type(plan, "pruned", list, "query_plan")
    for field in ("candidates_costed", "dp_entries"):
        if plan[field] < 0:
            fail(f"query_plan.{field} must be >= 0")
    if "best_total_seconds" not in plan or "tree" not in plan:
        fail("query_plan: missing best_total_seconds or tree")
    if (plan["best_total_seconds"] is None) != (plan["tree"] is None):
        fail("query_plan: best_total_seconds and tree must be both "
             "null or both present")
    if plan["tree"] is None:
        if plan["candidates"]:
            fail("query_plan: candidates present but tree is null")
    else:
        check_query_node(plan["tree"], "query_plan.tree")
        if not plan["candidates"]:
            fail("query_plan: tree present but candidates empty")

    totals = []
    for i, cand in enumerate(plan["candidates"]):
        where = f"query_plan.candidates[{i}]"
        if not isinstance(cand, dict):
            fail(f"{where}: must be an object")
        for field, expected in QUERY_CANDIDATE_FIELDS.items():
            check_type(cand, field, expected, where)
        if cand["rank"] != i + 1:
            fail(f"{where}: rank {cand['rank']} != {i + 1}")
        check_query_node(cand["tree"], f"{where}.tree")
        if cand["tree"]["system"] != cand["system"]:
            fail(f"{where}: system differs from its tree's root system")
        totals.append(cand["total_seconds"])
    if totals != sorted(totals):
        fail("query_plan.candidates are not sorted cheapest-first")
    if totals and abs(plan["best_total_seconds"] - totals[0]) > 1e-9:
        fail("query_plan.best_total_seconds != candidates[0].total_seconds")

    for i, pruned in enumerate(plan["pruned"]):
        where = f"query_plan.pruned[{i}]"
        if not isinstance(pruned, dict):
            fail(f"{where}: must be an object")
        for field, expected in QUERY_PRUNED_FIELDS.items():
            check_type(pruned, field, expected, where)
        if pruned["kind"] not in QUERY_PRUNED_KINDS:
            fail(f"{where}: unknown pruned kind '{pruned['kind']}'")
        if pruned["stage"] not in QUERY_NODE_KINDS:
            fail(f"{where}: unknown pruned stage '{pruned['stage']}'")

    print(f"check_explain_json: OK (query_plan: "
          f"{len(plan['candidates'])} candidates, "
          f"{len(plan['pruned'])} pruned, "
          f"costed {plan['candidates_costed']})")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_explain_json.py <file>")
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {sys.argv[1]}: {e}")

    if not isinstance(doc, dict):
        fail("top level must be an object")
    if "status" in doc:
        check_status(doc)
        return
    if "query_plan" in doc:
        check_query_plan(doc)
        return
    fail("unrecognised document: expected a top-level 'status' or "
         f"'query_plan' key, got {sorted(doc)}")


if __name__ == "__main__":
    main()
