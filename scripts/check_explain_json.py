#!/usr/bin/env python3
"""Validates an EXPLAIN JSON artifact against its expected schema.

Used by scripts/check.sh after running the EXPLAIN examples: the JSON
renderings must stay machine-readable, so this checks structure and types,
not specific cost numbers. The artifact kind is detected from the top-level
keys — a "serving" object is an EstimationService::ExplainJson() document
(examples/explain_serving), a "query_plan" object is an
ExplainQueryPlan() document (examples/explain_query_plan), a "lifecycle"
object is a LifecycleManager::ExplainJson() document
(examples/explain_lifecycle), and an "admission" object is an
AdmissionController::ExplainJson() document (examples/explain_admission).
Any other document fails.

Usage: check_explain_json.py <path-to-EXPLAIN_*.json>
"""

import json
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


SERVING_CACHE_FIELDS = {
    "shards": int,
    "capacity": int,
    "ttl_seconds": (int, float),
    "quantize_bits": int,
    "entries": int,
    "hits": int,
    "misses": int,
    "evictions": int,
    "stale_epoch": int,
    "stale_served": int,
    "hit_rate": (int, float),
}


def check_serving(doc):
    serving = doc["serving"]
    if not isinstance(serving, dict):
        fail("serving: must be an object")
    check_type(serving, "model_epoch", int, "serving")
    check_type(serving, "jobs", int, "serving")
    check_type(serving, "cache", dict, "serving")
    cache = serving["cache"]
    for field, expected in SERVING_CACHE_FIELDS.items():
        check_type(cache, field, expected, "serving.cache")
    for field in ("shards", "capacity", "entries", "hits", "misses",
                  "evictions", "stale_epoch", "stale_served"):
        if cache[field] < 0:
            fail(f"serving.cache.{field} must be >= 0")
    check_type(serving, "health", dict, "serving")
    health = serving["health"]
    for field in ("tracked", "open"):
        check_type(health, field, int, "serving.health")
        if health[field] < 0:
            fail(f"serving.health.{field} must be >= 0")
    if health["open"] > health["tracked"]:
        fail("serving.health.open exceeds tracked breaker count")
    if not 0.0 <= cache["hit_rate"] <= 1.0:
        fail("serving.cache.hit_rate must be in [0, 1]")
    if cache["entries"] > cache["capacity"]:
        fail("serving.cache.entries exceeds capacity")
    print(f"check_explain_json: OK (serving: epoch {serving['model_epoch']}, "
          f"{cache['entries']} entries, hit_rate {cache['hit_rate']})")


LIFECYCLE_INGEST_FIELDS = {
    "capacity": int,
    "size": int,
    "pushed": int,
    "dropped": int,
    "drained": int,
}

LIFECYCLE_DRIFT_FIELDS = {
    "window": int,
    "threshold": (int, float),
    "min_samples": int,
    "out_of_range_fraction": (int, float),
    "detected": int,
}

LIFECYCLE_RETRAIN_FIELDS = {
    "window": int,
    "started": int,
    "completed": int,
    "failed": int,
    "deferred": int,
    "in_flight": int,
}

LIFECYCLE_SHADOW_FIELDS = {
    "fraction": (int, float),
    "min_improvement": (int, float),
    "accepted": int,
    "rejected": int,
}

LIFECYCLE_DETECTOR_FIELDS = {
    "system": str,
    "operator": str,
    "window_size": int,
    "accepted": int,
    "rejected_nonfinite": int,
    "mean_relative_error": (int, float),
    "out_of_range_fraction": (int, float),
    "drifted": bool,
    "reason": str,
}


def check_lifecycle(doc):
    lc = doc["lifecycle"]
    if not isinstance(lc, dict):
        fail("lifecycle: must be an object")
    check_type(lc, "epoch", int, "lifecycle")
    if lc["epoch"] < 0:
        fail("lifecycle.epoch must be >= 0")
    for section, fields in (("ingest", LIFECYCLE_INGEST_FIELDS),
                            ("drift", LIFECYCLE_DRIFT_FIELDS),
                            ("retrain", LIFECYCLE_RETRAIN_FIELDS),
                            ("shadow", LIFECYCLE_SHADOW_FIELDS)):
        check_type(lc, section, dict, "lifecycle")
        obj = lc[section]
        for field, expected in fields.items():
            check_type(obj, field, expected, f"lifecycle.{section}")
            value = obj[field]
            if isinstance(value, (int, float)) and value < 0:
                fail(f"lifecycle.{section}.{field} must be >= 0")
    ingest = lc["ingest"]
    if ingest["dropped"] > ingest["pushed"]:
        fail("lifecycle.ingest.dropped exceeds pushed")
    if ingest["size"] > ingest["capacity"]:
        fail("lifecycle.ingest.size exceeds capacity")
    if lc["drift"]["out_of_range_fraction"] > 1.0:
        fail("lifecycle.drift.out_of_range_fraction must be <= 1")
    if not 0.0 < lc["shadow"]["fraction"] < 1.0:
        fail("lifecycle.shadow.fraction must be in (0, 1)")
    retrain = lc["retrain"]
    if retrain["completed"] + retrain["in_flight"] > retrain["started"]:
        fail("lifecycle.retrain completed + in_flight exceeds started")
    check_type(lc, "swaps", int, "lifecycle")
    if lc["swaps"] > lc["shadow"]["accepted"]:
        fail("lifecycle.swaps exceeds shadow.accepted")
    check_type(lc, "detectors", list, "lifecycle")
    for i, det in enumerate(lc["detectors"]):
        where = f"lifecycle.detectors[{i}]"
        if not isinstance(det, dict):
            fail(f"{where}: must be an object")
        for field, expected in LIFECYCLE_DETECTOR_FIELDS.items():
            check_type(det, field, expected, where)
        if not 0.0 <= det["out_of_range_fraction"] <= 1.0:
            fail(f"{where}: out_of_range_fraction must be in [0, 1]")
        if det["window_size"] < 0 or det["accepted"] < det["window_size"]:
            fail(f"{where}: accepted must cover the current window")
    print(f"check_explain_json: OK (lifecycle: epoch {lc['epoch']}, "
          f"{len(lc['detectors'])} detectors, swaps {lc['swaps']})")


ADMISSION_FIELDS = {
    "enabled": bool,
    "tenant_rate": (int, float),
    "tenant_burst": (int, float),
    "max_queue": int,
    "degrade_fraction": (int, float),
    "background_fraction": (int, float),
    "service_seconds": (int, float),
    "queue_clears_at": (int, float),
    "tenants": int,
    "counters": dict,
}

ADMISSION_COUNTER_FIELDS = (
    "admitted",
    "degraded",
    "shed_load",
    "shed_deadline",
    "tenant_throttled",
    "background_yield",
)


def check_admission(doc):
    adm = doc["admission"]
    if not isinstance(adm, dict):
        fail("admission: must be an object")
    for field, expected in ADMISSION_FIELDS.items():
        check_type(adm, field, expected, "admission")
    counters = adm["counters"]
    for field in ADMISSION_COUNTER_FIELDS:
        check_type(counters, field, int, "admission.counters")
        if counters[field] < 0:
            fail(f"admission.counters.{field} must be >= 0")
    if adm["max_queue"] < 1:
        fail("admission.max_queue must be >= 1")
    if adm["tenants"] < 0:
        fail("admission.tenants must be >= 0")
    for field in ("tenant_rate", "tenant_burst", "service_seconds"):
        if adm[field] < 0:
            fail(f"admission.{field} must be >= 0")
    if not 0.0 < adm["degrade_fraction"] <= 1.0:
        fail("admission.degrade_fraction must be in (0, 1]")
    if not 0.0 < adm["background_fraction"] <= 1.0:
        fail("admission.background_fraction must be in (0, 1]")
    # degraded answers are admitted answers; throttles are a subset of them
    if counters["tenant_throttled"] > counters["admitted"] + counters[
            "degraded"] + counters["shed_load"] + counters["shed_deadline"]:
        fail("admission.counters.tenant_throttled exceeds total decisions")
    print(f"check_explain_json: OK (admission: "
          f"admitted {counters['admitted']}, "
          f"degraded {counters['degraded']}, shed "
          f"{counters['shed_load'] + counters['shed_deadline']})")


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
    if "serving" in doc:
        check_serving(doc)
        return
    if "query_plan" in doc:
        check_query_plan(doc)
        return
    if "lifecycle" in doc:
        check_lifecycle(doc)
        return
    if "admission" in doc:
        check_admission(doc)
        return
    fail("unrecognised document: expected one top-level key of "
         "'serving', 'query_plan', 'lifecycle' or 'admission', got "
         f"{sorted(doc)}")


if __name__ == "__main__":
    main()
