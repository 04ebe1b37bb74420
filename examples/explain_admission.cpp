// Admission-control walkthrough: put a tenant-aware AdmissionController in
// front of the serving layer, configure it from Properties keys (see
// docs/CONFIG.md), drive a synthetic burst hard enough to exercise all
// three rungs of the ladder (full fidelity -> degraded -> shed), and render
// the service's and the controller's status snapshots — cache state, then
// admission config, deployment-clock queue horizon and counters — as one
// status document (written to EXPLAIN_admission.json).
//
// Run from anywhere; writes EXPLAIN_admission.json to the working
// directory. scripts/check.sh runs this binary and validates the JSON with
// scripts/check_explain_json.py.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid.h"
#include "core/trainer.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "util/properties.h"
#include "util/runtime_metrics.h"

namespace {

intellisphere::core::LogicalOpModel MakeAggModel(
    intellisphere::remote::HiveEngine* hive) {
  intellisphere::rel::AggWorkloadOptions wopts;
  wopts.record_counts = {100000, 400000, 1000000};
  wopts.record_sizes = {100};
  wopts.num_aggregates = {1};
  auto queries = intellisphere::rel::GenerateAggWorkload(wopts).value();
  auto run = intellisphere::core::CollectAggTraining(hive, queries).value();
  intellisphere::core::LogicalOpOptions opts;
  opts.mlp.iterations = 1500;
  opts.tuning_iterations = 300;
  return intellisphere::core::LogicalOpModel::Train(
             intellisphere::rel::OperatorType::kAggregation, run.data,
             intellisphere::core::AggDimensionNames(), opts)
      .value();
}

}  // namespace

int main() {
  using namespace intellisphere;  // NOLINT

  fed::IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 417);
  auto* hive_raw = hive.get();
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive_raw));
  if (!sphere
           .RegisterRemoteSystem(
               std::move(hive),
               core::CostingProfile::LogicalOpOnly(std::move(models)),
               fed::ConnectorParams{})
           .ok()) {
    std::fprintf(stderr, "system registration failed\n");
    return 1;
  }
  auto t = rel::SyntheticTableDef(400000, 100).value();
  t.location = "hive";
  if (!sphere.RegisterTable(t).ok()) {
    std::fprintf(stderr, "table registration failed\n");
    return 1;
  }

  // A cache-less single-job service so the admission ladder — not a warm
  // cache — answers the burst.
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.cache.capacity = 0;
  serving::EstimationService service(&sphere.cost_estimator(), sopts);
  if (!sphere.AttachEstimationService(&service).ok()) {
    std::fprintf(stderr, "attach service failed\n");
    return 1;
  }

  // The admission configuration as an operator would ship it: Properties
  // keys (see docs/CONFIG.md), not code.
  Properties props;
  props.SetDouble(serving::kAdmissionTenantRateKey, 50.0);
  props.SetDouble(serving::kAdmissionTenantBurstKey, 20.0);
  props.SetInt(serving::kAdmissionMaxQueueKey, 8);
  props.SetDouble(serving::kAdmissionDegradeFractionKey, 0.5);
  props.SetDouble(serving::kAdmissionServiceSecondsKey, 0.05);
  auto aopts = serving::AdmissionOptions::FromProperties(props);
  if (!aopts.ok()) {
    std::fprintf(stderr, "options: %s\n", aopts.status().ToString().c_str());
    return 1;
  }
  serving::AdmissionController admission(&service, aopts.value());
  if (!sphere.AttachAdmissionController(&admission).ok()) {
    std::fprintf(stderr, "attach admission failed\n");
    return 1;
  }

  // A burst of planner calls at one instant: the queue fills, later calls
  // degrade past half depth, the tail sheds, and one call arrives with an
  // infeasible deadline.
  fed::QuerySpec agg;
  agg.relations.resize(1);
  agg.relations[0].table = "T400000_100";
  agg.aggregate = fed::QuerySpec::Aggregate{0, "a10", 1};
  int served = 0, degraded = 0, shed = 0;
  for (int i = 0; i < 16; ++i) {
    core::EstimateContext ctx;
    ctx.now = 100.0;
    ctx.tenant = (i % 2 == 0) ? "alice" : "bob";
    if (i == 15) ctx.deadline_seconds = 100.0 + 0.01;  // cannot finish
    auto plan = sphere.PlanQuery(agg, ctx);
    if (!plan.ok()) {
      ++shed;
      continue;
    }
    // A degraded admission marks the fallback on whichever remote nodes
    // lost fidelity, not necessarily the winner's — scan them all.
    bool fell_back = false;
    for (const auto& node : plan.value().nodes) {
      if (!node.fell_back_reason.empty()) fell_back = true;
    }
    if (fell_back) {
      ++degraded;
    } else {
      ++served;
    }
  }
  std::printf("burst of 16: served=%d degraded=%d shed=%d\n", served,
              degraded, shed);

  // One status document: the service's samples, then the controller's.
  MetricsSnapshot status = service.StatsSnapshot();
  const MetricsSnapshot admitted = admission.StatsSnapshot();
  status.samples.insert(status.samples.end(), admitted.samples.begin(),
                        admitted.samples.end());
  const std::string json =
      "{\n  \"status\": " + status.ToJson("  ") + "\n}\n";
  std::printf("\n%s", json.c_str());

  std::ofstream out("EXPLAIN_admission.json");
  if (!out) {
    std::fprintf(stderr, "cannot open EXPLAIN_admission.json\n");
    return 1;
  }
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed writing EXPLAIN_admission.json\n");
    return 1;
  }
  std::printf("wrote EXPLAIN_admission.json\n");
  return 0;
}
