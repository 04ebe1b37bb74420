// Online-lifecycle walkthrough (docs/OPERATIONS.md): train an aggregation
// model, wrap the estimator in a LifecycleManager configured through
// Properties keys (docs/CONFIG.md), push a workload shift through the
// ingest queue until the drift detector fires, let Tick retrain in the
// background (clone -> replay -> tune -> shadow -> swap), and render the
// manager's status snapshot as one status document (written to
// EXPLAIN_lifecycle.json).
//
// Run from anywhere; writes EXPLAIN_lifecycle.json to the working
// directory. scripts/check.sh runs this binary and validates the JSON with
// scripts/check_explain_json.py.

#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "core/hybrid.h"
#include "core/trainer.h"
#include "lifecycle/manager.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "util/properties.h"
#include "util/thread_pool.h"

namespace {

intellisphere::core::LogicalOpModel TrainAggModel(
    intellisphere::remote::HiveEngine* hive) {
  intellisphere::rel::AggWorkloadOptions wopts;
  wopts.record_counts = {100000, 400000, 1000000};
  wopts.record_sizes = {100};
  wopts.num_aggregates = {1};
  auto queries = intellisphere::rel::GenerateAggWorkload(wopts).value();
  auto run =
      intellisphere::core::CollectAggTraining(hive, queries).value();
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

  auto hive = remote::HiveEngine::CreateDefault("hive", 93);
  core::CostEstimator estimator;
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, TrainAggModel(hive.get()));
  if (!estimator
           .RegisterSystem("hive", core::CostingProfile::LogicalOpOnly(
                                       std::move(models)))
           .ok()) {
    std::fprintf(stderr, "system registration failed\n");
    return 1;
  }

  // The lifecycle configuration as an operator would ship it: Properties
  // keys (see docs/CONFIG.md), not code.
  Properties props;
  props.SetInt(lifecycle::kIngestCapacityKey, 1024);
  props.SetInt(lifecycle::kDriftWindowKey, 16);
  props.SetDouble(lifecycle::kDriftThresholdKey, 0.2);
  props.SetInt(lifecycle::kDriftMinSamplesKey, 12);
  props.SetInt(lifecycle::kRetrainWindowKey, 64);
  props.SetDouble(lifecycle::kShadowFractionKey, 0.25);
  auto opts = lifecycle::LifecycleOptions::FromProperties(props);
  if (!opts.ok()) {
    std::fprintf(stderr, "options: %s\n",
                 opts.status().ToString().c_str());
    return 1;
  }
  ThreadPool pool(2);
  lifecycle::LifecycleManager manager(&estimator, &pool, opts.value());

  // A workload shift: every actual lands at 3x the estimate. Serving and
  // recording continue as normal; the drift detector watches the stream.
  double now = 0.0;
  for (int i = 0; i < 16; ++i) {
    auto t = rel::SyntheticTableDef(100000 + i * 50000, 100).value();
    rel::SqlOperator op =
        rel::SqlOperator::MakeAgg(rel::MakeAggQuery(t, 10, 1).value());
    auto est =
        manager.Estimate("hive", op, core::EstimateContext::AtTime(now));
    if (!est.ok()) {
      std::fprintf(stderr, "estimate: %s\n",
                   est.status().ToString().c_str());
      return 1;
    }
    manager.Record("hive", op, est.value().seconds,
                   est.value().seconds * 3.0, now);
    now += 1.0;
  }
  // The first tick drains the queue, sees the drift, and launches a
  // background retrain on the pool. Serving keeps running against the
  // incumbent while it runs; once WaitForRetrains() has returned, the
  // next tick applies the shadow-accepted candidate with the
  // epoch-bumped swap.
  if (!manager.Tick(now).ok()) {
    std::fprintf(stderr, "tick failed\n");
    return 1;
  }
  auto during = manager.Estimate(
      "hive", rel::SqlOperator::MakeAgg(
                  rel::MakeAggQuery(
                      rel::SyntheticTableDef(500000, 100).value(), 10, 1)
                      .value()));
  if (!during.ok()) {
    std::fprintf(stderr, "estimate during retrain: %s\n",
                 during.status().ToString().c_str());
    return 1;
  }
  manager.WaitForRetrains();
  if (!manager.Tick(now).ok()) {
    std::fprintf(stderr, "tick failed\n");
    return 1;
  }
  lifecycle::LifecycleStats stats = manager.Stats();
  std::printf(
      "retrain: drift_detected=%lld swaps=%lld epoch=%llu\n",
      static_cast<long long>(stats.drift_detected),
      static_cast<long long>(stats.swaps_applied),
      static_cast<unsigned long long>(manager.model_epoch()));

  const std::string json =
      "{\n  \"status\": " + manager.StatsSnapshot().ToJson("  ") + "\n}\n";
  std::printf("\n%s", json.c_str());

  std::ofstream out("EXPLAIN_lifecycle.json");
  if (!out) {
    std::fprintf(stderr, "cannot open EXPLAIN_lifecycle.json\n");
    return 1;
  }
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed writing EXPLAIN_lifecycle.json\n");
    return 1;
  }
  std::printf("wrote EXPLAIN_lifecycle.json\n");
  return 0;
}
