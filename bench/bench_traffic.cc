// Closed-loop overload harness (DESIGN.md §17): replays seeded multi-tenant
// traffic — Zipfian tenants and work items, diurnal + bursty arrivals on
// the simulated deployment clock — through the full serving path
// (planner → admission → estimation service → cache → models) and accounts
// for what the admission ladder delivered under three regimes:
//
//  * identity: at zero load, planning through the admission controller must
//    reproduce direct planning bit for bit (the kServe transparency
//    contract, checked end to end through the facade).
//  * nominal: a comfortably provisioned run must shed nothing, degrade
//    nothing, answer everything, and miss no tenant's p99 SLO.
//  * overload: offered load ~4x the configured service capacity with tight
//    deadlines. The ladder must keep availability at 100% over non-shed
//    traffic (every admitted request answered), actually exercise both
//    degraded serving and both shed rungs, and keep planning regret vs the
//    exhaustive execution oracle bounded.
//
// The harness aborts loudly when any gate fails, and emits
// BENCH_traffic.json (gate metrics carry hard floors in "baseline") for
// scripts/check_bench_regression.py.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/estimate_context.h"
#include "core/logical_op.h"
#include "core/trainer.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "traffic/generator.h"
#include "traffic/harness.h"

namespace intellisphere {
namespace {

using bench::BenchMetric;
using bench::Check;
using bench::Unwrap;

constexpr uint64_t kSeed = 4242;

/// Hybrid profile: aggregations served from a trained logical-op model
/// (the batchable, cacheable fast path), with a calibrated sub-op
/// estimator underneath — exactly the shape the admission ladder needs,
/// since a degraded request falls from the logical model to the sub-op
/// rung and carries "admission_overload:sub_op" provenance.
core::CostingProfile ProfileFor(remote::SimulatedEngineBase* engine,
                                double broadcast_factor) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = Unwrap(
      core::CalibrateSubOps(engine,
                            bench::InfoFor(*engine, broadcast_factor), copts),
      "calibration");
  auto subop = Unwrap(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)), "sub-op");

  // Train the agg model on the grid spanned by the registered tables so
  // the nominal path never needs the out-of-range remedy.
  rel::AggWorkloadOptions wopts;
  wopts.record_counts = {500000, 2000000, 8000000};
  wopts.record_sizes = {40, 100, 250};
  wopts.num_aggregates = {1, 3};
  auto queries = Unwrap(rel::GenerateAggWorkload(wopts), "agg grid");
  auto training = Unwrap(core::CollectAggTraining(engine, queries),
                         "agg training");
  core::LogicalOpOptions lopts;
  lopts.mlp.iterations = 2000;
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(
      rel::OperatorType::kAggregation,
      Unwrap(core::LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                         training.data,
                                         core::AggDimensionNames(), lopts),
             "agg model"));
  std::map<rel::OperatorType, core::CostingApproach> approaches;
  approaches.emplace(rel::OperatorType::kAggregation,
                     core::CostingApproach::kLogicalOp);
  return Unwrap(core::CostingProfile::PerOperator(
                    std::move(subop), std::move(models),
                    std::move(approaches)),
                "hybrid profile");
}

void RegisterTables(fed::IntelliSphere* sphere) {
  auto a = Unwrap(rel::SyntheticTableDef(8000000, 250), "table a");
  a.location = "hive";
  auto b = Unwrap(rel::SyntheticTableDef(2000000, 100), "table b");
  b.location = "spark";
  auto c = Unwrap(rel::SyntheticTableDef(500000, 40), "table c");
  c.location = "hive";
  auto d = Unwrap(rel::SyntheticTableDef(100000, 100), "table d");
  d.location = fed::kTeradataSystemName;
  Check(sphere->RegisterTable(a), "register a");
  Check(sphere->RegisterTable(b), "register b");
  Check(sphere->RegisterTable(c), "register c");
  Check(sphere->RegisterTable(d), "register d");
}

/// The tenant-visible query mix: aggregations over every registered table
/// at two grouping cardinalities / aggregate counts. Item 0 is the hottest
/// under the Zipfian item distribution.
std::vector<traffic::WorkItem> Items() {
  return {
      {"T8000000_250", "a100", 1},
      {"T2000000_100", "a10", 2},
      {"T500000_40", "a100", 1},
      {"T100000_100", "a10", 1},
      {"T8000000_250", "a10", 3},
      {"T2000000_100", "a100", 1},
  };
}

/// Every candidate's root system and total, cheapest first, for
/// bit-comparison.
std::vector<std::pair<std::string, double>> CandidateTotals(
    const fed::QueryPlan& plan) {
  std::vector<std::pair<std::string, double>> totals;
  totals.reserve(plan.candidates.size());
  for (const auto& candidate : plan.candidates) {
    totals.emplace_back(plan.nodes[static_cast<size_t>(candidate.root)].system,
                        candidate.total_seconds);
  }
  return totals;
}

void PrintReport(const char* label, const traffic::TrafficReport& r) {
  std::printf(
      "%-8s arrivals=%lld full=%lld degraded=%lld shed_load=%lld "
      "shed_deadline=%lld errors=%lld avail=%.4f shed=%.4f degr=%.4f "
      "p50=%.1fus p99=%.1fus regret(mean=%.4f max=%.4f n=%lld) "
      "slo_miss=%lld\n",
      label, static_cast<long long>(r.arrivals),
      static_cast<long long>(r.answered_full),
      static_cast<long long>(r.answered_degraded),
      static_cast<long long>(r.shed_load),
      static_cast<long long>(r.shed_deadline),
      static_cast<long long>(r.planner_errors), r.availability,
      r.shed_fraction, r.degraded_fraction, r.p50_us, r.p99_us, r.mean_regret,
      r.max_regret, static_cast<long long>(r.regret_samples),
      static_cast<long long>(r.slo_violations));
}

void AppendReportMetrics(const std::string& prefix,
                         const traffic::TrafficReport& r,
                         std::vector<BenchMetric>* metrics) {
  metrics->push_back({prefix + "arrivals",
                      static_cast<double>(r.arrivals), "count"});
  metrics->push_back({prefix + "availability", r.availability, "fraction"});
  metrics->push_back({prefix + "shed_fraction", r.shed_fraction, "fraction"});
  metrics->push_back({prefix + "degraded_fraction", r.degraded_fraction,
                      "fraction"});
  metrics->push_back({prefix + "p50_us", r.p50_us, "us"});
  metrics->push_back({prefix + "p99_us", r.p99_us, "us"});
  metrics->push_back({prefix + "mean_regret", r.mean_regret, "x"});
  metrics->push_back({prefix + "max_regret", r.max_regret, "x"});
  metrics->push_back({prefix + "slo_violations",
                      static_cast<double>(r.slo_violations), "count"});
}

}  // namespace
}  // namespace intellisphere

int main() {
  using namespace intellisphere;  // NOLINT

  fed::IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", kSeed);
  auto* hive_raw = hive.get();
  Check(sphere.RegisterRemoteSystem(
            std::move(hive),
            ProfileFor(hive_raw,
                       hive_raw->options().broadcast_threshold_factor),
            fed::ConnectorParams{}),
        "register hive");
  auto spark = remote::SparkEngine::CreateDefault("spark", kSeed + 1);
  auto* spark_raw = spark.get();
  Check(sphere.RegisterRemoteSystem(
            std::move(spark),
            ProfileFor(spark_raw,
                       spark_raw->options().broadcast_threshold_factor),
            fed::ConnectorParams{}),
        "register spark");
  RegisterTables(&sphere);

  serving::EstimationService service(&sphere.cost_estimator());
  Check(sphere.AttachEstimationService(&service), "attach serving");

  const std::vector<traffic::WorkItem> items = Items();

  // Regret oracle: execute every placement once on the simulated engines,
  // before any admission controller can charge the probes to its queue.
  const std::vector<traffic::ItemTruth> truth =
      Unwrap(traffic::ComputeOracle(&sphere, items), "oracle");

  std::vector<BenchMetric> metrics;

  // --- identity: admitted-at-zero-load planning is bit-identical --------
  bench::Section("admission transparency at zero load");
  std::vector<std::vector<std::pair<std::string, double>>> direct;
  for (const auto& item : items) {
    direct.push_back(CandidateTotals(
        Unwrap(sphere.PlanQuery(traffic::SpecFor(item)), "direct plan")));
  }
  serving::AdmissionController identity_admission(&service);
  Check(sphere.AttachAdmissionController(&identity_admission),
        "attach admission (identity)");
  bool identical = true;
  for (size_t i = 0; i < items.size(); ++i) {
    core::EstimateContext ctx;
    // Widely spaced arrivals: the virtual queue fully drains between
    // requests, so every decision is kServe.
    ctx.now = 1000.0 + 100.0 * static_cast<double>(i);
    ctx.tenant = "identity";
    const auto admitted = CandidateTotals(Unwrap(
        sphere.PlanQuery(traffic::SpecFor(items[i]), ctx), "admitted plan"));
    if (admitted != direct[i]) identical = false;
  }
  const serving::AdmissionStats identity_stats = identity_admission.Stats();
  std::printf("plans=%zu identical=%s admitted=%lld degraded=%lld shed=%lld\n",
              items.size(), identical ? "yes" : "NO",
              static_cast<long long>(identity_stats.admitted),
              static_cast<long long>(identity_stats.degraded),
              static_cast<long long>(identity_stats.shed_load +
                                     identity_stats.shed_deadline));
  if (!identical || identity_stats.degraded != 0 ||
      identity_stats.shed_load + identity_stats.shed_deadline != 0) {
    Check(Status::Internal(
              "admission-enabled planning diverged from direct planning at "
              "zero load"),
          "identity gate");
  }
  metrics.push_back({"traffic.identity.bit_identical", 1.0, "bool", 1.0});

  // --- nominal: comfortably provisioned, nothing shed, SLOs met --------
  bench::Section("nominal load (no overload expected)");
  serving::AdmissionController nominal_admission(&service);
  Check(sphere.AttachAdmissionController(&nominal_admission),
        "attach admission (nominal)");
  traffic::TrafficOptions nominal;
  nominal.tenants = 6;
  nominal.duration_seconds = 30.0;
  nominal.base_rate = 20.0;
  nominal.burst_factor = 2.0;
  nominal.deadline_seconds = 0.0;  // no deadlines at nominal
  nominal.slo_p99_us = 50000.0;    // generous: gate wiring, not machines
  nominal.seed = kSeed;
  const traffic::TrafficReport nominal_report =
      Unwrap(traffic::RunTraffic(sphere, items, truth, nominal), "nominal");
  PrintReport("nominal", nominal_report);
  if (nominal_report.shed_load + nominal_report.shed_deadline != 0 ||
      nominal_report.planner_errors != 0 ||
      nominal_report.availability != 1.0 ||
      nominal_report.slo_violations != 0) {
    Check(Status::Internal("nominal run was not perfectly clean"),
          "nominal gate");
  }
  AppendReportMetrics("traffic.nominal.", nominal_report, &metrics);
  metrics.push_back({"traffic.nominal.clean", 1.0, "bool", 1.0});

  // --- overload: ~4x capacity, tight deadlines ------------------------
  bench::Section("overload (~4x configured capacity, 500ms deadlines)");
  // Cache disabled for this scenario: a warm cache answers degraded
  // requests at full fidelity (a fresh hit needs no fallback), which is
  // correct behavior but would leave the degrade rung unexercised — this
  // regime measures the ladder, not cache-probe speed.
  Check(sphere.AttachAdmissionController(nullptr), "detach admission");
  serving::ServiceOptions overload_sopts;
  overload_sopts.jobs = 1;
  overload_sopts.cache.capacity = 0;
  serving::EstimationService overload_service(&sphere.cost_estimator(),
                                              overload_sopts);
  Check(sphere.AttachEstimationService(&overload_service),
        "attach serving (overload)");
  serving::AdmissionOptions overload_adm;
  overload_adm.service_seconds = 0.01;  // capacity: 100 estimates/s
  overload_adm.max_queue = 64;
  overload_adm.degrade_fraction = 0.5;
  overload_adm.background_fraction = 0.25;
  Check(overload_adm.Validate(), "overload admission options");
  serving::AdmissionController overload_admission(&overload_service,
                                                  overload_adm);
  Check(sphere.AttachAdmissionController(&overload_admission),
        "attach admission (overload)");
  traffic::TrafficOptions overload;
  overload.tenants = 8;
  overload.duration_seconds = 20.0;
  overload.base_rate = 400.0;
  overload.burst_factor = 4.0;
  overload.deadline_seconds = 0.5;
  overload.slo_p99_us = 50000.0;
  overload.seed = kSeed + 1;
  const traffic::TrafficReport overload_report =
      Unwrap(traffic::RunTraffic(sphere, items, truth, overload), "overload");
  PrintReport("overload", overload_report);
  const serving::AdmissionStats overload_stats = overload_admission.Stats();
  std::printf(
      "admission: admitted=%lld degraded=%lld shed_load=%lld "
      "shed_deadline=%lld throttled=%lld bg_yield=%lld tenants=%lld\n",
      static_cast<long long>(overload_stats.admitted),
      static_cast<long long>(overload_stats.degraded),
      static_cast<long long>(overload_stats.shed_load),
      static_cast<long long>(overload_stats.shed_deadline),
      static_cast<long long>(overload_stats.tenant_throttled),
      static_cast<long long>(overload_stats.background_yield),
      static_cast<long long>(overload_stats.tenants_tracked));

  // The overload contract (ISSUE acceptance): every non-shed arrival is
  // answered (availability >= 99.9%), the ladder actually degrades and
  // sheds, and the planner's regret vs the execution oracle stays bounded
  // even when estimates come down the fallback rungs.
  if (overload_report.availability < 0.999) {
    Check(Status::Internal("overload availability below 99.9%"),
          "overload availability gate");
  }
  if (overload_report.answered_degraded == 0 ||
      overload_report.shed_load + overload_report.shed_deadline == 0) {
    Check(Status::Internal(
              "overload run never exercised the degrade/shed rungs"),
          "overload ladder gate");
  }
  if (overload_report.regret_samples == 0 ||
      overload_report.mean_regret > 0.5) {
    Check(Status::Internal("overload planning regret out of bounds"),
          "overload regret gate");
  }
  AppendReportMetrics("traffic.overload.", overload_report, &metrics);
  metrics.push_back(
      {"traffic.overload.availability_floor",
       overload_report.availability >= 0.999 ? 1.0 : 0.0, "bool", 1.0});
  metrics.push_back(
      {"traffic.overload.ladder_exercised",
       overload_report.answered_degraded > 0 &&
               overload_report.shed_load + overload_report.shed_deadline > 0
           ? 1.0
           : 0.0,
       "bool", 1.0});
  metrics.push_back({"traffic.overload.regret_within_bound",
                     overload_report.mean_regret <= 0.5 ? 1.0 : 0.0, "bool",
                     1.0});

  Check(bench::WriteBenchJson("traffic", kSeed, metrics), "write json");
  return 0;
}
