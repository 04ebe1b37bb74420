// Microbenchmarks (google-benchmark) for the query-time cost of the
// estimators themselves. The estimation module sits inside the optimizer's
// plan enumeration loop, so its own latency matters: the paper's design
// keeps both the NN forward pass and the sub-op formulas in the
// microsecond range, with the online remedy an order of magnitude above
// (it fits a regression on the fly).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "core/hybrid.h"
#include "core/trainer.h"
#include "engine/local_cost_model.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "util/rng.h"
#include "util/runtime_metrics.h"
#include "util/trace.h"

namespace intellisphere {
namespace {

using bench::InfoFor;
using bench::Unwrap;

// Shared fixtures built once.
struct Fixtures {
  std::unique_ptr<remote::HiveEngine> hive;
  std::unique_ptr<core::LogicalOpModel> model;
  std::unique_ptr<core::SubOpCostEstimator> subop;
  std::unique_ptr<core::CostingProfile> profile;
  rel::JoinQuery in_range;
  rel::JoinQuery out_of_range;
  rel::SqlOperator join_op;
  std::vector<rel::JoinQuery> varied_joins;

  Fixtures() {
    hive = remote::HiveEngine::CreateDefault("hive", 2101);
    rel::JoinWorkloadOptions wopts;
    wopts.left_record_counts = {1000000, 4000000, 8000000};
    wopts.right_record_counts = {1000000, 4000000};
    wopts.record_sizes = {100, 500};
    wopts.output_selectivities = {1.0, 0.25};
    wopts.projection_levels = {1};
    auto queries = Unwrap(rel::GenerateJoinWorkload(wopts), "workload");
    auto run = Unwrap(core::CollectJoinTraining(hive.get(), queries),
                      "collect");
    core::LogicalOpOptions lopts;
    lopts.mlp.iterations = 3000;
    model = std::make_unique<core::LogicalOpModel>(
        Unwrap(core::LogicalOpModel::Train(rel::OperatorType::kJoin,
                                           run.data,
                                           core::JoinDimensionNames(), lopts),
               "train"));
    core::CalibrationOptions copts;
    copts.record_sizes = {40, 250, 1000};
    copts.record_counts = {1000000, 4000000};
    auto cal = Unwrap(
        core::CalibrateSubOps(
            hive.get(),
            InfoFor(*hive, hive->options().broadcast_threshold_factor), copts),
        "calibration");
    subop = std::make_unique<core::SubOpCostEstimator>(
        Unwrap(core::SubOpCostEstimator::ForHive(cal.catalog), "estimator"));
    profile = std::make_unique<core::CostingProfile>(
        core::CostingProfile::SubOpOnly(Unwrap(
            core::SubOpCostEstimator::ForHive(cal.catalog), "estimator")));

    auto l = Unwrap(rel::SyntheticTableDef(4000000, 500), "table");
    auto r = Unwrap(rel::SyntheticTableDef(1000000, 100), "table");
    in_range = Unwrap(rel::MakeJoinQuery(l, r, 32, 32, 0.5), "query");
    auto lo = Unwrap(rel::SyntheticTableDef(40000000, 500), "table");
    out_of_range = Unwrap(rel::MakeJoinQuery(lo, r, 32, 32, 0.5), "query");
    join_op = rel::SqlOperator::MakeJoin(in_range);
    varied_joins = VariedJoins();
  }

  /// A seeded pool of 4,096 joins shaped like the planner's: perfbench's
  /// table sizes and widths, filtered, projected to 4-32 B, with a tenth
  /// skewed and a quarter bucketed, so successive estimates take different
  /// algorithms, regimes and record sizes.
  static std::vector<rel::JoinQuery> VariedJoins() {
    static const int64_t kRows[] = {8000000, 20000000, 1000000, 400000,
                                    2000000, 4000000,  200000};
    static const int64_t kRowBytes[] = {250, 100, 500, 40, 100, 70, 1000};
    Rng rng(2101);
    const auto table = [&rng] {
      const int64_t t = rng.UniformInt(0, 6);
      const double filter = rng.Uniform(0.02, 1.0);
      return Unwrap(rel::SyntheticTableDef(
                        std::max<int64_t>(1, static_cast<int64_t>(
                                                 filter * kRows[t])),
                        kRowBytes[t]),
                    "table");
    };
    std::vector<rel::JoinQuery> joins;
    joins.reserve(4096);
    while (joins.size() < 4096) {
      const rel::TableDef left = table();
      const rel::TableDef right = table();
      rel::JoinQuery q = Unwrap(
          rel::MakeJoinQuery(left, right, rng.UniformInt(4, 32),
                             rng.UniformInt(4, 32), rng.Uniform(0.05, 1.0)),
          "query");
      if (rng.Uniform(0.0, 1.0) < 0.1) q.hot_key_fraction = 0.4;
      q.right_bucketed_on_key = rng.Uniform(0.0, 1.0) < 0.25;
      q.left_bucketed_on_key = rng.Uniform(0.0, 1.0) < 0.25;
      joins.push_back(q);
    }
    return joins;
  }
};

Fixtures& F() {
  static Fixtures fixtures;
  return fixtures;
}

void BM_NnPredictInRange(benchmark::State& state) {
  auto features = F().in_range.LogicalOpFeatures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(F().model->Estimate(features).value().seconds);
  }
}
BENCHMARK(BM_NnPredictInRange);

void BM_NnWithOnlineRemedy(benchmark::State& state) {
  auto features = F().out_of_range.LogicalOpFeatures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(F().model->Estimate(features).value().seconds);
  }
}
BENCHMARK(BM_NnWithOnlineRemedy);

void BM_SubOpJoinEstimate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        F().subop->EstimateJoin(F().in_range).value().seconds);
  }
}
BENCHMARK(BM_SubOpJoinEstimate);

void BM_SubOpJoinEstimateVaried(benchmark::State& state) {
  // The varied pool: BM_SubOpJoinEstimate's one repeated query keeps every
  // lookup and branch of the formulas hot, which the planner's joins do
  // not.
  const std::vector<rel::JoinQuery>& joins = F().varied_joins;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(F().subop->EstimateJoin(joins[i]).value().seconds);
    i = (i + 1) % joins.size();
  }
}
BENCHMARK(BM_SubOpJoinEstimateVaried);

void BM_SubOpSingleFormula(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        F().subop->EstimateJoinAlgorithm(F().in_range, "shuffle_join")
            .value());
  }
}
BENCHMARK(BM_SubOpSingleFormula);

void BM_HybridProfileEstimate(benchmark::State& state) {
  // The redesigned entry point with a default (observability-off) context:
  // this is the per-candidate cost the federation planners pay, and the
  // number the <2% tracing-disabled overhead budget is written against.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        F().profile->Estimate(F().join_op).value().seconds);
  }
}
BENCHMARK(BM_HybridProfileEstimate);

// Discards spans but counts them, so the traced benchmark measures span
// construction/attribute cost without unbounded accumulation.
class CountingSink : public TraceSink {
 public:
  void OnSpanEnd(const TraceSpanRecord&) override { ++ended_; }
  size_t ended() const { return ended_; }

 private:
  size_t ended_ = 0;
};

void BM_HybridProfileEstimateTraced(benchmark::State& state) {
  // Same estimate with a live trace sink: the full observability price.
  // Timing goes to the global registry, so the exported snapshot carries a
  // populated estimate.latency_us histogram.
  CountingSink sink;
  core::EstimateContext ctx;
  ctx.trace = &sink;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        F().profile->Estimate(F().join_op, ctx).value().seconds);
  }
}
BENCHMARK(BM_HybridProfileEstimateTraced);

void BM_LocalCostModel(benchmark::State& state) {
  eng::LocalCostModel local;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local.EstimateJoinSeconds(F().in_range).value());
  }
}
BENCHMARK(BM_LocalCostModel);

void BM_SimulatedRemoteExecution(benchmark::State& state) {
  // For scale: actually "running" the operator on the simulator — the cost
  // of labeling one training point.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        F().hive->ExecuteJoin(F().in_range).value().elapsed_seconds);
  }
}
BENCHMARK(BM_SimulatedRemoteExecution);

// Console reporter that also captures every run's adjusted real time so
// main() can emit the machine-readable BENCH_*.json next to the usual
// console table.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      metrics_.push_back({run.benchmark_name(), run.GetAdjustedRealTime(),
                          benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<bench::BenchMetric>& metrics() const { return metrics_; }

 private:
  std::vector<bench::BenchMetric> metrics_;
};

}  // namespace
}  // namespace intellisphere

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  intellisphere::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // The estimate benchmarks instrument the global registry; exporting its
  // snapshot puts the operational counters (approach selections, remedy
  // activations, latency buckets) next to the latency numbers.
  std::vector<intellisphere::bench::BenchMetric> metrics = reporter.metrics();
  intellisphere::bench::AppendMetricsSnapshot(
      intellisphere::MetricsRegistry::Global().Snapshot(), &metrics);
  intellisphere::bench::Check(
      intellisphere::bench::WriteBenchJson("estimation_latency", /*seed=*/2101,
                                           metrics),
      "bench json");
  return 0;
}
