// Online model lifecycle under a workload shift (DESIGN.md §16,
// docs/OPERATIONS.md): train an aggregation model on small inputs, serve
// against the live Hive-like engine, then shift the workload far out of the
// trained range. The drift detector must fire, a background retrain must
// run while the incumbent keeps serving, and the shadow-accepted candidate
// must swap in and cut the relative error on the shifted regime.
//
// Hard gates (enforced by scripts/check_bench_regression.py):
//   - estimate availability stays at 100% across every phase — drift,
//     in-flight retrain, and the swap itself never pause serving;
//   - at least one estimate is served while a retrain is in flight;
//   - at least one swap lands;
//   - the post-swap error on the shifted regime improves on the drifted
//     error by the recovery-ratio floor.

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/hybrid.h"
#include "core/trainer.h"
#include "lifecycle/drift_detector.h"
#include "lifecycle/manager.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace intellisphere {
namespace {

constexpr uint64_t kSeed = 2026;

/// Rows the model trains on; the shifted phase serves 3M-8M rows, far past
/// the trained pivot so both drift signals (relative error and
/// out-of-range fraction) engage.
constexpr int64_t kTrainedRowsLow = 100000;
constexpr int64_t kTrainedRowsHigh = 1000000;
constexpr int64_t kShiftedRowsLow = 3000000;
constexpr int64_t kShiftedRowsHigh = 8000000;

core::LogicalOpModel TrainAggModel(remote::HiveEngine* hive) {
  rel::AggWorkloadOptions wopts;
  wopts.record_counts = {kTrainedRowsLow, 250000, 500000, 750000,
                         kTrainedRowsHigh};
  wopts.record_sizes = {100};
  wopts.num_aggregates = {1};
  auto queries =
      bench::Unwrap(rel::GenerateAggWorkload(wopts), "agg workload");
  auto run =
      bench::Unwrap(core::CollectAggTraining(hive, queries), "agg training");
  core::LogicalOpOptions opts;
  opts.mlp.iterations = 2500;
  opts.tuning_iterations = 400;
  return bench::Unwrap(
      core::LogicalOpModel::Train(rel::OperatorType::kAggregation, run.data,
                                  core::AggDimensionNames(), opts),
      "train agg model");
}

rel::SqlOperator SampleAgg(int64_t rows) {
  auto t = bench::Unwrap(rel::SyntheticTableDef(rows, 100), "table def");
  return rel::SqlOperator::MakeAgg(
      bench::Unwrap(rel::MakeAggQuery(t, 10, 1), "agg query"));
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Shared serving-loop state: every estimate across every phase counts
/// toward the availability gate.
struct ServeTotals {
  int64_t served = 0;
  int64_t ok = 0;
  int64_t during_retrain = 0;
};

/// One deployment-clock step: estimate through the manager, execute on the
/// live engine, feed the (estimate, actual) pair back, tick the lifecycle.
/// Returns the relative error of this step's estimate.
double Step(lifecycle::LifecycleManager* manager, remote::HiveEngine* hive,
            int64_t rows, double* now, ServeTotals* totals) {
  rel::SqlOperator op = SampleAgg(rows);
  ++totals->served;
  auto est =
      manager->Estimate("hive", op, core::EstimateContext::AtTime(*now));
  bench::Check(est.status(), "serve estimate");
  ++totals->ok;
  double actual =
      bench::Unwrap(hive->Execute(op), "engine execute").elapsed_seconds;
  double err = lifecycle::RelativeError(est.value().seconds, actual);
  manager->Record("hive", op, est.value().seconds, actual, *now);
  bench::Check(manager->Tick(*now), "lifecycle tick");
  if (manager->Stats().in_flight > 0) ++totals->during_retrain;
  *now += 1.0;
  return err;
}

int64_t RowsInRange(int64_t low, int64_t high, int i, int steps) {
  return low + (high - low) * static_cast<int64_t>(i % steps) / steps;
}

void Run() {
  std::unique_ptr<remote::HiveEngine> hive =
      remote::HiveEngine::CreateDefault("hive", kSeed);
  core::CostEstimator estimator;
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, TrainAggModel(hive.get()));
  bench::Check(
      estimator.RegisterSystem(
          "hive", core::CostingProfile::LogicalOpOnly(std::move(models))),
      "register hive");

  CollectingTraceSink trace;
  ThreadPool pool(2);
  lifecycle::LifecycleOptions opts;
  opts.drift.window = 32;
  opts.drift.min_samples = 24;
  opts.drift.threshold = 0.25;
  opts.retrain_window = 256;
  opts.shadow_fraction = 0.25;
  opts.trace = &trace;
  lifecycle::LifecycleManager manager(&estimator, &pool, opts);

  ServeTotals totals;
  double now = 0.0;

  bench::Section("phase 1: steady state (trained range)");
  std::vector<double> steady_errs;
  for (int i = 0; i < 60; ++i) {
    steady_errs.push_back(
        Step(&manager, hive.get(),
             RowsInRange(kTrainedRowsLow, kTrainedRowsHigh, i, 60), &now,
             &totals));
  }
  std::printf("steady mean relative error: %.4f (n=%zu)\n",
              Mean(steady_errs), steady_errs.size());

  bench::Section("phase 2: workload shift -> drift -> background retrain");
  std::vector<double> drifted_errs;
  int shifted_step = 0;
  // Serve the shifted regime until the swap lands; only pre-swap steps
  // count as "drifted" error. Bounded so a broken loop fails loudly.
  while (manager.Stats().swaps_applied == 0) {
    if (shifted_step >= 20000) {
      std::fprintf(stderr, "FATAL: no swap after %d shifted steps\n",
                   shifted_step);
      std::abort();
    }
    double err = Step(&manager, hive.get(),
                      RowsInRange(kShiftedRowsLow, kShiftedRowsHigh,
                                  shifted_step, 60),
                      &now, &totals);
    // Errors measured after the swap belong to the recovered regime.
    if (manager.Stats().swaps_applied == 0) drifted_errs.push_back(err);
    ++shifted_step;
  }
  lifecycle::LifecycleStats mid = manager.Stats();
  std::printf(
      "drifted mean relative error: %.4f (n=%zu), drift detected after "
      "%d shifted steps, swap applied at step %d\n",
      Mean(drifted_errs), drifted_errs.size(),
      static_cast<int>(mid.drift_detected), shifted_step);

  bench::Section("phase 3: recovered (same shifted regime, swapped model)");
  std::vector<double> recovered_errs;
  for (int i = 0; i < 60; ++i) {
    recovered_errs.push_back(
        Step(&manager, hive.get(),
             RowsInRange(kShiftedRowsLow, kShiftedRowsHigh, i, 60), &now,
             &totals));
  }
  std::printf("recovered mean relative error: %.4f (n=%zu)\n",
              Mean(recovered_errs), recovered_errs.size());

  lifecycle::LifecycleStats stats = manager.Stats();
  if (stats.retrains_failed != 0) {
    std::fprintf(stderr, "FATAL: %d retrains failed\n",
                 static_cast<int>(stats.retrains_failed));
    std::abort();
  }

  int64_t retrain_spans = 0;
  int64_t shadow_spans = 0;
  for (const TraceSpanRecord& span : trace.spans()) {
    if (span.name == "lifecycle.retrain") ++retrain_spans;
    if (span.name == "lifecycle.shadow") ++shadow_spans;
  }

  double availability =
      static_cast<double>(totals.ok) / static_cast<double>(totals.served);
  double drifted = Mean(drifted_errs);
  double recovered = Mean(recovered_errs);
  double recovery_ratio = recovered > 0.0 ? drifted / recovered : 0.0;

  bench::Section("summary");
  std::printf(
      "availability %.4f over %lld estimates (%lld during in-flight "
      "retrains), swaps %lld, recovery ratio %.2fx\n",
      availability, static_cast<long long>(totals.served),
      static_cast<long long>(totals.during_retrain),
      static_cast<long long>(stats.swaps_applied), recovery_ratio);

  std::vector<bench::BenchMetric> out = {
      // Hard gates: serving never pauses, the loop completes, the swapped
      // model actually recovers on the shifted regime.
      {"lifecycle.estimate_availability", availability, "fraction", 1.0},
      {"lifecycle.estimates_during_retrain",
       static_cast<double>(totals.during_retrain), "count", 1.0},
      {"lifecycle.swaps_applied", static_cast<double>(stats.swaps_applied),
       "count", 1.0},
      {"lifecycle.error_recovery_ratio", recovery_ratio, "x", 1.5},
      {"lifecycle.retrain_spans", static_cast<double>(retrain_spans),
       "count", 1.0},
      {"lifecycle.shadow_spans", static_cast<double>(shadow_spans), "count",
       1.0},
      // Tracked (warn-only drift vs the committed baseline).
      {"lifecycle.steady_mean_rel_error", Mean(steady_errs), "rel"},
      {"lifecycle.drifted_mean_rel_error", drifted, "rel"},
      {"lifecycle.recovered_mean_rel_error", recovered, "rel"},
      {"lifecycle.shifted_steps_to_swap",
       static_cast<double>(shifted_step), "steps"},
      {"lifecycle.estimates_total", static_cast<double>(totals.served),
       "count"},
  };
  bench::AppendMetricsSnapshot(manager.StatsSnapshot(), &out);
  bench::Check(bench::WriteBenchJson("model_lifecycle", kSeed, out),
               "write json");
}

}  // namespace
}  // namespace intellisphere

int main() {
  intellisphere::Run();
  return 0;
}
