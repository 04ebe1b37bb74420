// Tests for the online model lifecycle (src/lifecycle/): the bounded
// ingest queue, drift-detector edge cases, the shadow acceptance rule, the
// drift -> retrain -> shadow -> swap loop, epoch fencing of cached
// estimates across a swap, the Tick/WaitForRetrains handoff and seeded replay,
// and the serve-during-retrain hammer that doubles as a tsan target in
// scripts/check.sh.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid.h"
#include "core/trainer.h"
#include "lifecycle/drift_detector.h"
#include "lifecycle/ingest_queue.h"
#include "lifecycle/manager.h"
#include "relational/workload.h"
#include "remote/health.h"
#include "remote/hive_engine.h"
#include "serving/service.h"
#include "util/properties.h"
#include "util/runtime_metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace intellisphere {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A deliberately small aggregation model: enough structure for the
/// lifecycle loop to retrain meaningfully, cheap enough to build per test.
core::LogicalOpModel MakeCheapAggModel(remote::HiveEngine* hive) {
  rel::AggWorkloadOptions wopts;
  wopts.record_counts = {100000, 400000, 1000000};
  wopts.record_sizes = {100};
  wopts.num_aggregates = {1};
  auto queries = rel::GenerateAggWorkload(wopts).value();
  auto run = core::CollectAggTraining(hive, queries).value();
  core::LogicalOpOptions opts;
  opts.mlp.iterations = 1500;
  opts.tuning_iterations = 300;
  return core::LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                     run.data, core::AggDimensionNames(),
                                     opts)
      .value();
}

rel::SqlOperator SampleAgg(int64_t rows = 400000) {
  auto t = rel::SyntheticTableDef(rows, 100).value();
  return rel::SqlOperator::MakeAgg(rel::MakeAggQuery(t, 10, 1).value());
}

void ExpectBitIdentical(const core::HybridEstimate& a,
                        const core::HybridEstimate& b) {
  EXPECT_EQ(a.seconds, b.seconds);  // exact, not NEAR: bit-identity
  EXPECT_EQ(a.approach_used, b.approach_used);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.used_remedy, b.used_remedy);
  EXPECT_EQ(a.nn_seconds, b.nn_seconds);
  EXPECT_EQ(a.remedy_seconds, b.remedy_seconds);
}

// --- Options parsing -------------------------------------------------------

TEST(DriftOptionsTest, FromPropertiesDefaultsAndOverrides) {
  Properties empty;
  auto defaults = lifecycle::DriftOptions::FromProperties(empty).value();
  EXPECT_EQ(defaults.window, 64);
  EXPECT_DOUBLE_EQ(defaults.threshold, 0.25);
  EXPECT_EQ(defaults.min_samples, 16);
  EXPECT_DOUBLE_EQ(defaults.out_of_range_fraction, 0.5);

  Properties props;
  props.SetInt(lifecycle::kDriftWindowKey, 8);
  props.SetDouble(lifecycle::kDriftThresholdKey, 0.1);
  props.SetInt(lifecycle::kDriftMinSamplesKey, 4);
  props.SetDouble(lifecycle::kDriftOutOfRangeFractionKey, 0.75);
  auto opts = lifecycle::DriftOptions::FromProperties(props).value();
  EXPECT_EQ(opts.window, 8);
  EXPECT_DOUBLE_EQ(opts.threshold, 0.1);
  EXPECT_EQ(opts.min_samples, 4);
  EXPECT_DOUBLE_EQ(opts.out_of_range_fraction, 0.75);
}

TEST(DriftOptionsTest, FromPropertiesRejectsOutOfDomain) {
  for (auto [key, value] :
       std::map<std::string, double>{{lifecycle::kDriftWindowKey, 0},
                                     {lifecycle::kDriftThresholdKey, 0.0},
                                     {lifecycle::kDriftMinSamplesKey, 0},
                                     {lifecycle::kDriftOutOfRangeFractionKey,
                                      1.5}}) {
    Properties props;
    if (key == lifecycle::kDriftThresholdKey ||
        key == lifecycle::kDriftOutOfRangeFractionKey) {
      props.SetDouble(key, value);
    } else {
      props.SetInt(key, static_cast<int64_t>(value));
    }
    auto result = lifecycle::DriftOptions::FromProperties(props);
    EXPECT_FALSE(result.ok()) << key;
  }
}

TEST(LifecycleOptionsTest, FromPropertiesCoversEveryKey) {
  Properties props;
  props.SetInt(lifecycle::kIngestCapacityKey, 32);
  props.SetInt(lifecycle::kDriftWindowKey, 8);
  props.SetInt(lifecycle::kRetrainWindowKey, 16);
  props.SetDouble(lifecycle::kShadowFractionKey, 0.5);
  props.SetDouble(lifecycle::kShadowMinImprovementKey, 0.1);
  auto opts = lifecycle::LifecycleOptions::FromProperties(props).value();
  EXPECT_EQ(opts.ingest_capacity, 32);
  EXPECT_EQ(opts.drift.window, 8);
  EXPECT_EQ(opts.retrain_window, 16);
  EXPECT_DOUBLE_EQ(opts.shadow_fraction, 0.5);
  EXPECT_DOUBLE_EQ(opts.shadow_min_improvement, 0.1);

  Properties bad;
  bad.SetDouble(lifecycle::kShadowFractionKey, 1.0);
  EXPECT_FALSE(lifecycle::LifecycleOptions::FromProperties(bad).ok());
  Properties bad2;
  bad2.SetInt(lifecycle::kRetrainWindowKey, 1);
  EXPECT_FALSE(lifecycle::LifecycleOptions::FromProperties(bad2).ok());
  // A non-finite margin passes a `< 0` check and makes ShadowAccepts reject
  // every candidate, so the lifecycle would silently never swap.
  for (const char* margin : {"nan", "inf"}) {
    Properties bad3;
    bad3.SetString(lifecycle::kShadowMinImprovementKey, margin);
    EXPECT_EQ(
        lifecycle::LifecycleOptions::FromProperties(bad3).status().code(),
        StatusCode::kInvalidArgument)
        << margin;
  }
}

// --- Ingest queue ----------------------------------------------------------

TEST(IngestQueueTest, DropOldestAtCapacity) {
  lifecycle::ExecutionLogQueue queue(3);
  for (int i = 0; i < 5; ++i) {
    lifecycle::ExecutionRecord rec;
    rec.system = "hive";
    rec.now = static_cast<double>(i);
    queue.Push(std::move(rec));
  }
  auto stats = queue.Stats();
  EXPECT_EQ(stats.pushed, 5);
  EXPECT_EQ(stats.dropped, 2);
  EXPECT_EQ(stats.size, 3);
  EXPECT_EQ(stats.capacity, 3);

  // The two OLDEST records were dropped; arrival order is preserved.
  auto drained = queue.Drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_DOUBLE_EQ(drained[0].now, 2.0);
  EXPECT_DOUBLE_EQ(drained[2].now, 4.0);
  EXPECT_EQ(queue.Stats().size, 0);
  EXPECT_EQ(queue.Stats().drained, 3);
}

TEST(IngestQueueTest, ConcurrentPushersLoseNothingButTheOldest) {
  lifecycle::ExecutionLogQueue queue(64);
  constexpr int kTasks = 4;
  constexpr int kPer = 50;
  ThreadPool pool(kTasks);
  std::vector<Status> outcomes =
      RunIndexed(&pool, kTasks, [&](size_t task) -> Status {
        for (int i = 0; i < kPer; ++i) {
          lifecycle::ExecutionRecord rec;
          rec.system = "hive";
          rec.now = static_cast<double>(task * kPer + i);
          queue.Push(std::move(rec));
        }
        return Status::OK();
      });
  for (const Status& s : outcomes) EXPECT_TRUE(s.ok());
  auto stats = queue.Stats();
  EXPECT_EQ(stats.pushed, kTasks * kPer);
  EXPECT_EQ(stats.size + stats.dropped, kTasks * kPer);
  EXPECT_EQ(stats.size, 64);
}

// --- Relative error + drift detector edge cases ----------------------------

TEST(RelativeErrorTest, ScalesByActualAndGuardsNonFinite) {
  EXPECT_DOUBLE_EQ(lifecycle::RelativeError(3.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(lifecycle::RelativeError(2.0, 2.0), 0.0);
  // Zero actual falls back to the epsilon floor instead of dividing by 0.
  EXPECT_TRUE(std::isfinite(lifecycle::RelativeError(1.0, 0.0)));
  EXPECT_TRUE(std::isnan(lifecycle::RelativeError(kNaN, 2.0)));
  EXPECT_TRUE(std::isnan(lifecycle::RelativeError(2.0, kInf)));
}

TEST(DriftDetectorTest, HoldsFireBelowMinSamples) {
  lifecycle::DriftOptions opts;
  opts.window = 16;
  opts.min_samples = 8;
  opts.threshold = 0.2;
  lifecycle::DriftDetector detector(opts);
  for (int i = 0; i < 7; ++i) detector.Observe(5.0, true);
  auto state = detector.State();
  EXPECT_FALSE(state.drifted) << "7 huge errors < min_samples must not fire";
  detector.Observe(5.0, true);
  state = detector.State();
  EXPECT_TRUE(state.drifted);
  EXPECT_STREQ(state.reason, "relative_error");
}

TEST(DriftDetectorTest, WindowShorterThanMinSamplesStillFiresWhenFull) {
  lifecycle::DriftOptions opts;
  opts.window = 4;
  opts.min_samples = 16;  // clamped down to the window
  opts.threshold = 0.2;
  lifecycle::DriftDetector detector(opts);
  for (int i = 0; i < 4; ++i) detector.Observe(1.0, false);
  auto state = detector.State();
  EXPECT_EQ(state.window_size, 4);
  EXPECT_TRUE(state.drifted);
}

TEST(DriftDetectorTest, AllZeroErrorsNeverDrift) {
  lifecycle::DriftOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  lifecycle::DriftDetector detector(opts);
  for (int i = 0; i < 100; ++i) detector.Observe(0.0, false);
  auto state = detector.State();
  EXPECT_FALSE(state.drifted);
  EXPECT_DOUBLE_EQ(state.mean_relative_error, 0.0);
  EXPECT_EQ(state.window_size, 8);
  EXPECT_EQ(state.accepted, 100);
}

TEST(DriftDetectorTest, NonFiniteObservationsAreRejectedNotMixed) {
  lifecycle::DriftOptions opts;
  opts.window = 8;
  opts.min_samples = 2;
  opts.threshold = 0.5;
  lifecycle::DriftDetector detector(opts);
  detector.Observe(0.1, false);
  detector.Observe(kNaN, false);
  detector.Observe(kInf, true);
  detector.Observe(-kInf, true);
  detector.Observe(0.1, false);
  auto state = detector.State();
  EXPECT_EQ(state.window_size, 2);
  EXPECT_EQ(state.accepted, 2);
  EXPECT_EQ(state.rejected_nonfinite, 3);
  EXPECT_FALSE(state.drifted);
  EXPECT_DOUBLE_EQ(state.mean_relative_error, 0.1);
}

TEST(DriftDetectorTest, OutOfRangeFractionFiresIndependently) {
  lifecycle::DriftOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  opts.threshold = 100.0;  // the error signal can never fire
  opts.out_of_range_fraction = 0.5;
  lifecycle::DriftDetector detector(opts);
  for (int i = 0; i < 4; ++i) detector.Observe(0.01, i % 2 == 0);
  auto state = detector.State();
  EXPECT_TRUE(state.drifted);
  EXPECT_STREQ(state.reason, "out_of_range");
  EXPECT_DOUBLE_EQ(state.out_of_range_fraction, 0.5);

  detector.Reset();
  state = detector.State();
  EXPECT_EQ(state.window_size, 0);
  EXPECT_EQ(state.accepted, 0);
  EXPECT_FALSE(state.drifted);
}

// --- Shadow acceptance rule ------------------------------------------------

TEST(ShadowAcceptsTest, StrictImprovementTieAndMargin) {
  EXPECT_TRUE(lifecycle::ShadowAccepts(0.1, 0.2, 0.0));
  // A tie keeps the incumbent.
  EXPECT_FALSE(lifecycle::ShadowAccepts(0.2, 0.2, 0.0));
  EXPECT_FALSE(lifecycle::ShadowAccepts(0.3, 0.2, 0.0));
  // The margin scales the bar: 0.16 < 0.2 * (1 - 0.5) is false.
  EXPECT_FALSE(lifecycle::ShadowAccepts(0.16, 0.2, 0.5));
  EXPECT_TRUE(lifecycle::ShadowAccepts(0.09, 0.2, 0.5));
  // A non-finite candidate error always rejects.
  EXPECT_FALSE(lifecycle::ShadowAccepts(kNaN, 0.2, 0.0));
  EXPECT_FALSE(lifecycle::ShadowAccepts(kInf, 0.2, 0.0));
}

// --- Manager integration ---------------------------------------------------

class LifecycleManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hive_ = remote::HiveEngine::CreateDefault("hive", 471);
    std::map<rel::OperatorType, core::LogicalOpModel> models;
    models.emplace(rel::OperatorType::kAggregation,
                   MakeCheapAggModel(hive_.get()));
    ASSERT_TRUE(estimator_
                    .RegisterSystem("hive",
                                    core::CostingProfile::LogicalOpOnly(
                                        std::move(models)))
                    .ok());
  }

  /// Serves an estimate through the manager and records an execution whose
  /// actual is `distortion` times the estimate — distortion 1.0 is a
  /// perfect model, 3.0 forces a large, deterministic relative error.
  void ServeAndRecord(lifecycle::LifecycleManager* manager, int64_t rows,
                      double distortion, double now) {
    rel::SqlOperator op = SampleAgg(rows);
    auto est = manager->Estimate("hive", op,
                                 core::EstimateContext::AtTime(now));
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    manager->Record("hive", op, est.value().seconds,
                    est.value().seconds * distortion, now);
  }

  lifecycle::LifecycleOptions FastDriftOptions() {
    lifecycle::LifecycleOptions opts;
    opts.drift.window = 8;
    opts.drift.min_samples = 8;
    opts.drift.threshold = 0.2;
    opts.retrain_window = 32;
    return opts;
  }

  std::unique_ptr<remote::HiveEngine> hive_;
  core::CostEstimator estimator_;
};

TEST_F(LifecycleManagerTest, DriftTriggersBackgroundRetrainAndSwap) {
  ThreadPool pool(2);
  lifecycle::LifecycleManager manager(&estimator_, &pool,
                                      FastDriftOptions());
  const uint64_t epoch_before = manager.model_epoch();

  // A workload shift: actuals land at 3x the estimate, every time.
  double now = 0.0;
  for (int i = 0; i < 16; ++i) {
    ServeAndRecord(&manager, 100000 + i * 50000, 3.0, now);
    now += 1.0;
  }
  ASSERT_TRUE(manager.Tick(now).ok());  // ingest + detect + launch
  auto stats = manager.Stats();
  EXPECT_EQ(stats.drift_detected, 1);
  EXPECT_EQ(stats.retrains_started, 1);

  manager.WaitForRetrains();
  ASSERT_TRUE(manager.Tick(now).ok());
  stats = manager.Stats();
  ASSERT_EQ(stats.retrains_completed, 1);
  EXPECT_EQ(stats.retrains_failed, 0);
  // The candidate retrained on the 3x actuals must beat a model that has
  // never seen them.
  EXPECT_EQ(stats.shadow_accepted, 1);
  EXPECT_EQ(stats.swaps_applied, 1);
  EXPECT_GT(manager.model_epoch(), epoch_before);
  EXPECT_DOUBLE_EQ(
      manager.StatsSnapshot().Find("lifecycle.swap.applied")->value, 1.0);

  // Serving still works against the swapped-in model.
  auto post = manager.Estimate("hive", SampleAgg(500000));
  ASSERT_TRUE(post.ok());
  EXPECT_GT(post.value().seconds, 0.0);
}

TEST_F(LifecycleManagerTest, ShadowRejectLeavesModelAndEpochUntouched) {
  ThreadPool pool(2);
  auto opts = FastDriftOptions();
  opts.drift.threshold = 1e9;  // never drift on its own
  opts.shadow_min_improvement = 1.0;  // nothing can clear this bar
  lifecycle::LifecycleManager manager(&estimator_, &pool, opts);

  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    ServeAndRecord(&manager, 200000 + i * 50000, 3.0, now);
    now += 1.0;
  }
  ASSERT_TRUE(manager.Tick(now).ok());
  const uint64_t epoch_before = manager.model_epoch();

  Properties before;
  estimator_.GetProfile("hive").value()->Save("profile", &before);

  auto outcome =
      manager.RetrainNow("hive", rel::OperatorType::kAggregation, now);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome.value().swapped);
  EXPECT_EQ(outcome.value().reject_reason, "no_improvement");
  EXPECT_GT(outcome.value().shadow_records, 0);
  EXPECT_GT(outcome.value().train_records, 0);

  // A rejected candidate must leave the serving model untouched: the epoch
  // never moved and the profile is byte-identical.
  EXPECT_EQ(manager.model_epoch(), epoch_before);
  Properties after;
  estimator_.GetProfile("hive").value()->Save("profile", &after);
  EXPECT_EQ(before.Serialize(), after.Serialize());

  auto stats = manager.Stats();
  EXPECT_EQ(stats.shadow_rejected, 1);
  EXPECT_EQ(stats.swaps_applied, 0);
  EXPECT_EQ(stats.in_flight, 0);  // the key is free for a future retrain
}

TEST_F(LifecycleManagerTest, NoDriftRunLeavesModelsByteIdentical) {
  ThreadPool pool(2);
  auto opts = FastDriftOptions();
  lifecycle::LifecycleManager manager(&estimator_, &pool, opts);

  Properties before;
  estimator_.GetProfile("hive").value()->Save("profile", &before);
  const uint64_t epoch_before = manager.model_epoch();

  // Perfect actuals: relative error 0 on every record, so the detector
  // never fires and the lifecycle must not touch the model at all.
  double now = 0.0;
  for (int i = 0; i < 24; ++i) {
    ServeAndRecord(&manager, 150000 + i * 30000, 1.0, now);
    now += 1.0;
    ASSERT_TRUE(manager.Tick(now).ok());
  }
  auto stats = manager.Stats();
  EXPECT_EQ(stats.drift_detected, 0);
  EXPECT_EQ(stats.retrains_started, 0);
  EXPECT_EQ(manager.model_epoch(), epoch_before);

  Properties after;
  estimator_.GetProfile("hive").value()->Save("profile", &after);
  EXPECT_EQ(before.Serialize(), after.Serialize());
}

TEST_F(LifecycleManagerTest, OpenBreakerDefersRetrain) {
  remote::HealthRegistry health;
  // Trip hive's breaker open at t=0 (default threshold: 5 failures).
  for (int i = 0; i < 5; ++i) {
    (void)health.breaker("hive").RecordFailure(0.0);
  }
  ASSERT_TRUE(health.IsOpen("hive", 1.0));

  ThreadPool pool(2);
  auto opts = FastDriftOptions();
  opts.health = &health;
  lifecycle::LifecycleManager manager(&estimator_, &pool, opts);

  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    ServeAndRecord(&manager, 100000 + i * 40000, 3.0, now);
    now += 0.1;
  }
  ASSERT_TRUE(manager.Tick(now).ok());
  auto stats = manager.Stats();
  EXPECT_EQ(stats.drift_detected, 1);
  EXPECT_EQ(stats.retrains_deferred, 1);
  EXPECT_EQ(stats.retrains_started, 0) << "no retrain while the breaker is "
                                          "open: outage actuals are not "
                                          "trustworthy training signal";

  // Once the cooldown elapses the next tick launches the deferred retrain.
  ASSERT_TRUE(manager.Tick(1000.0).ok());
  EXPECT_EQ(manager.Stats().retrains_started, 1);
}

TEST_F(LifecycleManagerTest, RecordsForUnmanagedSystemsAreIgnored) {
  ThreadPool pool(1);
  lifecycle::LifecycleManager manager(&estimator_, &pool,
                                      FastDriftOptions());
  manager.Record("no-such-system", SampleAgg(), 1.0, 100.0, 0.0);
  ASSERT_TRUE(manager.Tick(1.0).ok());
  auto stats = manager.Stats();
  EXPECT_EQ(stats.ingest.pushed, 1);
  EXPECT_EQ(stats.drift_detected, 0);
  auto retrain =
      manager.RetrainNow("no-such-system", rel::OperatorType::kAggregation,
                         1.0);
  EXPECT_FALSE(retrain.ok());
}

TEST_F(LifecycleManagerTest, StatsSnapshotReportsTheLoopState) {
  ThreadPool pool(1);
  lifecycle::LifecycleOptions opts = FastDriftOptions();
  opts.drift.window = 3;
  opts.drift.min_samples = 3;
  lifecycle::LifecycleManager manager(&estimator_, &pool, opts);
  // A detector fed the stream the manager sees for (hive, aggregation):
  // exact, 3x, exact, then a non-finite actual. Mean error 2/9 is past the
  // 0.2 threshold, so the tick detects drift and launches a retrain.
  lifecycle::DriftDetector expected(opts.drift);
  const core::LogicalOpModel* model =
      estimator_.GetProfile("hive")
          .value()
          ->logical_model(rel::OperatorType::kAggregation)
          .value();
  double now = 0.0;
  int64_t rows = 100000;
  for (double distortion : {1.0, 3.0, 1.0, kNaN}) {
    const rel::SqlOperator op = SampleAgg(rows);
    rows += 100000;
    const double est = manager.Estimate("hive", op).value().seconds;
    manager.Record("hive", op, est, est * distortion, now);
    auto pivots = model->metadata().PivotDimensions(op.LogicalOpFeatures(),
                                                    model->options().beta);
    expected.Observe(lifecycle::RelativeError(est, est * distortion),
                     pivots.ok() && !pivots.value().empty());
    now += 1.0;
  }
  ASSERT_TRUE(manager.Tick(now).ok());

  const lifecycle::LifecycleStats stats = manager.Stats();
  const lifecycle::DriftState state = expected.State();
  EXPECT_EQ(stats.ingest.drained, 4);
  EXPECT_EQ(stats.in_flight, 1);
  EXPECT_EQ(state.accepted, 3);
  EXPECT_EQ(state.rejected_nonfinite, 1);
  EXPECT_TRUE(state.drifted);
  const MetricsSnapshot snap = manager.StatsSnapshot();
  const std::string detector = "lifecycle.detector.hive.aggregation.";
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, double>>{
           {"lifecycle.model_epoch", manager.model_epoch()},
           {"lifecycle.ingest.capacity", stats.ingest.capacity},
           {"lifecycle.ingest.size", stats.ingest.size},
           {"lifecycle.ingest.drained", stats.ingest.drained},
           {"lifecycle.drift.window", opts.drift.window},
           {"lifecycle.drift.threshold", opts.drift.threshold},
           {"lifecycle.drift.min_samples", opts.drift.min_samples},
           {"lifecycle.drift.out_of_range_fraction",
            opts.drift.out_of_range_fraction},
           {"lifecycle.retrain.window", opts.retrain_window},
           {"lifecycle.retrain.in_flight", stats.in_flight},
           {"lifecycle.shadow.fraction", opts.shadow_fraction},
           {"lifecycle.shadow.min_improvement", opts.shadow_min_improvement},
           {detector + "window_size", state.window_size},
           {detector + "accepted", state.accepted},
           {detector + "rejected_nonfinite", state.rejected_nonfinite},
           {detector + "mean_relative_error", state.mean_relative_error},
           {detector + "out_of_range_fraction", state.out_of_range_fraction},
           {detector + "drifted", state.drifted ? 1.0 : 0.0}}) {
    const MetricSample* sample = snap.Find(name);
    ASSERT_NE(sample, nullptr) << name;
    EXPECT_DOUBLE_EQ(sample->value, value) << name;
  }
}

// --- Epoch fencing: no pre-retrain value survives the swap -----------------

TEST_F(LifecycleManagerTest, SwapFencesEveryCachedPreRetrainValue) {
  ThreadPool pool(2);
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator_, sopts);
  lifecycle::LifecycleManager manager(&estimator_, &pool,
                                      FastDriftOptions());

  serving::EstimateRequest req;
  req.system = "hive";
  req.op = SampleAgg(300000);
  auto v1 = manager.Estimate(service, req);
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(service.cache_stats().misses, 1);
  // Warm: the same request now answers from the cache.
  auto warm = manager.Estimate(service, req);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(service.cache_stats().hits, 1);
  ExpectBitIdentical(warm.value(), v1.value());

  // Shift the workload and retrain synchronously; the swap bumps the epoch.
  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    ServeAndRecord(&manager, 100000 + i * 80000, 3.0, now);
    now += 1.0;
  }
  ASSERT_TRUE(manager.Tick(now).ok());
  manager.WaitForRetrains();
  ASSERT_TRUE(manager.Tick(now).ok());
  ASSERT_EQ(manager.Stats().swaps_applied, 1);

  // The cached pre-retrain value is now epoch-stale: the service must
  // recompute, and the answer must be bit-identical to a fresh computation
  // against the swapped-in model — not the pre-retrain number.
  auto v2 = manager.Estimate(service, req);
  ASSERT_TRUE(v2.ok());
  auto fresh = manager.Estimate("hive", req.op);
  ASSERT_TRUE(fresh.ok());
  ExpectBitIdentical(v2.value(), fresh.value());
  serving::CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.stale_epoch, 1) << "the pre-retrain entry was rejected by "
                                     "the epoch check, never served";
}

// --- Retrain handoff: WaitForRetrains, then the applying Tick --------------

TEST_F(LifecycleManagerTest,
       RetrainNowRefusesWhileABackgroundRetrainIsOutstanding) {
  ThreadPool pool(2);
  lifecycle::LifecycleManager manager(&estimator_, &pool,
                                      FastDriftOptions());
  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    ServeAndRecord(&manager, 100000 + i * 50000, 3.0, now);
    now += 1.0;
  }
  ASSERT_TRUE(manager.Tick(now).ok());
  ASSERT_EQ(manager.Stats().retrains_started, 1);

  auto refused =
      manager.RetrainNow("hive", rel::OperatorType::kAggregation, now);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.Stats().retrains_started, 1);

  // A finished retrain stays in flight until a Tick applies it.
  manager.WaitForRetrains();
  EXPECT_EQ(manager.Stats().in_flight, 1);
  EXPECT_EQ(manager.Stats().retrains_completed, 0);
  ASSERT_TRUE(manager.Tick(now).ok());
  EXPECT_EQ(manager.Stats().in_flight, 0);
  EXPECT_EQ(manager.Stats().retrains_completed, 1);

  auto retried =
      manager.RetrainNow("hive", rel::OperatorType::kAggregation, now);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(manager.Stats().retrains_started, 2);
  EXPECT_EQ(manager.Stats().retrains_completed, 2);
}

/// What a seeded run leaves behind, compared byte for byte across runs.
struct ReplayRun {
  std::string status;
  std::string models;
  uint64_t epoch = 0;
};

/// One seeded shift scenario on a fresh estimator: two systems serve
/// shifted aggregations far past the trained rows, each with its own
/// stream, so their retrains run side by side on a 3-worker pool. After
/// each launching Tick the incumbents keep serving, then the test waits
/// and the next Tick applies every finished retrain.
ReplayRun RunSeededShift(const lifecycle::LifecycleOptions& opts) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 471);
  core::CostEstimator estimator;
  const std::vector<std::string> systems = {"hive-a", "hive-b"};
  for (const std::string& system : systems) {
    std::map<rel::OperatorType, core::LogicalOpModel> models;
    models.emplace(rel::OperatorType::kAggregation,
                   MakeCheapAggModel(hive.get()));
    EXPECT_TRUE(estimator
                    .RegisterSystem(system, core::CostingProfile::LogicalOpOnly(
                                                std::move(models)))
                    .ok());
  }
  ThreadPool pool(3);
  ReplayRun run;
  {
    lifecycle::LifecycleManager manager(&estimator, &pool, opts);
    double now = 0.0;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 12; ++i) {
        for (size_t s = 0; s < systems.size(); ++s) {
          const rel::SqlOperator op =
              SampleAgg(3000000 + static_cast<int64_t>(s) * 1000000 +
                        (round * 12 + i) % 9 * 500000);
          auto est = manager.Estimate(systems[s], op,
                                      core::EstimateContext::AtTime(now));
          EXPECT_TRUE(est.ok()) << est.status().ToString();
          if (!est.ok()) return run;
          const double actual = hive->Execute(op).value().elapsed_seconds;
          manager.Record(systems[s], op, est.value().seconds, actual, now);
        }
        now += 1.0;
      }
      EXPECT_TRUE(manager.Tick(now).ok());
      for (const std::string& system : systems) {
        EXPECT_TRUE(manager.Estimate(system, SampleAgg(5000000)).ok());
      }
      manager.WaitForRetrains();
      EXPECT_TRUE(manager.Tick(now).ok());
      EXPECT_EQ(manager.Stats().in_flight, 0);
    }
    EXPECT_GE(manager.Stats().swaps_applied, 2);
    run.status = manager.StatsSnapshot().ToJson();
    run.epoch = manager.model_epoch();
  }
  Properties saved;
  for (const std::string& system : systems) {
    estimator.GetProfile(system)
        .value()
        ->logical_model(rel::OperatorType::kAggregation)
        .value()
        ->Save(system, &saved);
  }
  run.models = saved.Serialize();
  return run;
}

TEST_F(LifecycleManagerTest, SeededRunReplaysByteIdentically) {
  const ReplayRun first = RunSeededShift(FastDriftOptions());
  const ReplayRun second = RunSeededShift(FastDriftOptions());
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.models, second.models);
  EXPECT_EQ(first.epoch, second.epoch);
}

// --- Serve-during-retrain hammer (tsan target) -----------------------------

TEST_F(LifecycleManagerTest, ConcurrentServeDuringRetrainHammer) {
  // Readers hammer the gated estimate path (direct and through a shared
  // service) while the driver task ticks the lifecycle through drift ->
  // background retrain -> swap. Run under tsan by scripts/check.sh;
  // assertions here are sanity plus the zero-downtime claim (every single
  // estimate during the whole run must succeed), the tool is the oracle.
  ThreadPool lifecycle_pool(2);
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.cache.shards = 4;
  sopts.cache.capacity = 64;
  serving::EstimationService service(&estimator_, sopts);
  auto opts = FastDriftOptions();
  lifecycle::LifecycleManager manager(&estimator_, &lifecycle_pool, opts);

  constexpr int kReaders = 5;
  constexpr int kIters = 60;
  ThreadPool pool(kReaders + 1);
  std::vector<Status> outcomes = RunIndexed(
      &pool, kReaders + 1, [&](size_t task) -> Status {
        if (task == 0) {
          // The lifecycle driver: tick until every reader-induced retrain
          // has completed and been applied.
          int launched_ticks = 0;
          while (launched_ticks < kReaders * kIters) {
            ISPHERE_RETURN_NOT_OK(manager.Tick(1.0));
            ++launched_ticks;
          }
          return Status::OK();
        }
        for (int i = 0; i < kIters; ++i) {
          rel::SqlOperator op = SampleAgg(100000 + (i % 7) * 100000);
          serving::EstimateRequest req;
          req.system = "hive";
          req.op = op;
          auto via_service = manager.Estimate(service, req);
          if (!via_service.ok()) return via_service.status();
          auto direct = manager.Estimate("hive", op);
          if (!direct.ok()) return direct.status();
          // Keep feeding drifted executions so retrains keep racing the
          // reads.
          manager.Record("hive", op, direct.value().seconds,
                         direct.value().seconds * 3.0,
                         static_cast<double>(task * kIters + i));
        }
        return Status::OK();
      });
  for (const Status& s : outcomes) {
    EXPECT_TRUE(s.ok()) << s.ToString();  // 100% estimate availability
  }

  // Drain: ingest whatever is still queued (guaranteeing at least one
  // drift -> retrain episode even when the driver's ticks all landed
  // before the readers produced enough records), then let every
  // still-running retrain finish and apply.
  ASSERT_TRUE(manager.Tick(2.0).ok());
  manager.WaitForRetrains();
  ASSERT_TRUE(manager.Tick(2.0).ok());
  auto stats = manager.Stats();
  EXPECT_GE(stats.retrains_started, 1);
  EXPECT_EQ(stats.retrains_started, stats.retrains_completed);
  EXPECT_EQ(stats.retrains_failed, 0);
  EXPECT_EQ(stats.in_flight, 0);
}

}  // namespace
}  // namespace intellisphere
