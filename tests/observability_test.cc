// Unit and integration tests for the estimation observability layer:
// trace spans (src/util/trace.h), the runtime metrics registry
// (src/util/runtime_metrics.h), and their wiring through
// CostingProfile::Estimate via EstimateContext.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid.h"
#include "core/trainer.h"
#include "lifecycle/manager.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "util/runtime_metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace intellisphere {
namespace {

// --- TraceSpan / TraceSink -------------------------------------------------

TEST(TraceSpanTest, DisabledSpanIsInertAndFree) {
  TraceSpan span;  // no sink
  EXPECT_FALSE(span.enabled());
  EXPECT_EQ(span.id(), 0);
  span.SetString("k", "v").SetInt("n", 1).SetDouble("d", 0.5).SetBool("b",
                                                                      true);
  TraceSpan child = span.Child("child");
  EXPECT_FALSE(child.enabled());
  span.End();  // must not crash
}

TEST(TraceSpanTest, EndReportsOnceWithAttributes) {
  CollectingTraceSink sink;
  {
    TraceSpan span(&sink, "work");
    span.SetString("key", "value").SetInt("count", 7);
    span.End();
    span.End();  // second End is a no-op
  }            // destructor must not double-report
  ASSERT_EQ(sink.size(), 1u);
  TraceSpanRecord rec = sink.spans()[0];
  EXPECT_EQ(rec.name, "work");
  EXPECT_EQ(rec.id, 1);
  EXPECT_EQ(rec.parent_id, 0);
  ASSERT_NE(rec.FindAttribute("key"), nullptr);
  EXPECT_EQ(rec.FindAttribute("key")->ValueToString(), "value");
  ASSERT_NE(rec.FindAttribute("count"), nullptr);
  EXPECT_EQ(rec.FindAttribute("count")->int_value, 7);
  EXPECT_EQ(rec.FindAttribute("missing"), nullptr);
}

TEST(TraceSpanTest, ChildrenRecordParentIdsAcrossEndOrder) {
  CollectingTraceSink sink;
  {
    TraceSpan root(&sink, "root");
    TraceSpan a = root.Child("a");
    TraceSpan b = root.Child("b");
    TraceSpan aa = a.Child("aa");
    // RAII end order: aa, b, a, root — ids still rebuild the tree.
  }
  auto spans = sink.spans();  // sorted by id = construction order
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent_id, 0);
  EXPECT_EQ(spans[1].name, "a");
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[2].name, "b");
  EXPECT_EQ(spans[2].parent_id, spans[0].id);
  EXPECT_EQ(spans[3].name, "aa");
  EXPECT_EQ(spans[3].parent_id, spans[1].id);
}

TEST(TraceSpanTest, MoveTransfersOwnership) {
  CollectingTraceSink sink;
  {
    TraceSpan span(&sink, "moved");
    TraceSpan other = std::move(span);
    EXPECT_FALSE(span.enabled());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(other.enabled());
  }
  EXPECT_EQ(sink.size(), 1u);  // exactly one report despite two handles
}

TEST(TraceSpanTest, AttributeValueFormatting) {
  TraceAttribute b;
  b.kind = TraceAttribute::Kind::kBool;
  b.bool_value = true;
  EXPECT_EQ(b.ValueToString(), "true");
  TraceAttribute d;
  d.kind = TraceAttribute::Kind::kDouble;
  d.double_value = 2.5;
  EXPECT_EQ(d.ValueToString(), "2.5");
}

TEST(TraceSinkTest, ConcurrentSpansGetDistinctIds) {
  CollectingTraceSink sink;
  ThreadPool pool(4);
  std::vector<Status> statuses =
      RunIndexed(&pool, 64, [&](size_t i) -> Status {
        TraceSpan span(&sink, "t" + std::to_string(i));
        span.Child("child").SetInt("i", static_cast<int64_t>(i));
        return Status::OK();
      });
  for (const Status& s : statuses) ASSERT_TRUE(s.ok());
  auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 128u);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, spans[i - 1].id + 1);  // dense, distinct ids
  }
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
}

// --- Counter / Histogram / MetricsRegistry ---------------------------------

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

// Runs `body(t)` once on each of `threads` pool workers, all of them at
// once: every task waits until all have started, so no worker runs two.
template <typename Body>
void OnDistinctThreads(int threads, Body body) {
  ThreadPool pool(threads);
  std::atomic<int> arrived{0};
  std::vector<Status> statuses =
      RunIndexed(&pool, static_cast<size_t>(threads), [&](size_t t) -> Status {
        arrived.fetch_add(1);
        while (arrived.load() < threads) std::this_thread::yield();
        body(t);
        return Status::OK();
      });
  for (const Status& s : statuses) ASSERT_TRUE(s.ok());
}

TEST(CounterTest, MoreThreadsThanCellsCountExactlyAndResetEveryCell) {
  // More threads than cells: some cells are shared, every cell is used
  // (threads take slots round-robin), and the sum is still exact.
  constexpr int kThreads = 20;
  static_assert(kThreads > static_cast<int>(Counter::kCells));
  Counter counter;
  MetricsRegistry registry;
  Counter* registered = registry.GetCounter("striped");
  const auto add_known_total = [&](size_t t) {
    for (int i = 0; i <= static_cast<int>(t); ++i) {
      counter.Increment(1000);
      registered->Increment();
    }
  };
  OnDistinctThreads(kThreads, add_known_total);
  // Thread t added (t + 1) * 1000 and t + 1.
  EXPECT_EQ(counter.value(), 1000 * kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(registered->value(), kThreads * (kThreads + 1) / 2);

  // Every cell holds a positive count, so a zero sum means each was reset.
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
  registry.ResetAll();
  EXPECT_EQ(registered->value(), 0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("striped")->value, 0.0);

  // Counting resumes exactly from zero on the same cells.
  OnDistinctThreads(kThreads, add_known_total);
  EXPECT_EQ(counter.value(), 1000 * kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(registered->value(), kThreads * (kThreads + 1) / 2);
}

TEST(HistogramTest, BucketsCountAndMean) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.Mean(), 0.0);  // empty
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(5000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 5055.5);
  EXPECT_DOUBLE_EQ(h.Mean(), 5055.5 / 4);
  EXPECT_EQ(h.bucket_counts(),
            (std::vector<int64_t>{1, 1, 1, 1}));
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<int64_t>{0, 0, 0, 0}));
}

TEST(MetricsRegistryTest, StablePointersAndSnapshot) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests");
  EXPECT_EQ(registry.GetCounter("requests"), c);  // same instance
  c->Increment(3);
  Histogram* h = registry.GetHistogram("latency", {1.0, 10.0});
  EXPECT_EQ(registry.GetHistogram("latency", {99.0}), h);  // bounds fixed
  h->Observe(0.5);
  h->Observe(20.0);

  MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* requests = snap.Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_DOUBLE_EQ(requests->value, 3.0);
  EXPECT_EQ(requests->unit, "count");
  ASSERT_NE(snap.Find("latency.count"), nullptr);
  EXPECT_DOUBLE_EQ(snap.Find("latency.count")->value, 2.0);
  EXPECT_DOUBLE_EQ(snap.Find("latency.sum")->value, 20.5);
  EXPECT_DOUBLE_EQ(snap.Find("latency.mean")->value, 10.25);
  // Cumulative bucket samples: le.1 = 1, le.10 = 1, le.inf = 2.
  EXPECT_DOUBLE_EQ(snap.Find("latency.le.1")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("latency.le.10")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("latency.le.inf")->value, 2.0);
  EXPECT_EQ(snap.Find("nope"), nullptr);

  // ToJson renders an array of {"name","value","unit"} entries.
  std::string json = snap.ToJson("  ");
  EXPECT_NE(json.find("\"name\": \"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"count\""), std::string::npos);

  registry.ResetAll();
  EXPECT_EQ(c->value(), 0);  // cached pointer still valid
  EXPECT_EQ(h->count(), 0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDoNotDropCounts) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("hits");
  ThreadPool pool(4);
  std::vector<Status> statuses =
      RunIndexed(&pool, 1000, [&](size_t) -> Status {
        c->Increment();
        return Status::OK();
      });
  for (const Status& s : statuses) ASSERT_TRUE(s.ok());
  EXPECT_EQ(c->value(), 1000);
}

// --- Estimation-path integration -------------------------------------------

core::OpenboxInfo InfoFor(const remote::HiveEngine& hive) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = hive.cluster().config().dfs_block_bytes;
  info.total_slots = hive.cluster().config().TotalSlots();
  info.num_worker_nodes = hive.cluster().config().num_worker_nodes;
  info.task_memory_bytes = hive.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      hive.options().broadcast_threshold_factor * info.task_memory_bytes;
  return info;
}

core::SubOpCostEstimator MakeSubOpEstimator(remote::HiveEngine* hive) {
  core::CalibrationOptions opts;
  opts.record_sizes = {40, 250, 1000};
  opts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(hive, InfoFor(*hive), opts).value();
  return core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value();
}

core::LogicalOpModel MakeAggModel(remote::HiveEngine* hive) {
  rel::AggWorkloadOptions wopts;
  wopts.record_counts = {100000, 400000, 1000000};
  wopts.record_sizes = {100, 500};
  wopts.num_aggregates = {1, 3};
  auto queries = rel::GenerateAggWorkload(wopts).value();
  auto run = core::CollectAggTraining(hive, queries).value();
  core::LogicalOpOptions opts;
  opts.mlp.iterations = 4000;
  return core::LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                     run.data, core::AggDimensionNames(),
                                     opts)
      .value();
}

rel::SqlOperator SampleJoin() {
  auto l = rel::SyntheticTableDef(4000000, 250).value();
  auto r = rel::SyntheticTableDef(400000, 100).value();
  return rel::SqlOperator::MakeJoin(
      rel::MakeJoinQuery(l, r, 32, 32, 0.5).value());
}

rel::SqlOperator SampleAgg() {
  auto t = rel::SyntheticTableDef(400000, 100).value();
  return rel::SqlOperator::MakeAgg(rel::MakeAggQuery(t, 10, 1).value());
}

class EstimateObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hive_ = remote::HiveEngine::CreateDefault("hive", 91);
    profile_ = std::make_unique<core::CostingProfile>(
        core::CostingProfile::SubOpOnly(MakeSubOpEstimator(hive_.get())));
  }

  std::unique_ptr<remote::HiveEngine> hive_;
  std::unique_ptr<core::CostingProfile> profile_;
};

TEST_F(EstimateObservabilityTest, TracedEstimateEmitsSpanTree) {
  CollectingTraceSink sink;
  MetricsRegistry registry;
  core::EstimateContext ctx;
  ctx.trace = &sink;
  ctx.metrics = &registry;
  auto est = profile_->Estimate(SampleJoin(), ctx).value();
  EXPECT_GT(est.seconds, 0.0);

  auto spans = sink.spans();
  ASSERT_GE(spans.size(), 3u);
  // Root span first (construction order), with the final attributes.
  const TraceSpanRecord& root = spans[0];
  EXPECT_EQ(root.name, "estimate");
  EXPECT_EQ(root.parent_id, 0);
  ASSERT_NE(root.FindAttribute("approach"), nullptr);
  EXPECT_EQ(root.FindAttribute("approach")->ValueToString(), "sub_op");
  ASSERT_NE(root.FindAttribute("seconds"), nullptr);
  EXPECT_DOUBLE_EQ(root.FindAttribute("seconds")->double_value, est.seconds);
  ASSERT_NE(root.FindAttribute("elapsed_us"), nullptr);
  EXPECT_GT(root.FindAttribute("elapsed_us")->double_value, 0.0);

  bool saw_selection = false;
  size_t formula_spans = 0;
  for (const auto& s : spans) {
    if (s.name == "estimate.approach_selection") {
      saw_selection = true;
      EXPECT_EQ(s.parent_id, root.id);
      EXPECT_EQ(s.FindAttribute("selected")->ValueToString(), "sub_op");
    }
    if (s.name == "estimate.sub_op.formula") ++formula_spans;
  }
  EXPECT_TRUE(saw_selection);
  // One formula span per surviving algorithm candidate.
  EXPECT_EQ(formula_spans, est.candidates.size());
  EXPECT_GT(formula_spans, 0u);

  // The latency histogram observed exactly this estimate.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("estimate.latency_us.count")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.sub_op")->value, 1.0);
}

TEST_F(EstimateObservabilityTest, DisabledTracingCallsSinkZeroTimes) {
  // A default context must never touch a sink; this pins the
  // zero-cost-when-disabled contract.
  CollectingTraceSink sink;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(profile_->Estimate(SampleJoin()).ok());
  }
  EXPECT_EQ(sink.size(), 0u);
}

TEST_F(EstimateObservabilityTest, CountersTrackApproachAndElimination) {
  MetricsRegistry registry;
  core::EstimateContext ctx;
  ctx.metrics = &registry;
  auto est = profile_->Estimate(SampleJoin(), ctx).value();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.sub_op")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.logical_op")->value, 0.0);
  // The sample join eliminates at least the bucketed-join algorithms.
  EXPECT_DOUBLE_EQ(snap.Find("estimate.subop.eliminated")->value,
                   static_cast<double>(est.eliminated_count));
  EXPECT_GT(est.eliminated_count, 0);
}

TEST_F(EstimateObservabilityTest, LogicalPathCountsRemedyAndFallback) {
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive_.get()));
  auto profile = core::CostingProfile::SubOpThenLogicalOp(
      MakeSubOpEstimator(hive_.get()), std::move(models),
      /*switch_time=*/100.0);

  MetricsRegistry registry;
  CollectingTraceSink sink;
  core::EstimateContext ctx;
  ctx.metrics = &registry;
  ctx.trace = &sink;
  ctx.now = 200.0;  // past the switch

  // Aggregation has a model: logical path, NN span present.
  ASSERT_TRUE(profile.Estimate(SampleAgg(), ctx).ok());
  // Join has no model: falls back to sub-op.
  auto join_est = profile.Estimate(SampleJoin(), ctx).value();
  EXPECT_TRUE(join_est.fell_back_to_sub_op);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.logical_op")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.sub_op")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("estimate.approach.fallback_to_sub_op")->value,
                   1.0);
  EXPECT_DOUBLE_EQ(snap.Find("estimate.latency_us.count")->value, 2.0);

  bool saw_nn = false;
  for (const auto& s : sink.spans()) {
    if (s.name == "estimate.logical_op.nn") saw_nn = true;
  }
  EXPECT_TRUE(saw_nn);
}

TEST_F(EstimateObservabilityTest, ProvenanceDetailFillsEliminations) {
  core::EstimateContext ctx;
  ctx.detail = core::EstimateDetail::kProvenance;
  auto est = profile_->Estimate(SampleJoin(), ctx).value();
  EXPECT_GT(est.candidates.size(), 0u);
  EXPECT_EQ(est.eliminated.size(),
            static_cast<size_t>(est.eliminated_count));
  for (const auto& e : est.eliminated) {
    EXPECT_FALSE(e.algorithm.empty());
    EXPECT_FALSE(e.reason.empty());
  }
  // Cost-only detail keeps the numbers but skips the provenance strings.
  auto lean = profile_->Estimate(SampleJoin()).value();
  EXPECT_DOUBLE_EQ(lean.seconds, est.seconds);
  EXPECT_EQ(lean.eliminated_count, est.eliminated_count);
  EXPECT_TRUE(lean.eliminated.empty());
}

// --- Clock-only contexts keep recording ambient metrics --------------------
//
// EstimateContext::AtTime(now) — the migration target for the removed
// `double now` overloads — leaves `metrics` null, which the estimator and
// the planner resolve to MetricsRegistry::Global(): clock-only callers keep
// feeding the process-wide estimate.approach.* / plan.* counters. These regression
// tests pin that guarantee (and the audited non-behavior: AtTime must NOT
// flip timing() on, which would add clock reads to every clock-only call).

int64_t GlobalCounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

TEST_F(EstimateObservabilityTest,
       AtTimeContextRecordsGlobalCounters) {
  const int64_t sub_op_before = GlobalCounterValue("estimate.approach.sub_op");
  core::CostEstimator estimator;
  ASSERT_TRUE(
      estimator
          .RegisterSystem("hive", core::CostingProfile::SubOpOnly(
                                      MakeSubOpEstimator(hive_.get())))
          .ok());
  ASSERT_TRUE(
      profile_->Estimate(SampleJoin(), core::EstimateContext::AtTime(0.0))
          .ok());
  ASSERT_TRUE(estimator
                  .Estimate("hive", SampleJoin(),
                            core::EstimateContext::AtTime(0.0))
                  .ok());
  EXPECT_EQ(GlobalCounterValue("estimate.approach.sub_op"),
            sub_op_before + 2);
}

TEST_F(EstimateObservabilityTest,
       AtTimeContextDoesNotEnableTimingPath) {
  // AtTime must leave `metrics` null (Global() is the *resolution* of
  // null, not an explicit value): setting it would turn timing() on and
  // add a latency-histogram observation per clock-only call.
  core::EstimateContext clock_only = core::EstimateContext::AtTime(5.0);
  EXPECT_EQ(clock_only.metrics, nullptr);
  EXPECT_FALSE(clock_only.timing());
  EXPECT_DOUBLE_EQ(clock_only.now, 5.0);

  Histogram* latency = MetricsRegistry::Global().GetHistogram(
      "estimate.latency_us", DefaultLatencyBucketsUs());
  const int64_t observations_before = latency->count();
  ASSERT_TRUE(
      profile_->Estimate(SampleJoin(), core::EstimateContext::AtTime(0.0))
          .ok());
  EXPECT_EQ(latency->count(), observations_before);
}

// --- One count per fact ----------------------------------------------------
//
// The serving cache, the admission controller and the lifecycle manager
// each count their own events once, in their own stats; the registry holds
// only facts that belong to no instance (estimate.*, plan.*, remote.*).

TEST_F(EstimateObservabilityTest, InstanceCountsNeverReachTheGlobalRegistry) {
  core::CostEstimator estimator;
  ASSERT_TRUE(estimator
                  .RegisterSystem("hive", core::CostingProfile::SubOpOnly(
                                              MakeSubOpEstimator(hive_.get())))
                  .ok());
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator, sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 2;
  aopts.service_seconds = 1.0;
  serving::AdmissionController admission(&service, aopts);
  ThreadPool pool(1);
  lifecycle::LifecycleManager manager(&estimator, &pool,
                                      lifecycle::LifecycleOptions{});

  serving::EstimateRequest request;
  request.system = "hive";
  request.op = SampleJoin();
  // A miss, a hit and a batch through the service; served, degraded and
  // shed decisions through admission; records and a tick through the
  // lifecycle.
  ASSERT_TRUE(service.Estimate(request).ok());
  ASSERT_TRUE(service.Estimate(request).ok());
  ASSERT_EQ(service.EstimateBatch(std::vector{request, request}).size(), 2u);
  for (int i = 0; i < 4; ++i) (void)admission.Estimate(request);
  for (int i = 0; i < 3; ++i) {
    manager.Record("hive", request.op, 1.0, 2.0, static_cast<double>(i));
  }
  ASSERT_TRUE(manager.Tick(3.0).ok());

  // Every request the controller let through was answered from the cache.
  const serving::AdmissionStats decided = admission.Stats();
  EXPECT_GT(decided.admitted, 0);
  EXPECT_GT(decided.degraded + decided.shed_load, 0);
  const serving::CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.misses, 1);
  EXPECT_EQ(cache.hits, 2 + decided.admitted + decided.degraded);
  EXPECT_EQ(manager.Stats().ingest.pushed, 3);

  for (const MetricSample& sample :
       MetricsRegistry::Global().Snapshot().samples) {
    for (const char* prefix :
         {"serving.cache.", "serving.admission.", "lifecycle."}) {
      EXPECT_NE(sample.name.rfind(prefix, 0), 0u) << sample.name;
    }
  }
  // Each component exports its counts under the names the registry used.
  EXPECT_DOUBLE_EQ(service.StatsSnapshot().Find("serving.cache.hits")->value,
                   static_cast<double>(cache.hits));
  EXPECT_DOUBLE_EQ(
      manager.StatsSnapshot().Find("lifecycle.ingest.pushed")->value, 3.0);
  EXPECT_DOUBLE_EQ(
      admission.StatsSnapshot().Find("serving.admission.admitted")->value,
      static_cast<double>(decided.admitted));
}

// The status a service, an admission controller and a lifecycle manager
// export is one flat document: every sample is named once, finite and
// non-negative, and counts are integers. A detector's samples emitted
// twice, or a NaN mean error, fail here.
TEST_F(EstimateObservabilityTest,
       StatusSamplesAreNamedOnceFiniteAndNonNegative) {
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, MakeAggModel(hive_.get()));
  core::CostEstimator estimator;
  ASSERT_TRUE(estimator
                  .RegisterSystem("hive", core::CostingProfile::LogicalOpOnly(
                                              std::move(models)))
                  .ok());
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator, sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 2;
  aopts.service_seconds = 1.0;
  serving::AdmissionController admission(&service, aopts);
  ThreadPool pool(1);
  lifecycle::LifecycleManager manager(&estimator, &pool,
                                      lifecycle::LifecycleOptions{});

  serving::EstimateRequest request;
  request.system = "hive";
  request.op = SampleAgg();
  ASSERT_TRUE(service.Estimate(request).ok());
  for (int i = 0; i < 4; ++i) (void)admission.Estimate(request);
  // An exact, a 3x and a non-finite actual reach the (hive, aggregation)
  // detector.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double actual : {1.0, 3.0, nan}) {
    manager.Record("hive", request.op, 1.0, actual, 0.0);
  }
  ASSERT_TRUE(manager.Tick(1.0).ok());

  MetricsSnapshot status = service.StatsSnapshot();
  for (const MetricsSnapshot& part :
       {admission.StatsSnapshot(), manager.StatsSnapshot()}) {
    status.samples.insert(status.samples.end(), part.samples.begin(),
                          part.samples.end());
  }
  ASSERT_NE(status.Find("lifecycle.detector.hive.aggregation.accepted"),
            nullptr);
  std::set<std::string> names;
  for (const MetricSample& sample : status.samples) {
    EXPECT_TRUE(names.insert(sample.name).second)
        << sample.name << " appears twice";
    EXPECT_TRUE(std::isfinite(sample.value)) << sample.name;
    EXPECT_GE(sample.value, 0.0) << sample.name;
    if (sample.unit == "count") {
      EXPECT_EQ(sample.value, std::trunc(sample.value)) << sample.name;
    }
  }
}

}  // namespace
}  // namespace intellisphere
