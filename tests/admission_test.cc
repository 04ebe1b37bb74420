// Tests for the tenant-aware admission controller (src/serving/admission.*):
// options parsing, the serve -> serve-degraded -> shed ladder and its
// decision order, token-bucket throttling, deadline feasibility shedding,
// background yield, the zero-load bit-identity contract, the cache-purity
// invariants (degraded / deadline-expired answers never publish), the
// lifecycle retrain-yield hook, and the multi-tenant overload hammer that
// races admission against background retrains (a tsan target wired into
// scripts/check.sh).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid.h"
#include "core/trainer.h"
#include "lifecycle/manager.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "util/properties.h"
#include "util/runtime_metrics.h"
#include "util/thread_pool.h"

namespace intellisphere {
namespace {

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
  EXPECT_EQ(a.remedy_alpha, b.remedy_alpha);
  EXPECT_EQ(a.nn_seconds, b.nn_seconds);
  EXPECT_EQ(a.remedy_seconds, b.remedy_seconds);
  EXPECT_EQ(a.fell_back_reason, b.fell_back_reason);
}

// --- AdmissionOptions parsing ----------------------------------------------

TEST(AdmissionOptionsTest, FromPropertiesDefaultsAndOverrides) {
  Properties empty;
  auto defaults = serving::AdmissionOptions::FromProperties(empty).value();
  EXPECT_DOUBLE_EQ(defaults.tenant_rate, 200.0);
  EXPECT_DOUBLE_EQ(defaults.tenant_burst, 50.0);
  EXPECT_EQ(defaults.max_queue, 256);
  EXPECT_DOUBLE_EQ(defaults.degrade_fraction, 0.5);
  EXPECT_DOUBLE_EQ(defaults.background_fraction, 0.25);
  EXPECT_DOUBLE_EQ(defaults.service_seconds, 0.0002);

  Properties props;
  props.SetDouble(serving::kAdmissionTenantRateKey, 10.0);
  props.SetDouble(serving::kAdmissionTenantBurstKey, 5.0);
  props.SetInt(serving::kAdmissionMaxQueueKey, 32);
  props.SetDouble(serving::kAdmissionDegradeFractionKey, 0.75);
  props.SetDouble(serving::kAdmissionBackgroundFractionKey, 0.5);
  props.SetDouble(serving::kAdmissionServiceSecondsKey, 0.01);
  auto opts = serving::AdmissionOptions::FromProperties(props).value();
  EXPECT_DOUBLE_EQ(opts.tenant_rate, 10.0);
  EXPECT_DOUBLE_EQ(opts.tenant_burst, 5.0);
  EXPECT_EQ(opts.max_queue, 32);
  EXPECT_DOUBLE_EQ(opts.degrade_fraction, 0.75);
  EXPECT_DOUBLE_EQ(opts.background_fraction, 0.5);
  EXPECT_DOUBLE_EQ(opts.service_seconds, 0.01);
}

TEST(AdmissionOptionsTest, FromPropertiesRejectsOutOfDomain) {
  const auto reject = [](auto set) {
    Properties props;
    set(&props);
    EXPECT_FALSE(serving::AdmissionOptions::FromProperties(props).ok());
  };
  reject([](Properties* p) {
    p->SetDouble(serving::kAdmissionTenantRateKey, 0.0);
  });
  reject([](Properties* p) {
    p->SetDouble(serving::kAdmissionTenantBurstKey, -1.0);
  });
  reject([](Properties* p) {
    p->SetInt(serving::kAdmissionMaxQueueKey, 0);
  });
  reject([](Properties* p) {
    p->SetDouble(serving::kAdmissionDegradeFractionKey, 0.0);
  });
  reject([](Properties* p) {
    p->SetDouble(serving::kAdmissionDegradeFractionKey, 1.5);
  });
  reject([](Properties* p) {
    p->SetDouble(serving::kAdmissionBackgroundFractionKey, 2.0);
  });
  reject([](Properties* p) {
    p->SetDouble(serving::kAdmissionServiceSecondsKey, 0.0);
  });
}

// --- The Admit ladder (pure queue model, no serving) -----------------------

class AdmitLadderTest : public ::testing::Test {
 protected:
  // A controller over a service that is never reached: Admit is pure
  // queue-model arithmetic.
  core::CostEstimator estimator_;
  serving::EstimationService service_{&estimator_};
};

TEST_F(AdmitLadderTest, ServesAtZeroLoadAndDegradesPastFraction) {
  serving::AdmissionOptions opts;
  opts.max_queue = 10;
  opts.degrade_fraction = 0.5;
  opts.service_seconds = 1.0;
  serving::AdmissionController admission(&service_, opts);

  // Small batch at an empty queue: rung one.
  auto d = admission.Admit(2, 0.0, {});
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kServe);
  EXPECT_DOUBLE_EQ(d.queue_depth, 0.0);

  // The next batch lands past the degrade threshold (2 + 4 > 5).
  d = admission.Admit(4, 0.0, {});
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kServeDegraded);
  EXPECT_DOUBLE_EQ(d.queue_depth, 2.0);

  // Past the hard cap (6 + 5 > 10): shed, and the virtual queue must not
  // absorb work it refused.
  const double before = admission.Stats().queue_clears_at;
  d = admission.Admit(5, 0.0, {});
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kShedLoad);
  EXPECT_DOUBLE_EQ(admission.Stats().queue_clears_at, before);

  // The queue drains on the deployment clock: far enough in the future
  // the same batch is rung one again.
  d = admission.Admit(5, 100.0, {});
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kServe);

  auto stats = admission.Stats();
  EXPECT_EQ(stats.admitted, 7);
  EXPECT_EQ(stats.degraded, 4);
  EXPECT_EQ(stats.shed_load, 5);
}

TEST_F(AdmitLadderTest, ShedsDeadlineInfeasibleBatchesUpFront) {
  serving::AdmissionOptions opts;
  opts.service_seconds = 1.0;
  serving::AdmissionController admission(&service_, opts);

  core::EstimateContext ctx;
  ctx.deadline_seconds = 3.0;
  // Predicted finish 0 + 5*1 = 5 > 3: infeasible before any queue slot or
  // token is spent.
  auto d = admission.Admit(5, 0.0, ctx);
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kShedDeadline);
  EXPECT_DOUBLE_EQ(admission.Stats().queue_clears_at, 0.0);

  // A feasible deadline admits.
  ctx.deadline_seconds = 10.0;
  d = admission.Admit(5, 0.0, ctx);
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kServe);
  auto stats = admission.Stats();
  EXPECT_EQ(stats.shed_deadline, 5);
  EXPECT_EQ(stats.admitted, 5);
}

TEST_F(AdmitLadderTest, BackgroundYieldsLongBeforeForegroundSheds) {
  serving::AdmissionOptions opts;
  opts.max_queue = 10;
  opts.background_fraction = 0.25;  // background ceiling: depth 2.5
  opts.degrade_fraction = 0.5;
  opts.service_seconds = 1.0;
  serving::AdmissionController admission(&service_, opts);

  core::EstimateContext background;
  background.priority = core::RequestPriority::kBackground;
  auto d = admission.Admit(3, 0.0, background);
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kShedLoad);
  EXPECT_TRUE(d.background_yield);

  // The identical batch at foreground priority is served.
  d = admission.Admit(3, 0.0, {});
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kServe);
  EXPECT_FALSE(d.background_yield);

  // ShouldYieldBackground mirrors the same threshold, read-only.
  EXPECT_TRUE(admission.ShouldYieldBackground(0.0));
  EXPECT_FALSE(admission.ShouldYieldBackground(100.0));
  EXPECT_EQ(admission.Stats().background_yield, 3);
}

TEST_F(AdmitLadderTest, TokenBucketThrottlesToDegradedNotShed) {
  serving::AdmissionOptions opts;
  opts.tenant_rate = 1.0;
  opts.tenant_burst = 2.0;
  serving::AdmissionController admission(&service_, opts);

  core::EstimateContext alice;
  alice.tenant = "alice";
  EXPECT_EQ(admission.Admit(1, 0.0, alice).outcome,
            serving::AdmissionOutcome::kServe);
  EXPECT_EQ(admission.Admit(1, 0.0, alice).outcome,
            serving::AdmissionOutcome::kServe);
  // Bucket empty: rate limits bound cost, not admission — the request is
  // served degraded, never shed.
  auto d = admission.Admit(1, 0.0, alice);
  EXPECT_EQ(d.outcome, serving::AdmissionOutcome::kServeDegraded);
  EXPECT_TRUE(d.tenant_throttled);

  // Another tenant is unaffected.
  core::EstimateContext bob;
  bob.tenant = "bob";
  EXPECT_EQ(admission.Admit(1, 0.0, bob).outcome,
            serving::AdmissionOutcome::kServe);

  // The deployment clock refills alice's bucket.
  EXPECT_EQ(admission.Admit(1, 5.0, alice).outcome,
            serving::AdmissionOutcome::kServe);
  auto stats = admission.Stats();
  EXPECT_EQ(stats.tenant_throttled, 1);
  EXPECT_EQ(stats.tenants_tracked, 2);
}

TEST_F(AdmitLadderTest, StatsSnapshotCarriesConfigAndCounters) {
  serving::AdmissionOptions opts;
  opts.max_queue = 10;
  opts.degrade_fraction = 0.5;
  opts.service_seconds = 1.0;
  serving::AdmissionController admission(&service_, opts);
  (void)admission.Admit(6, 0.0, {});
  (void)admission.Admit(6, 0.0, {});
  const MetricsSnapshot snap = admission.StatsSnapshot();
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, double>>{
           {"serving.admission.max_queue", 10.0},
           {"serving.admission.degraded", 6.0},
           {"serving.admission.shed_load", 6.0},
           {"serving.admission.service_seconds", 1.0}}) {
    const MetricSample* sample = snap.Find(name);
    ASSERT_NE(sample, nullptr) << name;
    EXPECT_DOUBLE_EQ(sample->value, value) << name;
  }
}

// --- Service integration: identity, degradation, cache purity --------------

class AdmissionServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hive_ = remote::HiveEngine::CreateDefault("hive", 815);
    std::map<rel::OperatorType, core::LogicalOpModel> models;
    models.emplace(rel::OperatorType::kAggregation,
                   MakeCheapAggModel(hive_.get()));
    ASSERT_TRUE(estimator_
                    .RegisterSystem("hive",
                                    core::CostingProfile::LogicalOpOnly(
                                        std::move(models)))
                    .ok());
  }

  serving::EstimateRequest Request(int64_t rows, double now) const {
    serving::EstimateRequest req;
    req.system = "hive";
    req.op = SampleAgg(rows);
    req.now = now;
    return req;
  }

  std::unique_ptr<remote::HiveEngine> hive_;
  core::CostEstimator estimator_;
};

TEST_F(AdmissionServiceTest, AdmittedRequestsAreBitIdenticalToDirect) {
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService direct(&estimator_, sopts);
  serving::EstimationService wrapped(&estimator_, sopts);
  serving::AdmissionController admission(&wrapped);

  core::EstimateContext ctx;
  ctx.tenant = "planner";
  for (int i = 0; i < 4; ++i) {
    const auto req = Request(200000 + 100000 * i, 10.0 * (i + 1));
    auto via_direct = direct.Estimate(req);
    auto via_admission = admission.Estimate(req, ctx);
    ASSERT_TRUE(via_direct.ok());
    ASSERT_TRUE(via_admission.ok()) << via_admission.status().ToString();
    ExpectBitIdentical(via_admission.value(), via_direct.value());
  }

  // Batch path, same contract.
  std::vector<serving::EstimateRequest> batch = {Request(250000, 100.0),
                                                 Request(650000, 100.0)};
  auto direct_batch = direct.EstimateBatch(batch, {});
  auto admitted_batch = admission.EstimateBatch(batch, ctx);
  ASSERT_EQ(direct_batch.size(), admitted_batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(direct_batch[i].ok());
    ASSERT_TRUE(admitted_batch[i].ok());
    ExpectBitIdentical(admitted_batch[i].value(), direct_batch[i].value());
  }
  EXPECT_EQ(admission.Stats().degraded, 0);
  EXPECT_EQ(admission.Stats().shed_load, 0);
}

TEST_F(AdmissionServiceTest, DegradedAnswersAreFlaggedAndNeverCached) {
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator_, sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 4;
  aopts.degrade_fraction = 0.1;  // every arrival is past depth 0.4
  serving::AdmissionController admission(&service, aopts);

  const auto req = Request(300000, 1.0);
  auto degraded = admission.Estimate(req, {});
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.value().fell_back_reason.rfind("admission_overload:", 0),
            0u)
      << degraded.value().fell_back_reason;
  // The degraded answer must not have been published: a later full-fidelity
  // request recomputes and caches fresh.
  EXPECT_EQ(service.cache_stats().entries, 0);

  auto full = service.Estimate(req);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full.value().fell_back_reason.empty());
  EXPECT_EQ(service.cache_stats().entries, 1);

  // Batch path: the row matching the warm cache entry is served at full
  // fidelity (fresh hits need no fallback); the cold row is degraded and
  // flagged, and still publishes nothing.
  std::vector<serving::EstimateRequest> batch = {Request(300000, 2.0),
                                                 Request(500000, 2.0)};
  auto results = admission.EstimateBatch(batch, {});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(results[0].value().fell_back_reason.empty());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[1].value().fell_back_reason.rfind("admission_overload:", 0),
            0u)
      << results[1].value().fell_back_reason;
  EXPECT_EQ(service.cache_stats().entries, 1);
}

TEST_F(AdmissionServiceTest, DeadlineExpiredRequestsNeverTouchTheCache) {
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator_, sopts);

  core::EstimateContext ctx;
  ctx.deadline_seconds = 5.0;
  auto expired = service.Estimate(Request(300000, 10.0), ctx);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  auto stats = service.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0) << "expired requests must be "
                                             "rejected before any cache "
                                             "probe";
  EXPECT_EQ(stats.entries, 0);

  // Batch: the expired row is pre-answered, the live row is served and
  // cached normally.
  std::vector<serving::EstimateRequest> batch = {Request(300000, 10.0),
                                                 Request(300000, 1.0)};
  auto results = service.EstimateBatch(batch, ctx);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(service.cache_stats().entries, 1);
}

TEST_F(AdmissionServiceTest, ShedsCarryCleanRetryableStatuses) {
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator_, sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 1;
  aopts.degrade_fraction = 1.0;
  aopts.service_seconds = 10.0;
  serving::AdmissionController admission(&service, aopts);

  // First request fills the queue (served); the second is load-shed.
  ASSERT_TRUE(admission.Estimate(Request(300000, 0.0), {}).ok());
  auto shed = admission.Estimate(Request(300000, 0.0), {});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.status().IsRetryable());

  // Deadline-infeasible on a fresh controller: DeadlineExceeded.
  serving::AdmissionController fresh(&service, aopts);
  core::EstimateContext ctx;
  ctx.deadline_seconds = 5.0;  // predicted finish: 10s
  auto late = fresh.Estimate(Request(300000, 0.0), ctx);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  // A shed batch returns one identical status per request.
  std::vector<serving::EstimateRequest> batch = {Request(300000, 0.0),
                                                 Request(500000, 0.0)};
  auto results = admission.EstimateBatch(batch, {});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

// --- Lifecycle integration: retrain yield + background estimates -----------

TEST_F(AdmissionServiceTest, LifecycleEstimatesRunAtBackgroundPriority) {
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator_, sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 4;
  aopts.background_fraction = 0.25;  // background ceiling: depth 1
  aopts.degrade_fraction = 1.0;
  aopts.service_seconds = 10.0;
  serving::AdmissionController admission(&service, aopts);

  ThreadPool pool(1);
  lifecycle::LifecycleManager manager(&estimator_, &pool, {});

  // Empty queue: the lifecycle's background probe is admitted.
  ASSERT_TRUE(manager.Estimate(admission, Request(300000, 0.0)).ok());

  // Depth 1 now exceeds the background ceiling: the next lifecycle probe
  // is shed while a foreground request still lands.
  auto background = manager.Estimate(admission, Request(500000, 0.0));
  ASSERT_FALSE(background.ok());
  EXPECT_EQ(background.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(admission.Estimate(Request(500000, 0.0), {}).ok());
  EXPECT_EQ(admission.Stats().background_yield, 1);
}

TEST_F(AdmissionServiceTest, TickYieldsRetrainsUnderQueuePressure) {
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  serving::EstimationService service(&estimator_, sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 2;
  aopts.background_fraction = 0.25;
  aopts.degrade_fraction = 1.0;
  aopts.service_seconds = 100.0;
  serving::AdmissionController admission(&service, aopts);

  ThreadPool pool(2);
  lifecycle::LifecycleOptions lopts;
  lopts.drift.window = 8;
  lopts.drift.min_samples = 8;
  lopts.drift.threshold = 0.2;
  lopts.retrain_window = 32;
  lopts.admission = &admission;
  lifecycle::LifecycleManager manager(&estimator_, &pool, lopts);

  // Stage a drift episode.
  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    rel::SqlOperator op = SampleAgg(100000 + i * 50000);
    auto est = manager.Estimate("hive", op, core::EstimateContext::AtTime(now));
    ASSERT_TRUE(est.ok());
    manager.Record("hive", op, est.value().seconds,
                   est.value().seconds * 3.0, now);
    now += 1.0;
  }

  // Saturate the serving queue past the background threshold, then tick:
  // drift is detected but the launch yields to foreground pressure.
  ASSERT_TRUE(admission.Estimate(Request(300000, now), {}).ok());
  ASSERT_TRUE(manager.Tick(now).ok());
  auto stats = manager.Stats();
  EXPECT_EQ(stats.drift_detected, 1);
  EXPECT_EQ(stats.retrains_yielded, 1);
  EXPECT_EQ(stats.retrains_started, 0);
  EXPECT_DOUBLE_EQ(
      manager.StatsSnapshot().Find("lifecycle.retrain.yielded")->value, 1.0);

  // Once the queue drains on the deployment clock, the yielded retrain
  // launches — drift state was retained.
  ASSERT_TRUE(manager.Tick(now + 1000.0).ok());
  EXPECT_EQ(manager.Stats().retrains_started, 1);
}

// --- Overload hammer: admission racing background retrains (tsan) ----------

TEST_F(AdmissionServiceTest, MultiTenantOverloadRetrainHammer) {
  // Saturating multi-tenant load through the admission controller races
  // the lifecycle driver's drift -> retrain -> swap loop. The contract
  // under race: every admitted request is answered (ok), every shed is a
  // clean ResourceExhausted / DeadlineExceeded, and nothing else ever
  // escapes. Run under tsan by scripts/check.sh; the tool is the oracle
  // for the locking, the assertions pin the ladder's behavioral contract.
  ThreadPool lifecycle_pool(2);
  serving::ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.cache.shards = 4;
  sopts.cache.capacity = 64;
  serving::EstimationService service(&estimator_, sopts);
  serving::AdmissionOptions aopts;
  aopts.max_queue = 16;
  aopts.degrade_fraction = 0.5;
  aopts.background_fraction = 0.25;
  aopts.service_seconds = 0.05;  // saturates quickly under 6 writers
  aopts.tenant_rate = 50.0;
  aopts.tenant_burst = 10.0;
  serving::AdmissionController admission(&service, aopts);

  lifecycle::LifecycleOptions lopts;
  lopts.drift.window = 8;
  lopts.drift.min_samples = 8;
  lopts.drift.threshold = 0.2;
  lopts.retrain_window = 32;
  lopts.admission = &admission;
  lifecycle::LifecycleManager manager(&estimator_, &lifecycle_pool, lopts);

  constexpr int kTenants = 5;
  constexpr int kIters = 60;
  ThreadPool pool(kTenants + 1);
  std::vector<std::string> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back("tenant" + std::to_string(t));
  }
  std::vector<Status> outcomes = RunIndexed(
      &pool, kTenants + 1, [&](size_t task) -> Status {
        if (task == 0) {
          // The lifecycle driver ticks throughout the run; launches may be
          // yielded under pressure and relaunched later.
          for (int i = 0; i < kTenants * kIters; ++i) {
            ISPHERE_RETURN_NOT_OK(manager.Tick(static_cast<double>(i)));
          }
          return Status::OK();
        }
        const size_t tenant = task - 1;
        for (int i = 0; i < kIters; ++i) {
          const double now = 0.01 * static_cast<double>(i);
          core::EstimateContext ctx;
          ctx.now = now;
          ctx.tenant = tenants[tenant];
          if (i % 3 == 0) ctx.deadline_seconds = now + 0.2;
          auto est = manager.Estimate(admission,
                                      Request(100000 + (i % 7) * 100000, now),
                                      ctx);
          if (est.ok()) {
            if (!(est.value().seconds > 0.0)) {
              return Status::Internal("admitted answer not positive");
            }
          } else if (est.status().code() !=
                         StatusCode::kResourceExhausted &&
                     est.status().code() != StatusCode::kDeadlineExceeded) {
            return est.status();  // only clean shed statuses may escape
          }
          // Keep feeding drifted executions so retrains race the ladder.
          manager.Record("hive", SampleAgg(100000 + (i % 7) * 100000), 1.0,
                         3.0, now);
        }
        return Status::OK();
      });
  for (const Status& s : outcomes) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  // Drain in-flight retrains, then check the books balance: every request
  // was admitted, degraded, or shed — none lost.
  ASSERT_TRUE(manager.Tick(1e6).ok());
  for (int i = 0;
       i < 20000000 && (manager.Stats().in_flight > 0 ||
                        manager.Stats().retrains_started >
                            manager.Stats().retrains_completed);
       ++i) {
    ASSERT_TRUE(manager.Tick(1e6).ok());
  }
  auto stats = admission.Stats();
  EXPECT_EQ(stats.admitted + stats.degraded + stats.shed_load +
                stats.shed_deadline,
            kTenants * kIters);
  EXPECT_EQ(manager.Stats().retrains_failed, 0);
  EXPECT_EQ(manager.Stats().in_flight, 0);
}

}  // namespace
}  // namespace intellisphere
