// Serving-layer throughput harness: measures estimate QPS through the
// EstimationService front-end against raw CostEstimator calls, cold cache
// vs warm cache, single-threaded vs pooled, plus the DESIGN.md §14
// fast paths:
//
//  * Cold batches run the distinct-key misses through model-grouped
//    batched GEMM inference (one fused forward pass per logical model);
//    their cache probes are tag misses in the set table, declared without
//    a mutex — gated at >= 5x the throughput of uncached scalar single
//    calls.
//  * Warm batches answer from verified seqlock ways of the set table —
//    gated at >= 5x uncached throughput, and the warm phase must record
//    ZERO locked cache probes (CacheStats::locked_gets): steady-state hits
//    take no shard mutex.
//  * A multi-threaded warm-hit section checks the lock-free read path
//    scales across cores: kScalingReps interleaved pairs of a 1-thread
//    and an N-thread window of kScalingPasses passes each, every pair's
//    efficiency printed and the median gated (adaptive: on a single-core
//    host it only asserts concurrency doesn't collapse throughput).
//
// Also re-checks the serving layer's bit-identity contract: every cached
// or batched answer must equal the uncached scalar answer field-for-field.
//
// The served system is a blackbox (logical-op only) profile, so every
// uncached estimate runs an MLP forward pass — the workload the cache and
// the batched GEMM path are built for.
//
// The harness aborts loudly if a contract or a speedup floor is broken.
// Emits BENCH_serving_throughput.json for CI trending; the speedup metrics
// carry their floors in the "baseline" field, enforced again (with
// warn-only drift checks against bench/baselines/) by
// scripts/check_bench_regression.py.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/estimate_context.h"
#include "core/hybrid.h"
#include "core/logical_op.h"
#include "core/trainer.h"
#include "relational/query.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "serving/estimate_cache.h"
#include "serving/service.h"
#include "util/runtime_metrics.h"
#include "util/thread_pool.h"

namespace intellisphere {
namespace {

using bench::BenchMetric;
using bench::Check;
using bench::Unwrap;

constexpr uint64_t kSeed = 4242;
constexpr int kDistinctOps = 48;    // unique (operator, features) keys
constexpr int kRequests = 1920;     // per measured pass; 40x reuse per key
constexpr int kWarmRepeats = 5;     // warm passes averaged for stable QPS
constexpr int kColdRepeats = 5;     // cold passes averaged for stable QPS
constexpr double kSpeedupFloor = 5.0;
// The warm-hit scaling leg: interleaved (1-thread, N-thread) window pairs,
// each window kScalingPasses passes over the request stream per thread
// (~0.1-0.2 s on a 4-vCPU host), so one scheduler hiccup moves one pair,
// not the gate, which reads the median pair.
constexpr int kScalingReps = 7;
constexpr int kScalingPasses = 200;
constexpr double kScalingFloor = 0.5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void RegisterHive(remote::HiveEngine* hive, core::CostEstimator* estimator) {
  rel::JoinWorkloadOptions jopts;
  jopts.left_record_counts = {1000000, 4000000, 8000000};
  jopts.right_record_counts = {400000, 1000000};
  jopts.record_sizes = {100, 250};
  jopts.output_selectivities = {1.0, 0.5};
  jopts.projection_levels = {1};
  auto join_queries = Unwrap(rel::GenerateJoinWorkload(jopts), "join grid");
  auto join_run =
      Unwrap(core::CollectJoinTraining(hive, join_queries), "join training");

  rel::AggWorkloadOptions aopts;
  aopts.record_counts = {400000, 1000000, 8000000};
  aopts.record_sizes = {100, 250};
  aopts.shrink_factors = {10, 100};
  aopts.num_aggregates = {1};
  auto agg_queries = Unwrap(rel::GenerateAggWorkload(aopts), "agg grid");
  auto agg_run =
      Unwrap(core::CollectAggTraining(hive, agg_queries), "agg training");

  // A (32, 16) network — wider than the paper's searched topologies
  // (~(14, 7)) — so the uncached forward pass costs what a production cost
  // model with a richer feature set pays. The cache's benefit scales with
  // model cost: at (14, 7) the warm speedup measures ~3x, here ~7x. Few
  // iterations — this harness measures serving throughput, not accuracy.
  core::LogicalOpOptions lopts;
  lopts.mlp.hidden1 = 32;
  lopts.mlp.hidden2 = 16;
  lopts.mlp.iterations = 800;
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kJoin,
                 Unwrap(core::LogicalOpModel::Train(
                            rel::OperatorType::kJoin, join_run.data,
                            core::JoinDimensionNames(), lopts),
                        "join model"));
  models.emplace(rel::OperatorType::kAggregation,
                 Unwrap(core::LogicalOpModel::Train(
                            rel::OperatorType::kAggregation, agg_run.data,
                            core::AggDimensionNames(), lopts),
                        "agg model"));
  Check(estimator->RegisterSystem(
            "hive", core::CostingProfile::LogicalOpOnly(std::move(models))),
        "register hive");
}

// A mixed join/agg workload with kDistinctOps unique feature vectors. The
// request stream cycles through them, so a capacity >= kDistinctOps cache
// converges to a 100% hit rate after one pass. Row counts sweep from inside
// the training range (1M..8M) to well past it (~15.7M), so roughly half the
// uncached estimates also pay the out-of-range remedy regression — the
// paper's Figure 14 serving mix, and the one the cache helps most.
std::vector<serving::EstimateRequest> MakeRequests() {
  std::vector<rel::SqlOperator> ops;
  ops.reserve(kDistinctOps);
  for (int i = 0; i < kDistinctOps; ++i) {
    int64_t rows = 1000000 + 312500 * static_cast<int64_t>(i);
    if (i % 2 == 0) {
      auto l = Unwrap(rel::SyntheticTableDef(rows, 250), "left table");
      auto r = Unwrap(rel::SyntheticTableDef(400000, 100), "right table");
      ops.push_back(rel::SqlOperator::MakeJoin(
          Unwrap(rel::MakeJoinQuery(l, r, 32, 32, 0.5), "join query")));
    } else {
      auto t = Unwrap(rel::SyntheticTableDef(rows, 100), "agg table");
      ops.push_back(rel::SqlOperator::MakeAgg(
          Unwrap(rel::MakeAggQuery(t, 10, 1), "agg query")));
    }
  }
  std::vector<serving::EstimateRequest> requests(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    requests[i].system = "hive";
    requests[i].op = ops[i % kDistinctOps];
  }
  return requests;
}

void CheckBitIdentical(const core::HybridEstimate& cached,
                       const core::HybridEstimate& uncached, const char* what) {
  bool same = cached.seconds == uncached.seconds &&
              cached.approach_used == uncached.approach_used &&
              cached.algorithm == uncached.algorithm &&
              cached.used_remedy == uncached.used_remedy &&
              cached.remedy_alpha == uncached.remedy_alpha &&
              cached.nn_seconds == uncached.nn_seconds &&
              cached.remedy_seconds == uncached.remedy_seconds &&
              cached.eliminated_count == uncached.eliminated_count;
  if (!same) {
    Check(Status::Internal("served estimate differs from uncached scalar"),
          what);
  }
}

serving::ServiceOptions BenchServiceOptions(int jobs) {
  serving::ServiceOptions opts;
  opts.jobs = jobs;
  opts.cache.shards = 8;
  opts.cache.capacity = 4096;
  return opts;
}

struct PassTiming {
  double cold_seconds = 0.0;  ///< averaged over kColdRepeats fresh caches
  double warm_seconds = 0.0;  ///< averaged over kWarmRepeats passes
};

PassTiming RunServicePasses(const core::CostEstimator& estimator, int jobs,
                            const std::vector<serving::EstimateRequest>& reqs,
                            const std::vector<core::HybridEstimate>& expected) {
  serving::EstimationService service(&estimator, BenchServiceOptions(jobs));

  // Untimed warm-up pass: faults in code paths, allocator arenas, and the
  // lazily-created global instrument counters so the timed passes measure
  // steady state rather than first-call setup.
  (void)service.EstimateBatch(reqs);
  PassTiming timing;
  std::vector<Result<core::HybridEstimate>> cold;
  for (int pass = 0; pass < kColdRepeats; ++pass) {
    service.InvalidateCache();
    auto start = std::chrono::steady_clock::now();
    cold = service.EstimateBatch(reqs);
    timing.cold_seconds += SecondsSince(start);
  }
  timing.cold_seconds /= kColdRepeats;

  auto start = std::chrono::steady_clock::now();
  std::vector<Result<core::HybridEstimate>> warm;
  for (int pass = 0; pass < kWarmRepeats; ++pass) {
    warm = service.EstimateBatch(reqs);
  }
  timing.warm_seconds = SecondsSince(start) / kWarmRepeats;

  for (size_t i = 0; i < reqs.size(); ++i) {
    Check(cold[i].status(), "cold batch slot");
    Check(warm[i].status(), "warm batch slot");
    CheckBitIdentical(cold[i].value(), expected[i], "cold vs uncached");
    CheckBitIdentical(warm[i].value(), expected[i], "warm vs uncached");
  }
  return timing;
}

/// Cold-cache throughput when the request stream arrives in EstimateBatch
/// calls of `batch_size` — the batched-GEMM payoff grows with the number
/// of distinct keys a single call can group per logical model.
double ColdQpsAtBatchSize(const core::CostEstimator& estimator,
                          const std::vector<serving::EstimateRequest>& reqs,
                          size_t batch_size) {
  serving::EstimationService service(&estimator, BenchServiceOptions(1));
  (void)service.EstimateBatch(reqs);  // untimed warm-up, see RunServicePasses
  std::span<const serving::EstimateRequest> all(reqs);
  double seconds = 0.0;
  for (int pass = 0; pass < kColdRepeats; ++pass) {
    service.InvalidateCache();
    auto start = std::chrono::steady_clock::now();
    for (size_t begin = 0; begin < all.size(); begin += batch_size) {
      const size_t len = std::min(batch_size, all.size() - begin);
      auto out = service.EstimateBatch(all.subspan(begin, len));
      Check(out.front().status(), "sweep batch slot");
    }
    seconds += SecondsSince(start);
  }
  return static_cast<double>(reqs.size()) * kColdRepeats / seconds;
}

/// Total warm-hit QPS of `threads` concurrent callers hammering the
/// single-request path of a shared pre-warmed service.
double WarmConcurrentQps(const serving::EstimationService& service,
                         const std::vector<serving::EstimateRequest>& reqs,
                         int threads, int passes) {
  ThreadPool pool(threads);
  std::atomic<bool> go{false};
  std::vector<std::future<void>> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.push_back(pool.Submit([&] {
      // Spin-release so all workers start hammering together instead of
      // staggering behind the pool's task-dispatch order.
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int pass = 0; pass < passes; ++pass) {
        for (const auto& req : reqs) {
          Check(service.Estimate(req).status(), "concurrent warm hit");
        }
      }
    }));
  }
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.get();
  const double seconds = SecondsSince(start);
  return static_cast<double>(threads) * passes * reqs.size() / seconds;
}

void Run() {
  auto hive = remote::HiveEngine::CreateDefault("hive", kSeed);
  core::CostEstimator estimator;
  RegisterHive(hive.get(), &estimator);
  auto requests = MakeRequests();

  // Reference answers for the bit-identity checks (untimed).
  std::vector<core::HybridEstimate> expected;
  expected.reserve(requests.size());
  for (const auto& req : requests) {
    expected.push_back(
        Unwrap(estimator.Estimate(req.system, req.op,
                                  core::EstimateContext::AtTime(req.now)),
               "uncached estimate"));
  }

  // Interleaved measurement for the gated jobs=1 numbers: within every
  // repetition an uncached slice, a cold-batch slice, and a warm-batch
  // slice run back to back, so slow clock drift (thermal ramp, VM
  // scheduling) cancels out of the speedup ratios instead of biasing them
  // toward whichever section ran last.
  serving::EstimationService cold_service(&estimator, BenchServiceOptions(1));
  serving::EstimationService warm_service(&estimator, BenchServiceOptions(1));
  (void)cold_service.EstimateBatch(requests);  // untimed warm-up
  {
    auto fill = warm_service.EstimateBatch(requests);
    for (auto& r : fill) Check(r.status(), "warm service fill");
  }
  double uncached_seconds = 0.0;
  PassTiming one;
  std::vector<Result<core::HybridEstimate>> cold;
  std::vector<Result<core::HybridEstimate>> warm;
  for (int rep = 0; rep < kColdRepeats; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (const auto& req : requests) {
      (void)Unwrap(estimator.Estimate(req.system, req.op,
                                      core::EstimateContext::AtTime(req.now)),
                   "uncached estimate");
    }
    uncached_seconds += SecondsSince(start);

    cold_service.InvalidateCache();
    start = std::chrono::steady_clock::now();
    cold = cold_service.EstimateBatch(requests);
    one.cold_seconds += SecondsSince(start);

    start = std::chrono::steady_clock::now();
    warm = warm_service.EstimateBatch(requests);
    one.warm_seconds += SecondsSince(start);
  }
  uncached_seconds /= kColdRepeats;
  one.cold_seconds /= kColdRepeats;
  one.warm_seconds /= kColdRepeats;
  for (size_t i = 0; i < requests.size(); ++i) {
    Check(cold[i].status(), "cold batch slot");
    Check(warm[i].status(), "warm batch slot");
    CheckBitIdentical(cold[i].value(), expected[i], "cold vs uncached");
    CheckBitIdentical(warm[i].value(), expected[i], "warm vs uncached");
  }

  PassTiming four = RunServicePasses(estimator, /*jobs=*/4, requests, expected);

  // Batch-size sweep: the same cold workload delivered in smaller
  // EstimateBatch calls (fewer distinct keys per model group).
  const std::vector<size_t> sweep_sizes = {120, 480, 1920};
  std::vector<double> sweep_qps;
  sweep_qps.reserve(sweep_sizes.size());
  for (size_t size : sweep_sizes) {
    sweep_qps.push_back(ColdQpsAtBatchSize(estimator, requests, size));
  }

  // Shared pre-warmed service for the lock-free sections: the concurrent
  // scaling measurement and the locked-probe counter gate. It has one
  // shard, so a lock taken on the hit path would be one lock for every
  // thread and the scaling gate could not miss it; a lock-free hit writes
  // no shard state, so the shard count does not change what it costs.
  serving::ServiceOptions warmed_options = BenchServiceOptions(1);
  warmed_options.cache.shards = 1;
  serving::EstimationService warmed(&estimator, warmed_options);
  {
    auto fill = warmed.EstimateBatch(requests);
    for (auto& r : fill) Check(r.status(), "warm fill slot");
  }
  const serving::CacheStats warm_before = warmed.cache_stats();
  const int hw = static_cast<int>(HardwareConcurrency());
  const int scale_threads = std::min(4, std::max(1, hw));
  // Each repetition times a 1-thread window and then an N-thread window
  // back to back, so host-speed drift cancels out of the pair's ratio.
  std::vector<double> single_qps;
  std::vector<double> multi_qps;
  std::vector<double> efficiencies;
  for (int rep = 0; rep < kScalingReps; ++rep) {
    single_qps.push_back(WarmConcurrentQps(warmed, requests, /*threads=*/1,
                                           kScalingPasses));
    multi_qps.push_back(WarmConcurrentQps(warmed, requests, scale_threads,
                                          kScalingPasses));
    efficiencies.push_back(multi_qps.back() /
                           (single_qps.back() * scale_threads));
  }
  const serving::CacheStats warm_after = warmed.cache_stats();

  // Every probe in the warm sections must have been answered by the
  // seqlock fast path: no Get may have fallen back to the shard mutex.
  const int64_t warm_locked_gets =
      warm_after.locked_gets - warm_before.locked_gets;
  if (warm_locked_gets != 0) {
    Check(Status::Internal("warm hits took the locked cache path"),
          "warm locked_gets == 0");
  }
  if (warm_after.lockless_hits <= warm_before.lockless_hits) {
    Check(Status::Internal("no lock-free hits recorded in the warm phase"),
          "warm lockless_hits > 0");
  }

  double n = static_cast<double>(kRequests);
  double uncached_qps = n / uncached_seconds;
  double cold1_qps = n / one.cold_seconds;
  double warm1_qps = n / one.warm_seconds;
  double cold_speedup = uncached_seconds / one.cold_seconds;
  double warm_speedup = uncached_seconds / one.warm_seconds;
  // Parallel efficiency of the concurrent warm-hit section; meaningful
  // only when the host actually has multiple cores to scale across.
  const double warm_single_qps = Median(single_qps);
  const double warm_multi_qps = Median(multi_qps);
  const double scaling_efficiency = Median(efficiencies);
  const auto [lowest_efficiency, highest_efficiency] =
      std::minmax_element(efficiencies.begin(), efficiencies.end());

  bench::Section("Serving throughput (n=1920 requests, 48 unique keys)");
  std::printf("uncached single calls:   %8.0f est/s\n", uncached_qps);
  std::printf("cold batch, jobs=1:      %8.0f est/s\n", cold1_qps);
  std::printf("warm batch, jobs=1:      %8.0f est/s\n", warm1_qps);
  std::printf("cold batch, jobs=4:      %8.0f est/s\n", n / four.cold_seconds);
  std::printf("warm batch, jobs=4:      %8.0f est/s\n", n / four.warm_seconds);
  for (size_t i = 0; i < sweep_sizes.size(); ++i) {
    std::printf("cold batch sweep, size %4zu: %8.0f est/s\n", sweep_sizes[i],
                sweep_qps[i]);
  }
  for (int rep = 0; rep < kScalingReps; ++rep) {
    std::printf("warm hits, rep %d: 1 thread %8.0f, %d threads %8.0f est/s "
                "(%.2f efficiency)\n",
                rep, single_qps[rep], scale_threads, multi_qps[rep],
                efficiencies[rep]);
  }
  std::printf("warm hits, 1 thread:     %8.0f est/s (median)\n",
              warm_single_qps);
  std::printf("warm hits, %d threads:    %8.0f est/s (median; %.2f median "
              "efficiency, range %.2f-%.2f, %d cores)\n",
              scale_threads, warm_multi_qps, scaling_efficiency,
              *lowest_efficiency, *highest_efficiency, hw);
  std::printf("cold speedup vs uncached: %.1fx (floor: %.0fx)\n", cold_speedup,
              kSpeedupFloor);
  std::printf("warm speedup vs uncached: %.1fx (floor: %.0fx)\n", warm_speedup,
              kSpeedupFloor);

  if (cold_speedup < kSpeedupFloor) {
    Check(Status::Internal("cold-batch speedup below the 5x floor"),
          "cold speedup");
  }
  if (warm_speedup < kSpeedupFloor) {
    Check(Status::Internal("warm-cache speedup below the 5x floor"),
          "warm speedup");
  }
  // Wait-free scaling gate, adaptive to the host: with real cores the
  // concurrent warm path must keep a median >= 50% parallel efficiency (a
  // mutex on the hit path collapses this to ~1/threads, and so does a
  // counter line every core writes); a single-core host can only check
  // that thread contention doesn't destroy throughput outright.
  if (hw > 1) {
    if (scaling_efficiency < kScalingFloor) {
      Check(Status::Internal("warm-hit path does not scale across cores"),
            "warm scaling efficiency");
    }
  } else if (warm_multi_qps < 0.4 * warm_single_qps) {
    Check(Status::Internal("warm-hit throughput collapsed under threads"),
          "warm no-collapse");
  }

  // One more instrumented service so the emitted metrics include the cache
  // counters of a cold-then-warm cycle.
  serving::EstimationService service(&estimator, BenchServiceOptions(1));
  auto stats_cold = service.EstimateBatch(requests);
  auto stats_warm = service.EstimateBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    Check(stats_cold[i].status(), "stats cold slot");
    Check(stats_warm[i].status(), "stats warm slot");
  }

  std::vector<BenchMetric> metrics;
  metrics.push_back({"serving.uncached_single_qps", uncached_qps, "est/s"});
  metrics.push_back({"serving.cold_batch_jobs1_qps", cold1_qps, "est/s"});
  metrics.push_back({"serving.warm_batch_jobs1_qps", warm1_qps, "est/s"});
  metrics.push_back({"serving.cold_batch_jobs4_qps", n / four.cold_seconds,
                     "est/s"});
  metrics.push_back({"serving.warm_batch_jobs4_qps", n / four.warm_seconds,
                     "est/s"});
  for (size_t i = 0; i < sweep_sizes.size(); ++i) {
    metrics.push_back({"serving.cold_batch_qps.bs" +
                           std::to_string(sweep_sizes[i]),
                       sweep_qps[i], "est/s"});
  }
  metrics.push_back({"serving.warm_hit_1thread_qps", warm_single_qps,
                     "est/s"});
  metrics.push_back({"serving.warm_hit_concurrent_qps", warm_multi_qps,
                     "est/s"});
  metrics.push_back({"serving.warm_hit_threads",
                     static_cast<double>(scale_threads), "count"});
  metrics.push_back({"serving.warm_hit_scaling_efficiency",
                     scaling_efficiency, "ratio",
                     hw > 1 ? kScalingFloor : 0.0});
  metrics.push_back({"serving.warm_hit_scaling_efficiency.min",
                     *lowest_efficiency, "ratio"});
  metrics.push_back({"serving.warm_hit_scaling_efficiency.max",
                     *highest_efficiency, "ratio"});
  metrics.push_back({"serving.cold_speedup_vs_uncached", cold_speedup, "x",
                     kSpeedupFloor});
  metrics.push_back({"serving.warm_speedup_vs_uncached", warm_speedup, "x",
                     kSpeedupFloor});
  metrics.push_back({"serving.warm_locked_gets",
                     static_cast<double>(warm_locked_gets), "count"});
  bench::AppendMetricsSnapshot(service.StatsSnapshot(), &metrics);
  Check(bench::WriteBenchJson("serving_throughput", kSeed, metrics),
        "write json");
}

}  // namespace
}  // namespace intellisphere

int main() {
  intellisphere::Run();
  return 0;
}
