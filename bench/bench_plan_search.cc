// Plan-search throughput harness: measures end-to-end PlanQuery latency
// for four-relation specs (join chain + GROUP BY across three engines)
// with the DP's batched costing routed through the serving layer.
//
//  * A cold pass plans kSpecs distinct specs and populates the
//    EstimationService cache (every remote (operator, system) placement is
//    a distinct key). The service computes misses inline (jobs = 1), so no
//    worker pool starts inside the timed window.
//  * Warm passes re-plan the same specs: the DP emits the same batches, so
//    every remote estimate answers from the cache. The measured cache-hit
//    fraction must be nonzero (hard floor 0.5 — warm passes dominate), and
//    warm planning must reproduce the cold totals bit for bit (the serving
//    layer's bit-identity contract, checked here end to end).
//
// Emits BENCH_plan_search.json for CI trending; the hit-fraction metric
// carries its floor in the "baseline" field, enforced (with warn-only
// drift checks against bench/baselines/) by
// scripts/check_bench_regression.py. A replaced global operator new counts
// the allocations of the cold pass, where every remote estimate misses and
// is inserted (plan_search.cold_allocs_per_plan), and of the warm passes
// (plan_search.warm_allocs_per_plan).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/estimate_context.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/service.h"

namespace {

// Allocation counter for the cold and warm passes: every global operator
// new (plain or over-aligned) made while counting is on bumps g_allocs.
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_allocs{0};

}  // namespace

// The replacement operator new allocates with malloc, so free is the
// matching release; GCC cannot see that once the calls are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace intellisphere {
namespace {

using bench::BenchMetric;
using bench::Check;
using bench::Unwrap;

constexpr uint64_t kSeed = 7575;
/// Distinct specs the cold pass plans: enough that its window is tens of
/// milliseconds rather than a few plans' worth.
constexpr int kSpecs = 192;
constexpr int kWarmPasses = 20;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

core::CostingProfile ProfileFor(remote::SimulatedEngineBase* engine,
                                double broadcast_factor) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = Unwrap(
      core::CalibrateSubOps(engine,
                            bench::InfoFor(*engine, broadcast_factor), copts),
      "calibration");
  return core::CostingProfile::SubOpOnly(Unwrap(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)), "sub-op"));
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

/// The measured workload: kSpecs four-relation specs differing in the
/// first relation's projection width, the third relation's filter, join
/// selectivity and aggregate count. Every operator of a spec touches the
/// first or the third relation, so each spec's operators are its own: the
/// cold pass misses on every remote placement, while warm passes replay
/// the specs exactly.
std::vector<fed::QuerySpec> Workload() {
  std::vector<fed::QuerySpec> specs;
  for (int variant = 0; variant < kSpecs; ++variant) {
    fed::QuerySpec spec;
    spec.relations = {{"T8000000_250", 1.0, 32 + variant},
                      {"T2000000_100", 1.0, 24},
                      {"T500000_40", 1.0 - (variant + 1) / 1024.0, 16},
                      {"T100000_100", 1.0, 8}};
    spec.joins = {{0, 1, "a1", (variant / 16) % 2 == 0 ? 0.5 : 1.0},
                  {1, 2, "a10", 1.0},
                  {2, 3, "a5", 1.0}};
    spec.aggregate =
        fed::QuerySpec::Aggregate{0, "a100", 1 + (variant / 32) % 2};
    spec.result_to_master = true;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace
}  // namespace intellisphere

int main() {
  using namespace intellisphere;  // NOLINT

  fed::IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", kSeed);
  auto* hive_raw = hive.get();
  bench::Check(
      sphere.RegisterRemoteSystem(
          std::move(hive),
          ProfileFor(hive_raw,
                     hive_raw->options().broadcast_threshold_factor),
          fed::ConnectorParams{}),
      "register hive");
  auto spark = remote::SparkEngine::CreateDefault("spark", kSeed + 1);
  auto* spark_raw = spark.get();
  bench::Check(
      sphere.RegisterRemoteSystem(
          std::move(spark),
          ProfileFor(spark_raw,
                     spark_raw->options().broadcast_threshold_factor),
          fed::ConnectorParams{}),
      "register spark");
  RegisterTables(&sphere);

  // Misses are computed inline, as perfbench does; the cache holds every
  // key of the workload, so warm passes never miss.
  serving::ServiceOptions service_options;
  service_options.jobs = 1;
  service_options.cache.capacity = 16384;
  serving::EstimationService service(&sphere.cost_estimator(),
                                     service_options);
  bench::Check(sphere.AttachEstimationService(&service), "attach serving");

  const std::vector<fed::QuerySpec> specs = Workload();

  bench::Section("plan-search throughput (4-relation specs)");

  // Cold pass: every remote placement is a cache miss.
  std::vector<double> cold_totals;
  cold_totals.reserve(specs.size());
  g_allocs.store(0);
  g_count_allocs.store(true);
  auto cold_start = std::chrono::steady_clock::now();
  for (const fed::QuerySpec& spec : specs) {
    fed::QueryPlan plan = bench::Unwrap(sphere.PlanQuery(spec), "cold plan");
    cold_totals.push_back(
        bench::Unwrap(plan.best(), "cold best").total_seconds);
  }
  const double cold_seconds = SecondsSince(cold_start);
  g_count_allocs.store(false);
  const double cold_allocs_per_plan =
      static_cast<double>(g_allocs.load()) / static_cast<double>(specs.size());
  const serving::CacheStats cold_stats = service.cache_stats();

  // Warm passes: the DP re-emits the same batches; the cache answers.
  int64_t candidates_costed = 0;
  int64_t dp_entries = 0;
  g_allocs.store(0);
  g_count_allocs.store(true);
  auto warm_start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    for (size_t i = 0; i < specs.size(); ++i) {
      fed::QueryPlan plan =
          bench::Unwrap(sphere.PlanQuery(specs[i]), "warm plan");
      const double total =
          bench::Unwrap(plan.best(), "warm best").total_seconds;
      if (total != cold_totals[i]) {
        std::fprintf(stderr,
                     "FATAL: warm plan total %.17g != cold total %.17g "
                     "(spec %zu) — cached planning must be bit-identical\n",
                     total, cold_totals[i], i);
        return 1;
      }
      candidates_costed += plan.candidates_costed;
      dp_entries += plan.dp_entries;
    }
  }
  const double warm_seconds = SecondsSince(warm_start);
  g_count_allocs.store(false);
  const serving::CacheStats stats = service.cache_stats();

  const int warm_plans = kWarmPasses * static_cast<int>(specs.size());
  const double cold_plans_per_s =
      static_cast<double>(specs.size()) / cold_seconds;
  const double warm_plans_per_s = warm_plans / warm_seconds;
  const double warm_allocs_per_plan =
      static_cast<double>(g_allocs.load()) / warm_plans;
  const int64_t warm_hits = stats.hits - cold_stats.hits;
  const int64_t warm_misses = stats.misses - cold_stats.misses;
  const double warm_hit_fraction =
      warm_hits + warm_misses > 0
          ? static_cast<double>(warm_hits) / (warm_hits + warm_misses)
          : 0.0;

  std::printf("cold: %zu plans in %.4fs (%.1f plans/s, %.1f allocs/plan)\n",
              specs.size(), cold_seconds, cold_plans_per_s,
              cold_allocs_per_plan);
  std::printf("warm: %d plans in %.4fs (%.1f plans/s)\n", warm_plans,
              warm_seconds, warm_plans_per_s);
  std::printf("warm cache: hits=%lld misses=%lld hit_fraction=%.4f\n",
              static_cast<long long>(warm_hits),
              static_cast<long long>(warm_misses), warm_hit_fraction);
  std::printf("per plan: candidates_costed=%.1f dp_entries=%.1f "
              "warm_allocs=%.1f\n",
              static_cast<double>(candidates_costed) / warm_plans,
              static_cast<double>(dp_entries) / warm_plans,
              warm_allocs_per_plan);

  // The DP routes every remote costing through EstimateBatch: warm passes
  // must hit the cache. A zero hit fraction means the search stopped using
  // the serving layer — a wiring regression, not a perf blip.
  if (warm_hit_fraction < 0.5) {
    std::fprintf(stderr,
                 "FATAL: warm cache-hit fraction %.4f below floor 0.5\n",
                 warm_hit_fraction);
    return 1;
  }

  std::vector<bench::BenchMetric> metrics;
  metrics.push_back({"plan_search.cold_plans_per_s", cold_plans_per_s,
                     "plans/s"});
  metrics.push_back({"plan_search.warm_plans_per_s", warm_plans_per_s,
                     "plans/s"});
  metrics.push_back({"plan_search.warm_hit_fraction", warm_hit_fraction, "x",
                     0.5});
  metrics.push_back({"plan_search.candidates_costed_per_plan",
                     static_cast<double>(candidates_costed) / warm_plans,
                     "candidates"});
  metrics.push_back({"plan_search.dp_entries_per_plan",
                     static_cast<double>(dp_entries) / warm_plans,
                     "entries"});
  metrics.push_back(
      {"plan_search.cold_allocs_per_plan", cold_allocs_per_plan, "allocs"});
  metrics.push_back(
      {"plan_search.warm_allocs_per_plan", warm_allocs_per_plan, "allocs"});
  bench::Check(bench::WriteBenchJson("plan_search", kSeed, metrics),
               "write json");
  return 0;
}
