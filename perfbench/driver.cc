// The repository benchmark: one closed-loop client drives a federation of
// two simulated remote engines (Hive-like and Spark-like) around the
// Teradata master through the public planning and serving APIs for a fixed
// wall time, checks every answer, and prints one JSON result line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads; their inputs derive from --seed, the federation does not:
//   plan-warm   re-plans a pool of 4-6 relation QuerySpecs whose remote
//               estimates are all cached, so the planner's own work
//               dominates. Every plan must reproduce its cold cost bit for
//               bit, and the timed loop must not miss the cache.
//   plan-churn  plans a fresh QuerySpec each time with continuous
//               selectivities and widths, so nearly every remote estimate
//               misses the cache and runs a cost model. The first plans
//               must reproduce bit for bit with the cache detached.
// Plans come from the repository's traffic model (traffic/generator.h):
// tenants are Zipf(1.1) over 8, and plan-warm draws its specs Zipf(1.1)
// over the pool.
//
// --trace 0 reports the end-to-end metrics: latency percentiles of whole
// plans (IntelliSphere::PlanQuery), planning regret and set-up time.
// Times are scaled to a nominal host: shared machines drift in speed by up
// to 2x over minutes, so the run times a fixed reference kernel throughout
// and scales every time it reports by the kernel's nominal over its
// measured duration (HostSpeed).
// --trace 1 runs the same plans with timers at each layer boundary the
// public API exposes and reports the per-plan split: plans go through
// fed::SearchPlan with costing and transfer callbacks that do what the
// facade's own callbacks do, remote batches through the facade's admission
// controller.
//
// Regret is the true cost (simulated execution on the engines) of the
// chosen plan over the true cost of the plan the same search picks when it
// is fed true costs; 1 means the estimates led to the best plan.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/estimate_context.h"
#include "core/hybrid.h"
#include "core/logical_op.h"
#include "core/sub_op.h"
#include "core/trainer.h"
#include "federation/intellisphere.h"
#include "federation/plan_search.h"
#include "relational/catalog.h"
#include "relational/query.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/admission.h"
#include "serving/service.h"
#include "traffic/generator.h"
#include "traffic/harness.h"
#include "util/rng.h"
#include "util/status.h"

namespace {

// Allocation counter for the traced run: every global operator new made
// while counting is on bumps g_allocs.
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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace intellisphere::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using traffic::Percentile;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

constexpr uint64_t kHiveSeed = 101;
constexpr uint64_t kSparkSeed = 202;
// Set-up runs several times per run and reports its median.
constexpr int kSetupRuns = 7;
// Plan-warm's regret averages over the whole pool; at this size its spread
// across seeds stays within a few percent.
constexpr int kWarmPoolSize = 216;
// Holds every key of the plan-warm pool, so its timed loop never misses;
// plan-churn fills it and evicts.
constexpr int64_t kCacheCapacity = int64_t{1} << 16;
// Plan-churn checks bit-identity and regret on its first plans.
constexpr size_t kChurnChecked = 216;
constexpr int kChurnWarmup = 8;

// HostSpeed times kProbeRuns reference kernels every kProbeSeconds of the
// timed loop and around every set-up; kNominalRefUs is the kernel's typical
// median on the 4-vCPU machine the bounds were measured on.
constexpr int kProbeRuns = 16;
constexpr double kProbeSeconds = 0.05;
constexpr double kNominalRefUs = 15.0;

int Below(Rng* rng, int n) {
  return static_cast<int>(rng->UniformInt(0, n - 1));
}

/// Measures how fast the host runs right now with a reference kernel that
/// uses none of the library: sorting a copy of a fixed 1024-element array,
/// which stays in the core's private caches.
class HostSpeed {
 public:
  HostSpeed() {
    uint64_t x = 88172645463325252ull;
    for (uint64_t& value : data_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      value = x;
    }
  }

  /// Times kProbeRuns kernels back to back; keeps and returns their median.
  double Probe() {
    std::vector<double> runs;
    for (int i = 0; i < kProbeRuns; ++i) {
      const Clock::time_point start = Clock::now();
      std::array<uint64_t, 1024> copy = data_;
      std::sort(copy.begin(), copy.end());
      sink_ = copy[copy.size() / 2];
      runs.push_back(MicrosSince(start));
    }
    probes_.push_back(Percentile(std::move(runs), 0.5));
    return probes_.back();
  }

  /// The median probe, in microseconds.
  double RefUs() const { return Percentile(probes_, 0.5); }

  /// Factor that scales a time measured in this run to the nominal host.
  double Scale() const { return kNominalRefUs / RefUs(); }

 private:
  std::array<uint64_t, 1024> data_;
  volatile uint64_t sink_ = 0;
  std::vector<double> probes_;
};

/// The repository's default traffic model (traffic/generator.h).
const traffic::TrafficOptions kTrafficModel{};

/// Work items and tenants drawn as the traffic model draws them: Zipf over
/// both, rank 0 the most popular.
class Traffic {
 public:
  Traffic(uint64_t seed, int items)
      : rng_(seed),
        items_(items, kTrafficModel.zipf_exponent),
        tenants_(kTrafficModel.tenants, kTrafficModel.zipf_exponent) {
    for (int t = 0; t < kTrafficModel.tenants; ++t) {
      tenant_names_.push_back("tenant" + std::to_string(t));
    }
  }

  int Item() { return items_.Sample(&rng_); }
  const std::string& Tenant() {
    return tenant_names_[static_cast<size_t>(tenants_.Sample(&rng_))];
  }

 private:
  Rng rng_;
  traffic::ZipfSampler items_;
  traffic::ZipfSampler tenants_;
  std::vector<std::string> tenant_names_;
};

struct TablePlacement {
  int64_t rows;
  int64_t row_bytes;
  const char* system;
};

// Ten tables over the three engines, spanning two orders of magnitude in
// size, so both moving data and the choice of engine matter.
const TablePlacement kTables[] = {
    {8000000, 250, "hive"},   {20000000, 100, "hive"},
    {1000000, 500, "hive"},   {400000, 40, "hive"},
    {2000000, 100, "spark"},  {4000000, 70, "spark"},
    {200000, 1000, "spark"},  {100000, 100, fed::kTeradataSystemName},
    {600000, 250, fed::kTeradataSystemName},
    {60000, 40, fed::kTeradataSystemName},
};
const int kNumTables = static_cast<int>(std::size(kTables));

std::string TableName(int index) {
  return rel::SyntheticTableName(kTables[index].rows,
                                 kTables[index].row_bytes);
}

// --- The system under test --------------------------------------------------

Result<core::SubOpCostEstimator> SubOpEstimatorFor(
    remote::SimulatedEngineBase* engine, double broadcast_factor) {
  core::CalibrationOptions options;
  options.record_sizes = {40, 250, 1000};
  options.record_counts = {1000000, 4000000};
  ISPHERE_ASSIGN_OR_RETURN(
      core::CalibrationRun run,
      core::CalibrateSubOps(engine, bench::InfoFor(*engine, broadcast_factor),
                            options));
  return core::SubOpCostEstimator::ForHive(std::move(run.catalog));
}

/// Hive costs aggregations with a trained logical-op network (the batched
/// forward pass and the out-of-range remedy) and everything else with
/// sub-op formulas; Spark uses formulas only. Both costing paths sit behind
/// the serving cache.
Result<core::CostingProfile> HiveProfile(remote::HiveEngine* engine) {
  ISPHERE_ASSIGN_OR_RETURN(
      core::SubOpCostEstimator sub_op,
      SubOpEstimatorFor(engine, engine->options().broadcast_threshold_factor));
  rel::AggWorkloadOptions grid;
  grid.record_counts = {400000, 2000000, 8000000};
  grid.record_sizes = {40, 100, 250};
  grid.num_aggregates = {1, 3};
  ISPHERE_ASSIGN_OR_RETURN(std::vector<rel::AggQuery> queries,
                           rel::GenerateAggWorkload(grid));
  ISPHERE_ASSIGN_OR_RETURN(core::TrainingRun training,
                           core::CollectAggTraining(engine, queries));
  core::LogicalOpOptions options;
  options.mlp.iterations = 2000;
  ISPHERE_ASSIGN_OR_RETURN(
      core::LogicalOpModel model,
      core::LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                  training.data, core::AggDimensionNames(),
                                  options));
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  models.emplace(rel::OperatorType::kAggregation, std::move(model));
  std::map<rel::OperatorType, core::CostingApproach> approaches;
  approaches.emplace(rel::OperatorType::kAggregation,
                     core::CostingApproach::kLogicalOp);
  return core::CostingProfile::PerOperator(
      std::move(sub_op), std::move(models), std::move(approaches));
}

/// The federation, its serving layer and its admission controller,
/// declared in dependency order so destruction runs back to front.
struct Federation {
  std::unique_ptr<fed::IntelliSphere> sphere;
  std::unique_ptr<serving::EstimationService> service;
  std::unique_ptr<serving::AdmissionController> admission;
};

Result<Federation> BuildFederation() {
  Federation f;
  f.sphere = std::make_unique<fed::IntelliSphere>();
  auto hive = remote::HiveEngine::CreateDefault("hive", kHiveSeed);
  remote::HiveEngine* hive_raw = hive.get();
  ISPHERE_ASSIGN_OR_RETURN(core::CostingProfile hive_profile,
                           HiveProfile(hive_raw));
  ISPHERE_RETURN_NOT_OK(f.sphere->RegisterRemoteSystem(
      std::move(hive), std::move(hive_profile), fed::ConnectorParams{}));
  auto spark = remote::SparkEngine::CreateDefault("spark", kSparkSeed);
  remote::SparkEngine* spark_raw = spark.get();
  ISPHERE_ASSIGN_OR_RETURN(
      core::SubOpCostEstimator spark_sub_op,
      SubOpEstimatorFor(spark_raw,
                        spark_raw->options().broadcast_threshold_factor));
  ISPHERE_RETURN_NOT_OK(f.sphere->RegisterRemoteSystem(
      std::move(spark),
      core::CostingProfile::SubOpOnly(std::move(spark_sub_op)),
      fed::ConnectorParams{}));
  for (const TablePlacement& t : kTables) {
    ISPHERE_ASSIGN_OR_RETURN(rel::TableDef def,
                             rel::SyntheticTableDef(t.rows, t.row_bytes));
    def.location = t.system;
    ISPHERE_RETURN_NOT_OK(f.sphere->RegisterTable(std::move(def)));
  }
  // One client: misses are computed on the caller's thread.
  serving::ServiceOptions service_options;
  service_options.jobs = 1;
  service_options.cache.capacity = kCacheCapacity;
  f.service = std::make_unique<serving::EstimationService>(
      &f.sphere->cost_estimator(), service_options);
  ISPHERE_RETURN_NOT_OK(f.sphere->AttachEstimationService(f.service.get()));
  // Admission at zero load: token buckets and queue far beyond what one
  // client offers, so every batch is served at full fidelity and plans stay
  // bit-identical to unadmitted ones.
  serving::AdmissionOptions admission_options;
  admission_options.tenant_rate = 1e12;
  admission_options.tenant_burst = 1e12;
  admission_options.max_queue = 1 << 30;
  ISPHERE_RETURN_NOT_OK(admission_options.Validate());
  f.admission = std::make_unique<serving::AdmissionController>(
      f.service.get(), admission_options);
  ISPHERE_RETURN_NOT_OK(
      f.sphere->AttachAdmissionController(f.admission.get()));
  return f;
}

/// Builds the federation kSetupRuns times, running `warm` on each build,
/// and keeps the last; reports the median time of build plus warm-up, each
/// scaled to the nominal host by the probes just before and after it.
template <typename Warm>
Result<Federation> SetUp(Warm&& warm, HostSpeed* speed, double* setup_s) {
  std::vector<double> seconds;
  Federation f;
  for (int run = 0; run < kSetupRuns; ++run) {
    f.admission.reset();
    f.service.reset();
    f.sphere.reset();
    const double ref_before_us = speed->Probe();
    const Clock::time_point start = Clock::now();
    ISPHERE_ASSIGN_OR_RETURN(f, BuildFederation());
    ISPHERE_RETURN_NOT_OK(warm(f));
    const double wall_s = MicrosSince(start) * 1e-6;
    const double ref_us = 0.5 * (ref_before_us + speed->Probe());
    seconds.push_back(wall_s * kNominalRefUs / ref_us);
  }
  *setup_s = Percentile(std::move(seconds), 0.5);
  return f;
}

/// A planning context for `tenant` on a deployment clock that advances one
/// second per plan, so the admission queue drains between plans.
core::EstimateContext PlanContext(double* clock, const std::string& tenant) {
  core::EstimateContext ctx;
  *clock += 1.0;
  ctx.now = *clock;
  ctx.tenant = tenant;
  return ctx;
}

// --- Workload inputs --------------------------------------------------------

enum class Shape { kChain, kStar, kCycle };

/// Spec `index` of a stream. The index alone fixes the search size: the
/// relation count, join-graph shape and engine rotation cycle through 4-6
/// relations x chain/star/cycle x three rotations (relation i lives on
/// engine (i + rotation) mod 3), two relations of each spec carry a filter
/// and every other spec aggregates. The seed picks the tables, join
/// columns, selectivities and widths. Churn specs draw selectivities and
/// widths from continuous ranges, so their operator statistics, and with
/// them the cache keys, do not repeat.
fed::QuerySpec MakeSpec(Rng* rng, int index, bool churn) {
  static const int64_t kWidths[] = {4, 8, 16, 32};
  static const double kFilters[] = {0.5, 0.2, 0.05};
  static const double kExtras[] = {1.0, 0.5, 0.25};
  static const char* const kJoinColumns[] = {"a1", "a1", "a2", "a5"};
  static const char* const kGroupColumns[] = {"a10", "a20", "a50", "a100"};
  static const std::string kSystems[] = {"hive", "spark",
                                         fed::kTeradataSystemName};

  const int n = 4 + index % 3;
  const Shape shape = static_cast<Shape>((index / 3) % 3);
  const int rotation = (index / 9) % 3;
  std::vector<int> by_system[3];
  for (int s = 0; s < 3; ++s) {
    for (int t = 0; t < kNumTables; ++t) {
      if (kSystems[s] == kTables[t].system) by_system[s].push_back(t);
    }
    for (int i = static_cast<int>(by_system[s].size()); i > 1; --i) {
      std::swap(by_system[s][i - 1], by_system[s][Below(rng, i)]);
    }
  }

  fed::QuerySpec spec;
  for (int i = 0; i < n; ++i) {
    fed::QuerySpec::Relation relation;
    relation.table = TableName(by_system[(i + rotation) % 3][i / 3]);
    relation.projected_bytes =
        churn ? 4 + Below(rng, 29) : kWidths[Below(rng, 4)];
    spec.relations.push_back(std::move(relation));
  }
  const int first = Below(rng, n);
  const int second = (first + 1 + Below(rng, n - 1)) % n;
  for (int i : {first, second}) {
    spec.relations[i].filter_selectivity =
        churn ? rng->Uniform(0.02, 0.9) : kFilters[Below(rng, 3)];
  }
  auto add_join = [&](int left, int right) {
    fed::QuerySpec::JoinPredicate join;
    join.left = left;
    join.right = right;
    join.column = kJoinColumns[Below(rng, 4)];
    join.extra_selectivity =
        churn ? rng->Uniform(0.05, 1.0) : kExtras[Below(rng, 3)];
    spec.joins.push_back(std::move(join));
  };
  for (int i = 1; i < n; ++i) {
    if (shape == Shape::kStar) {
      add_join(0, i);
    } else {
      add_join(i - 1, i);
    }
  }
  if (shape == Shape::kCycle) add_join(n - 1, 0);
  if (index % 2 == 0) {
    fed::QuerySpec::Aggregate aggregate;
    aggregate.relation = 0;
    aggregate.group_column = kGroupColumns[Below(rng, 4)];
    aggregate.num_aggregates = 1 + Below(rng, 3);
    spec.aggregate = std::move(aggregate);
  }
  spec.result_to_master = true;
  return spec;
}

// --- Regret -----------------------------------------------------------------

/// Exact byte image of an operator descriptor, for memoizing executions.
std::string OperatorKey(const std::string& system,
                        const rel::SqlOperator& op) {
  std::string key = system;
  key.push_back('\0');
  auto put = [&key](const auto& value) {
    key.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(static_cast<int>(op.type));
  switch (op.type) {
    case rel::OperatorType::kJoin:
      put(op.join.left.num_rows);
      put(op.join.left.row_bytes);
      put(op.join.right.num_rows);
      put(op.join.right.row_bytes);
      put(op.join.left_projected_bytes);
      put(op.join.right_projected_bytes);
      put(op.join.output_rows);
      put(op.join.is_equi_join);
      put(op.join.left_bucketed_on_key);
      put(op.join.right_bucketed_on_key);
      put(op.join.hot_key_fraction);
      break;
    case rel::OperatorType::kAggregation:
      put(op.agg.input.num_rows);
      put(op.agg.input.row_bytes);
      put(op.agg.output_rows);
      put(op.agg.output_row_bytes);
      put(op.agg.num_aggregates);
      break;
    case rel::OperatorType::kScan:
      put(op.scan.input.num_rows);
      put(op.scan.input.row_bytes);
      put(op.scan.selectivity);
      put(op.scan.projected_bytes);
      put(op.scan.output_rows);
      break;
  }
  return key;
}

/// True operator costs: simulated execution on the remote engines,
/// memoized so every plan of a run sees the same truth, and the master's
/// analytic model (the same one the planner uses) for Teradata.
class TrueCosts {
 public:
  explicit TrueCosts(const fed::IntelliSphere* sphere) : sphere_(sphere) {}

  Result<double> Seconds(const std::string& system,
                         const rel::SqlOperator& op) {
    if (system == fed::kTeradataSystemName) {
      return sphere_->local_model().EstimateSeconds(op);
    }
    std::string key = OperatorKey(system, op);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    Result<double> seconds = Execute(system, op);
    memo_.emplace(std::move(key), seconds);
    return seconds;
  }

 private:
  Result<double> Execute(const std::string& system,
                         const rel::SqlOperator& op) {
    ISPHERE_ASSIGN_OR_RETURN(remote::RemoteSystem * engine,
                             sphere_->GetSystem(system));
    ISPHERE_ASSIGN_OR_RETURN(remote::QueryResult result, engine->Execute(op));
    return result.elapsed_seconds;
  }

  const fed::IntelliSphere* sphere_;
  std::map<std::string, Result<double>> memo_;
};

/// A plan subtree summed twice: with the planner's operator estimates
/// (which must reproduce the subtree cost the planner reported) and with
/// true operator costs.
struct TreeCost {
  double estimated = 0.0;
  double truth = 0.0;
};

bool CloseTo(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

Result<TreeCost> CostSubtree(const fed::QueryPlan& plan, int index,
                             TrueCosts* truth) {
  if (index < 0 || index >= static_cast<int>(plan.nodes.size())) {
    return Status::Internal("plan node index out of range");
  }
  const fed::QueryPlanNode& node = plan.nodes[static_cast<size_t>(index)];
  TreeCost cost;
  for (int child : node.children) {
    ISPHERE_ASSIGN_OR_RETURN(TreeCost c, CostSubtree(plan, child, truth));
    cost.estimated += c.estimated;
    cost.truth += c.truth;
  }
  cost.estimated += node.transfer_seconds + node.operator_seconds;
  cost.truth += node.transfer_seconds;
  if (node.kind != fed::QueryPlanNode::Kind::kTable) {
    ISPHERE_ASSIGN_OR_RETURN(double seconds,
                             truth->Seconds(node.system, node.op));
    cost.truth += seconds;
  }
  if (!CloseTo(cost.estimated, node.subtree_seconds)) {
    return Status::Internal("plan subtree does not add up to its cost");
  }
  return cost;
}

/// Resolves a spec's tables the way PlanQuery does.
Result<fed::PlanSearchInput> SearchInput(const fed::IntelliSphere& sphere,
                                         const fed::QuerySpec& spec) {
  fed::PlanSearchInput input;
  input.spec = &spec;
  input.master = fed::kTeradataSystemName;
  for (const fed::QuerySpec::Relation& relation : spec.relations) {
    ISPHERE_ASSIGN_OR_RETURN(rel::TableDef def,
                             sphere.GetTable(relation.table));
    input.tables.push_back(std::move(def));
  }
  return input;
}

/// Chosen plan's true cost over the true cost of the plan the same search
/// picks from true operator costs.
Result<double> PlanRegret(fed::IntelliSphere& sphere,
                          const fed::QuerySpec& spec,
                          const fed::QueryPlan& chosen, TrueCosts* truth) {
  ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlanCandidate best, chosen.best());
  ISPHERE_ASSIGN_OR_RETURN(TreeCost cost,
                           CostSubtree(chosen, best.root, truth));
  if (!CloseTo(cost.estimated + best.result_transfer_seconds,
               best.total_seconds)) {
    return Status::Internal("chosen plan does not add up to its cost");
  }

  ISPHERE_ASSIGN_OR_RETURN(fed::PlanSearchInput input,
                           SearchInput(sphere, spec));
  input.cost = [truth](const std::vector<fed::PlanCostRequest>& requests,
                       const core::EstimateContext&) {
    std::vector<Result<core::HybridEstimate>> out;
    out.reserve(requests.size());
    for (const fed::PlanCostRequest& request : requests) {
      Result<double> seconds = truth->Seconds(request.system, request.op);
      if (!seconds.ok()) {
        out.emplace_back(seconds.status());
        continue;
      }
      core::HybridEstimate est;
      est.seconds = seconds.value();
      out.emplace_back(std::move(est));
    }
    return out;
  };
  input.transfer = [&sphere](const std::string& from, const std::string& to,
                             int64_t rows, int64_t row_bytes) {
    return sphere.query_grid().RelaySeconds(from, to, rows, row_bytes);
  };
  ISPHERE_ASSIGN_OR_RETURN(
      fed::QueryPlan oracle,
      fed::SearchPlan(input, fed::PlannerOptions{}, core::EstimateContext{}));
  ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlanCandidate oracle_best,
                           oracle.best());
  if (!(oracle_best.total_seconds > 0.0)) {
    return Status::Internal("oracle plan has no cost");
  }
  return (cost.truth + best.result_transfer_seconds) /
         oracle_best.total_seconds;
}

// --- The traced split -------------------------------------------------------

/// Layer totals over a traced run, in microseconds and counts.
struct Layers {
  double search_us = 0.0;  ///< planner self time
  double cost_fn_us = 0.0;  ///< whole costing callback
  double serve_us = 0.0;  ///< admission and serving of remote batches
  double local_model_us = 0.0;
  double transfer_us = 0.0;
  int64_t cost_batches = 0;
  int64_t estimates = 0;  ///< remote estimate requests
  int64_t candidates_costed = 0;
  int64_t dp_entries = 0;
};

/// Plans `spec` through fed::SearchPlan with the facade's costing and
/// transfer callbacks rebuilt here and timed at each layer boundary: the
/// master's local model, the admission controller in front of the serving
/// layer (admission, cache key, probe and, on a miss, the cost model), the
/// rest of the costing callback (batch dispatch) and QueryGrid transfer
/// costing.
Result<fed::QueryPlan> TracedPlan(Federation& f, const fed::QuerySpec& spec,
                                  const core::EstimateContext& ctx,
                                  Layers* layers) {
  ISPHERE_ASSIGN_OR_RETURN(fed::PlanSearchInput input,
                           SearchInput(*f.sphere, spec));
  input.cost = [&f, layers](const std::vector<fed::PlanCostRequest>& requests,
                            const core::EstimateContext& batch_ctx) {
    const Clock::time_point start = Clock::now();
    std::vector<Result<core::HybridEstimate>> out(
        requests.size(),
        Result<core::HybridEstimate>(Status::Internal("request not costed")));
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].system != fed::kTeradataSystemName) continue;
      Result<double> seconds =
          f.sphere->local_model().EstimateSeconds(requests[i].op);
      if (!seconds.ok()) {
        out[i] = seconds.status();
        continue;
      }
      core::HybridEstimate est;
      est.seconds = seconds.value();
      out[i] = std::move(est);
    }
    layers->local_model_us += MicrosSince(start);

    std::vector<serving::EstimateRequest> remote;
    std::vector<size_t> positions;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].system == fed::kTeradataSystemName) continue;
      serving::EstimateRequest request;
      request.system = requests[i].system;
      request.op = requests[i].op;
      request.now = batch_ctx.now;
      request.policy_override = batch_ctx.policy_override;
      remote.push_back(std::move(request));
      positions.push_back(i);
    }
    if (!remote.empty()) {
      const Clock::time_point serve_start = Clock::now();
      std::vector<Result<core::HybridEstimate>> results =
          f.admission->EstimateBatch(remote, batch_ctx);
      layers->serve_us += MicrosSince(serve_start);
      layers->estimates += static_cast<int64_t>(remote.size());
      for (size_t j = 0; j < positions.size() && j < results.size(); ++j) {
        out[positions[j]] = std::move(results[j]);
      }
    }
    ++layers->cost_batches;
    layers->cost_fn_us += MicrosSince(start);
    return out;
  };
  input.transfer = [&f, layers](const std::string& from, const std::string& to,
                                int64_t rows, int64_t row_bytes) {
    const Clock::time_point start = Clock::now();
    Result<double> seconds =
        f.sphere->query_grid().RelaySeconds(from, to, rows, row_bytes);
    layers->transfer_us += MicrosSince(start);
    return seconds;
  };
  return fed::SearchPlan(input, fed::PlannerOptions{}, ctx);
}

// --- Results ----------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  double ref_us = 0.0;  ///< HostSpeed::RefUs of the run
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void StartCountingAllocations(bool on) {
  g_allocs.store(0);
  g_count_allocs.store(on);
}

int64_t StopCountingAllocations() {
  g_count_allocs.store(false);
  return g_allocs.load();
}

/// End-to-end metrics, latencies scaled to the nominal host (SetUp scales
/// `setup_s` itself).
std::vector<Metric> EndToEnd(const std::vector<double>& latencies_us,
                             double regret, double setup_s,
                             const HostSpeed& speed) {
  const double scale = speed.Scale();
  return {{"latency_p50_us", Percentile(latencies_us, 0.50) * scale, "us"},
          {"latency_p90_us", Percentile(latencies_us, 0.90) * scale, "us"},
          {"regret", regret, "x"},
          {"setup_s", setup_s, "s"}};
}

/// Layer metrics per measured plan, times scaled to the nominal host.
std::vector<Metric> PerLayer(const std::vector<double>& latencies_us,
                             const Layers& l,
                             const serving::CacheStats& before,
                             const serving::CacheStats& after,
                             int64_t allocs, const HostSpeed& speed) {
  const double n = std::max(static_cast<double>(latencies_us.size()), 1.0);
  const double per_plan = speed.Scale() / n;  // scaled total -> per plan
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double evictions =
      static_cast<double>(after.evictions - before.evictions);
  return {
      {"traced_p50_us",
       Percentile(latencies_us, 0.50) * speed.Scale(), "us"},
      {"search_us", l.search_us * per_plan, "us"},
      {"dispatch_us",
       (l.cost_fn_us - l.local_model_us - l.serve_us) * per_plan, "us"},
      {"serve_us", l.serve_us * per_plan, "us"},
      {"local_model_us", l.local_model_us * per_plan, "us"},
      {"transfer_us", l.transfer_us * per_plan, "us"},
      {"cost_batches", static_cast<double>(l.cost_batches) / n, "count"},
      {"estimates", static_cast<double>(l.estimates) / n, "count"},
      {"cache_hits", hits / n, "count"},
      {"cache_misses", misses / n, "count"},
      {"cache_hit_rate", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
       "fraction"},
      {"cache_evictions", evictions / n, "count"},
      {"candidates_costed", static_cast<double>(l.candidates_costed) / n,
       "count"},
      {"dp_entries", static_cast<double>(l.dp_entries) / n, "count"},
      {"allocs", static_cast<double>(allocs) / n, "count"},
  };
}

bool SameBest(const Result<fed::QueryPlan>& plan, double expected) {
  if (!plan.ok()) return false;
  Result<fed::QueryPlanCandidate> best = plan.value().best();
  return best.ok() && best.value().total_seconds == expected;
}

/// The plan-warm loop must be served from the cache alone: one failure
/// when it missed or evicted.
int64_t ColdServes(const serving::CacheStats& before,
                   const serving::CacheStats& after) {
  const int64_t misses = after.misses - before.misses;
  const int64_t evictions = after.evictions - before.evictions;
  if (misses == 0 && evictions == 0) return 0;
  std::fprintf(stderr,
               "perfbench: warm loop missed the cache %lld times and evicted "
               "%lld entries\n",
               static_cast<long long>(misses),
               static_cast<long long>(evictions));
  return 1;
}

// --- Workloads --------------------------------------------------------------

/// Closed-loop planning over `next_spec` until the deadline. Each plan goes
/// through PlanQuery, or through TracedPlan when tracing, for a tenant
/// drawn from `traffic`; `check` decides whether the plan is correct and
/// may keep it. The host is probed between plans.
template <typename NextSpec, typename Check>
void PlanLoop(Federation& f, const Args& args, Traffic* traffic,
              double* clock, NextSpec&& next_spec, Check&& check,
              Outcome* out, std::vector<double>* latencies_us,
              Layers* layers, HostSpeed* speed) {
  const Clock::time_point deadline = DeadlineAfter(args.seconds);
  Clock::time_point next_probe = Clock::now();
  while (Clock::now() < deadline) {
    if (Clock::now() >= next_probe) {
      speed->Probe();
      next_probe = DeadlineAfter(kProbeSeconds);
    }
    const fed::QuerySpec& spec = next_spec();
    const core::EstimateContext ctx = PlanContext(clock, traffic->Tenant());
    const Layers before = *layers;
    const Clock::time_point start = Clock::now();
    Result<fed::QueryPlan> plan = args.trace
                                      ? TracedPlan(f, spec, ctx, layers)
                                      : f.sphere->PlanQuery(spec, ctx);
    const double us = MicrosSince(start);
    ++out->attempted;
    const int64_t costed = plan.ok() ? plan.value().candidates_costed : 0;
    const int64_t entries = plan.ok() ? plan.value().dp_entries : 0;
    if (!check(&plan)) {
      ++out->failed;
      continue;
    }
    latencies_us->push_back(us);
    if (args.trace) {
      layers->search_us += us - (layers->cost_fn_us - before.cost_fn_us) -
                           (layers->transfer_us - before.transfer_us);
      layers->candidates_costed += costed;
      layers->dp_entries += entries;
    }
  }
}

Result<Outcome> RunPlanWarm(const Args& args) {
  Rng rng(args.seed);
  std::vector<fed::QuerySpec> pool;
  for (int i = 0; i < kWarmPoolSize; ++i) {
    pool.push_back(MakeSpec(&rng, i, /*churn=*/false));
  }
  std::vector<double> cold_totals(pool.size());
  double clock = 0.0;
  const std::string setup_tenant = "setup";
  auto warm = [&](Federation& federation) -> Status {
    clock = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
      ISPHERE_ASSIGN_OR_RETURN(
          fed::QueryPlan plan,
          federation.sphere->PlanQuery(pool[i],
                                       PlanContext(&clock, setup_tenant)));
      ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlanCandidate best, plan.best());
      cold_totals[i] = best.total_seconds;
    }
    return Status::OK();
  };
  HostSpeed speed;
  double setup_s = 0.0;
  ISPHERE_ASSIGN_OR_RETURN(Federation f, SetUp(warm, &speed, &setup_s));

  Outcome out;
  std::vector<double> latencies_us;
  Layers layers;
  Traffic traffic(args.seed + 1, kWarmPoolSize);
  size_t current = 0;
  auto next_spec = [&]() -> const fed::QuerySpec& {
    current = static_cast<size_t>(traffic.Item());
    return pool[current];
  };
  auto check = [&](Result<fed::QueryPlan>* plan) {
    return SameBest(*plan, cold_totals[current]);
  };
  const serving::CacheStats cache_before = f.service->cache_stats();
  StartCountingAllocations(args.trace);
  PlanLoop(f, args, &traffic, &clock, next_spec, check, &out, &latencies_us,
           &layers, &speed);
  out.ref_us = speed.RefUs();
  const int64_t allocs = StopCountingAllocations();
  const serving::CacheStats cache_after = f.service->cache_stats();
  out.failed += ColdServes(cache_before, cache_after);

  if (args.trace) {
    out.metrics = PerLayer(latencies_us, layers, cache_before, cache_after,
                           allocs, speed);
    return out;
  }
  TrueCosts truth(f.sphere.get());
  double regret_sum = 0.0;
  for (const fed::QuerySpec& spec : pool) {
    ISPHERE_ASSIGN_OR_RETURN(
        fed::QueryPlan plan,
        f.sphere->PlanQuery(spec, PlanContext(&clock, setup_tenant)));
    ISPHERE_ASSIGN_OR_RETURN(double regret,
                             PlanRegret(*f.sphere, spec, plan, &truth));
    regret_sum += regret;
  }
  out.metrics = EndToEnd(latencies_us,
                         regret_sum / static_cast<double>(pool.size()),
                         setup_s, speed);
  return out;
}

Result<Outcome> RunPlanChurn(const Args& args) {
  double clock = 0.0;
  const std::string setup_tenant = "setup";
  auto warm = [&](Federation& federation) -> Status {
    clock = 0.0;
    Rng warm_rng(args.seed + 2);
    for (int j = 0; j < kChurnWarmup; ++j) {
      const fed::QuerySpec spec = MakeSpec(&warm_rng, j, /*churn=*/true);
      ISPHERE_RETURN_NOT_OK(
          federation.sphere->PlanQuery(spec, PlanContext(&clock, setup_tenant))
              .status());
    }
    return Status::OK();
  };
  HostSpeed speed;
  double setup_s = 0.0;
  ISPHERE_ASSIGN_OR_RETURN(Federation f, SetUp(warm, &speed, &setup_s));

  Outcome out;
  std::vector<double> latencies_us;
  Layers layers;
  Rng rng(args.seed);
  Traffic traffic(args.seed + 1, /*items=*/1);  // tenants only
  int index = 0;
  fed::QuerySpec spec;
  std::vector<fed::QuerySpec> checked_specs;
  std::vector<fed::QueryPlan> checked_plans;
  auto next_spec = [&]() -> const fed::QuerySpec& {
    spec = MakeSpec(&rng, index++, /*churn=*/true);
    return spec;
  };
  auto check = [&](Result<fed::QueryPlan>* plan) {
    if (!plan->ok() || !plan->value().best().ok()) return false;
    if (checked_plans.size() < kChurnChecked) {
      checked_specs.push_back(spec);
      checked_plans.push_back(std::move(*plan).value());
    }
    return true;
  };
  const serving::CacheStats cache_before = f.service->cache_stats();
  StartCountingAllocations(args.trace);
  PlanLoop(f, args, &traffic, &clock, next_spec, check, &out, &latencies_us,
           &layers, &speed);
  out.ref_us = speed.RefUs();
  const int64_t allocs = StopCountingAllocations();
  const serving::CacheStats cache_after = f.service->cache_stats();

  // With the serving layer detached the facade costs through the estimator
  // directly: the cached (or traced) plans must match it bit for bit.
  ISPHERE_RETURN_NOT_OK(f.sphere->AttachAdmissionController(nullptr));
  ISPHERE_RETURN_NOT_OK(f.sphere->AttachEstimationService(nullptr));
  for (size_t k = 0; k < checked_plans.size(); ++k) {
    ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlanCandidate best,
                             checked_plans[k].best());
    if (!SameBest(f.sphere->PlanQuery(checked_specs[k],
                                      PlanContext(&clock, setup_tenant)),
                  best.total_seconds)) {
      ++out.failed;
    }
  }

  if (args.trace) {
    out.metrics = PerLayer(latencies_us, layers, cache_before, cache_after,
                           allocs, speed);
    return out;
  }
  if (checked_plans.empty()) return Status::Internal("no plan completed");
  TrueCosts truth(f.sphere.get());
  double regret_sum = 0.0;
  for (size_t k = 0; k < checked_plans.size(); ++k) {
    ISPHERE_ASSIGN_OR_RETURN(
        double regret,
        PlanRegret(*f.sphere, checked_specs[k], checked_plans[k], &truth));
    regret_sum += regret;
  }
  out.metrics = EndToEnd(
      latencies_us, regret_sum / static_cast<double>(checked_plans.size()),
      setup_s, speed);
  return out;
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(std::strtoll(value, &end, 10));
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0.0 &&
                     args.seconds <= 120.0;
    } else if (flag == "--trace") {
      const std::string trace = value;
      if (trace != "0" && trace != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      args.trace = trace == "1";
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return Status::InvalidArgument(
        "usage: perfbench_driver --workload <plan-warm|plan-churn> "
        "--seed <n> --seconds <0-120> [--trace <0|1>]");
  }
  return args;
}

Result<Outcome> Run(const Args& args) {
  if (args.workload == "plan-warm") return RunPlanWarm(args);
  if (args.workload == "plan-churn") return RunPlanChurn(args);
  return Status::InvalidArgument("unknown workload " + args.workload);
}

/// The result line: {"correct", "attempted", "failed", "metrics"}. A value
/// that is not finite is written as -1 and makes the run incorrect.
void PrintResult(const Outcome& out) {
  bool finite = true;
  std::string metrics;
  for (const Metric& m : out.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      finite = false;
      value = -1.0;
    }
    char entry[192];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += entry;
  }
  const bool correct = finite && out.failed == 0 && out.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), metrics.c_str());
}

}  // namespace
}  // namespace intellisphere::perfbench

int main(int argc, char** argv) {
  using namespace intellisphere::perfbench;  // NOLINT
  intellisphere::Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  intellisphere::Result<Outcome> out = Run(args.value());
  if (!out.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", out.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "perfbench: %s attempted=%lld failed=%lld ref_us=%.4f\n",
               args.value().workload.c_str(),
               static_cast<long long>(out.value().attempted),
               static_cast<long long>(out.value().failed),
               out.value().ref_us);
  PrintResult(out.value());
  return 0;
}
