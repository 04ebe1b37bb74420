// Ablation: the choice policy among applicable physical algorithms
// (Section 4 "Usage": worst-case / average / in-house-comparable). For
// joins where several algorithms survive the applicability rules (bucketed
// inputs), each policy's estimate is compared against the engine's actual
// execution, and the in-house policy's predicted algorithm is compared
// with the engine planner's actual choice.

#include "bench/bench_common.h"
#include "core/formulas.h"
#include "core/sub_op.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"

namespace intellisphere {
namespace {

using bench::InfoFor;
using bench::PrintFit;
using bench::Section;
using bench::Unwrap;

void Run() {
  auto hive = remote::HiveEngine::CreateDefault("hive", 1601);
  auto cal = Unwrap(
      core::CalibrateSubOps(
          hive.get(), InfoFor(*hive, hive->options().broadcast_threshold_factor),
          core::CalibrationOptions{}),
      "calibration");

  // Bucketed large joins: shuffle, bucket-map, and sort-merge-bucket all
  // survive the applicability rules.
  std::vector<rel::JoinQuery> queries;
  for (int64_t lrows : {4000000LL, 8000000LL, 20000000LL, 40000000LL}) {
    for (int64_t srows : {lrows / 2, lrows}) {
      for (int64_t bytes : {250LL, 500LL, 1000LL}) {
        auto l = Unwrap(rel::SyntheticTableDef(lrows, bytes), "table");
        auto s = Unwrap(rel::SyntheticTableDef(srows, bytes), "table");
        auto q = Unwrap(rel::MakeJoinQuery(l, s, 32, 32, 0.5), "query");
        q.left_bucketed_on_key = true;
        q.right_bucketed_on_key = true;
        queries.push_back(q);
      }
    }
  }

  Section("Ablation: choice policy vs actual engine execution");
  std::vector<double> actual;
  std::map<core::ChoicePolicy, std::vector<double>> per_policy;
  int algorithm_agreement = 0;
  auto est = Unwrap(core::SubOpCostEstimator::ForHive(cal.catalog),
                    "estimator");
  for (const auto& q : queries) {
    auto result = Unwrap(hive->ExecuteJoin(q), "execute");
    actual.push_back(result.elapsed_seconds);
    for (core::ChoicePolicy policy :
         {core::ChoicePolicy::kWorstCase, core::ChoicePolicy::kAverage,
          core::ChoicePolicy::kInHouseComparable}) {
      est.set_policy(policy);
      auto se = Unwrap(est.EstimateJoin(q), "estimate");
      per_policy[policy].push_back(se.seconds);
      if (policy == core::ChoicePolicy::kInHouseComparable &&
          se.chosen_algorithm == result.physical_algorithm) {
        ++algorithm_agreement;
      }
    }
  }
  for (const auto& [policy, preds] : per_policy) {
    PrintFit(core::ChoicePolicyName(policy), actual, preds);
  }
  std::printf(
      "in-house policy predicted the engine's physical algorithm for "
      "%d/%zu queries\n",
      algorithm_agreement, queries.size());

  Section("Ablation: candidate spread per query (first 5 queries)");
  CsvTable t({"query", "algorithm", "estimate_seconds"});
  est.set_policy(core::ChoicePolicy::kWorstCase);
  // Only a provenance estimate lists its candidates.
  core::EstimateContext provenance;
  provenance.detail = core::EstimateDetail::kProvenance;
  for (size_t i = 0; i < 5 && i < queries.size(); ++i) {
    auto se = Unwrap(est.EstimateJoin(queries[i], provenance), "estimate");
    for (const auto& c : se.candidates) {
      t.AddTextRow({FormatNumber(static_cast<double>(i)), c.algorithm,
                    FormatNumber(c.seconds)});
    }
  }
  t.Print(std::cout);
}

}  // namespace
}  // namespace intellisphere

int main() {
  intellisphere::Run();
  return 0;
}
