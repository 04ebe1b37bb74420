// Analytical cost formulas composing sub-op models per physical algorithm
// (Section 4, Figure 6), plus the query-time machinery of the sub-op
// approach: applicability rules to eliminate inapplicable algorithms and a
// choice policy (worst-case / average / in-house-comparable) among the
// survivors.
//
// Each formula is the paper-style closed form: fixed driver-side work plus
// NumTaskWaves * (per-task work), plus the calibrated job-overhead model.
// The formulas deliberately use the idealized full-wave/full-block
// accounting of Figure 6 — the resulting slight overestimation relative to
// the real (simulated) engine matches the paper's observation that "the
// sub-op approach slightly tends to overestimate the cost".

#ifndef INTELLISPHERE_CORE_FORMULAS_H_
#define INTELLISPHERE_CORE_FORMULAS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimate_context.h"
#include "core/sub_op.h"
#include "relational/query.h"
#include "util/status.h"

namespace intellisphere::core {

/// A cost formula for one physical join algorithm.
class JoinFormula {
 public:
  virtual ~JoinFormula() = default;
  /// The algorithm's name, as estimates and EXPLAIN report it.
  virtual const char* name() const = 0;
  /// Human-readable statement of the applicability rule — the elimination
  /// reason EXPLAIN reports when the rule kills this algorithm.
  virtual const char* applicability_rule() const = 0;
  /// Applicability rule (Section 4 "Usage"): can the remote system run this
  /// algorithm for this query?
  virtual bool Applicable(const rel::JoinQuery& q,
                          const OpenboxInfo& info) const = 0;
  /// Estimated elapsed seconds from the calibrated sub-ops.
  [[nodiscard]] virtual Result<double> Estimate(const rel::JoinQuery& q,
                                                const SubOpCatalog& catalog) const = 0;
};

/// A cost formula for one aggregation algorithm.
class AggFormula {
 public:
  virtual ~AggFormula() = default;
  virtual const char* name() const = 0;
  virtual const char* applicability_rule() const = 0;
  virtual bool Applicable(const rel::AggQuery& q,
                          const OpenboxInfo& info) const = 0;
  [[nodiscard]] virtual Result<double> Estimate(const rel::AggQuery& q,
                                                const SubOpCatalog& catalog) const = 0;
};

/// A cost formula for one selection/projection algorithm.
class ScanFormula {
 public:
  virtual ~ScanFormula() = default;
  virtual const char* name() const = 0;
  virtual const char* applicability_rule() const = 0;
  virtual bool Applicable(const rel::ScanQuery& q,
                          const OpenboxInfo& info) const = 0;
  [[nodiscard]] virtual Result<double> Estimate(const rel::ScanQuery& q,
                                                const SubOpCatalog& catalog) const = 0;
};

/// Builds the Hive formula set (the paper's proof-of-concept engine):
/// shuffle, broadcast, bucket-map, sort-merge-bucket, and skew joins.
std::vector<std::unique_ptr<JoinFormula>> HiveJoinFormulas();

/// Hash and sort aggregation formulas.
std::vector<std::unique_ptr<AggFormula>> HiveAggFormulas();

/// The map-only selection/projection formula.
std::vector<std::unique_ptr<ScanFormula>> HiveScanFormulas();

/// One candidate algorithm's estimate.
struct AlgorithmEstimate {
  std::string algorithm;
  double seconds = 0.0;
};

/// An algorithm an applicability rule eliminated, with the rule text that
/// killed it. Collected only at EstimateDetail::kProvenance.
struct EliminatedAlgorithm {
  std::string algorithm;
  std::string reason;
};

/// The sub-op approach's final estimate with diagnostics.
struct SubOpEstimate {
  double seconds = 0.0;
  /// The algorithm the policy settled on ("" for kAverage over several).
  std::string chosen_algorithm;
  /// The policy that resolved the candidates (reflects any per-call
  /// override).
  ChoicePolicy policy_used = ChoicePolicy::kWorstCase;
  /// Every surviving algorithm's estimate, in formula order; filled only
  /// when the context asks for provenance (a cost-only estimate resolves
  /// the policy without building the list).
  std::vector<AlgorithmEstimate> candidates;
  /// How many algorithms the applicability rules eliminated. Always
  /// maintained — it is a plain tally.
  int eliminated_count = 0;
  /// The eliminated algorithms with reasons; filled only when the context
  /// asks for provenance (string building stays off the fast path).
  std::vector<EliminatedAlgorithm> eliminated;
};

/// Query-time estimator of the sub-op costing approach.
class SubOpCostEstimator {
 public:
  /// Takes the calibrated catalog and the formula sets for the remote
  /// system's engine family.
  SubOpCostEstimator(SubOpCatalog catalog,
                     std::vector<std::unique_ptr<JoinFormula>> join_formulas,
                     std::vector<std::unique_ptr<AggFormula>> agg_formulas,
                     std::vector<std::unique_ptr<ScanFormula>> scan_formulas,
                     ChoicePolicy policy);

  /// Convenience: Hive formula set.
  [[nodiscard]] static Result<SubOpCostEstimator> ForHive(
      SubOpCatalog catalog, ChoicePolicy policy = ChoicePolicy::kWorstCase);

  /// Applies applicability rules, estimates every surviving algorithm, and
  /// resolves with the policy (or `ctx.policy_override`): worst case takes
  /// the first maximum, in-house comparable the first minimum, and average
  /// the in-order mean (naming the algorithm only when one survives). Emits one
  /// `estimate.sub_op.formula` span per surviving algorithm when the
  /// context carries a trace sink. FailedPrecondition when no algorithm
  /// survives.
  [[nodiscard]] Result<SubOpEstimate> EstimateJoin(
      const rel::JoinQuery& q, const EstimateContext& ctx = {}) const;
  [[nodiscard]] Result<SubOpEstimate> EstimateAgg(
      const rel::AggQuery& q, const EstimateContext& ctx = {}) const;
  [[nodiscard]] Result<SubOpEstimate> EstimateScan(
      const rel::ScanQuery& q, const EstimateContext& ctx = {}) const;
  [[nodiscard]] Result<SubOpEstimate> Estimate(
      const rel::SqlOperator& op, const EstimateContext& ctx = {}) const;

  /// Estimates one named algorithm regardless of the policy (used by the
  /// per-algorithm accuracy benchmarks, e.g. Fig 13(g)).
  [[nodiscard]] Result<double> EstimateJoinAlgorithm(const rel::JoinQuery& q,
                                                     const std::string& algorithm) const;
  [[nodiscard]] Result<double> EstimateAggAlgorithm(const rel::AggQuery& q,
                                                    const std::string& algorithm) const;

  const SubOpCatalog& catalog() const { return catalog_; }
  ChoicePolicy policy() const { return policy_; }
  void set_policy(ChoicePolicy policy) { policy_ = policy; }

 private:
  SubOpCatalog catalog_;
  std::vector<std::unique_ptr<JoinFormula>> join_formulas_;
  std::vector<std::unique_ptr<AggFormula>> agg_formulas_;
  std::vector<std::unique_ptr<ScanFormula>> scan_formulas_;
  ChoicePolicy policy_;
};

}  // namespace intellisphere::core

#endif  // INTELLISPHERE_CORE_FORMULAS_H_
