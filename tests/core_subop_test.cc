// Unit tests for sub-operator costing: calibration via probes with the
// subtraction scheme, catalog persistence, formulas, applicability rules,
// and choice policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/formulas.h"
#include "core/sub_op.h"
#include "relational/workload.h"
#include "remote/blackbox.h"
#include "remote/hive_engine.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace intellisphere::core {
namespace {

/// A context asking for provenance: only then does an estimate list its
/// surviving candidates.
EstimateContext ProvenanceContext() {
  EstimateContext ctx;
  ctx.detail = EstimateDetail::kProvenance;
  return ctx;
}

OpenboxInfo InfoFor(const remote::HiveEngine& hive) {
  OpenboxInfo info;
  info.dfs_block_bytes = hive.cluster().config().dfs_block_bytes;
  info.total_slots = hive.cluster().config().TotalSlots();
  info.num_worker_nodes = hive.cluster().config().num_worker_nodes;
  info.task_memory_bytes = hive.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      hive.options().broadcast_threshold_factor * info.task_memory_bytes;
  info.skew_threshold = hive.options().skew_threshold;
  return info;
}

class SubOpCalibrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hive_ = remote::HiveEngine::CreateDefault("hive", 77).release();
    auto run =
        CalibrateSubOps(hive_, InfoFor(*hive_), CalibrationOptions{});
    ASSERT_TRUE(run.ok()) << run.status();
    run_ = new CalibrationRun(std::move(run).value());
  }
  static void TearDownTestSuite() {
    delete run_;
    delete hive_;
    run_ = nullptr;
    hive_ = nullptr;
  }

  static remote::HiveEngine* hive_;
  static CalibrationRun* run_;
};

remote::HiveEngine* SubOpCalibrationTest::hive_ = nullptr;
CalibrationRun* SubOpCalibrationTest::run_ = nullptr;

TEST_F(SubOpCalibrationTest, AllSubOpsAreModeled) {
  for (SubOpKind kind : AllSubOpKinds()) {
    EXPECT_TRUE(run_->catalog.Contains(kind)) << SubOpKindName(kind);
  }
  EXPECT_TRUE(run_->catalog.HasAllBasic());
}

TEST_F(SubOpCalibrationTest, RecoversGroundTruthWithinTolerance) {
  // The simulator's ReadDFS truth at 1000 B is ~4.73 us plus a 5% warp;
  // calibration observes it through schedulers, overheads, and noise, and
  // must land within ~15%.
  auto& gt = hive_->cluster().ground_truth();
  // Cheap sub-ops recovered by double subtraction (rL, scan) carry more
  // measurement noise relative to their magnitude, so they get a looser
  // tolerance, as in any real calibration.
  struct Case {
    SubOpKind kind;
    double truth;
    double tolerance;
  } cases[] = {
      {SubOpKind::kReadDfs, gt.ReadDfsSec(1000), 0.15},
      {SubOpKind::kWriteDfs, gt.WriteDfsSec(1000), 0.15},
      {SubOpKind::kWriteLocal, gt.WriteLocalSec(1000), 0.15},
      {SubOpKind::kReadLocal, gt.ReadLocalSec(1000), 0.35},
      {SubOpKind::kShuffle, gt.ShuffleSec(1000), 0.15},
      {SubOpKind::kScan, gt.ScanSec(1000), 0.35},
      {SubOpKind::kRecMerge, gt.MergeSec(1000), 0.15},
  };
  for (const auto& c : cases) {
    double est = run_->catalog.Cost(c.kind, 1000).value();
    EXPECT_NEAR(est, c.truth, c.tolerance * c.truth) << SubOpKindName(c.kind);
  }
}

TEST_F(SubOpCalibrationTest, PerRecordCostIsFlatAcrossRecordCounts) {
  // Figure 7(a)/13(b): at a fixed record size, per-record cost barely moves
  // with the dataset size.
  const auto& pts = run_->points.at(SubOpKind::kReadDfs);
  std::map<int64_t, std::vector<double>> by_size;
  for (const auto& p : pts) by_size[p.record_bytes].push_back(p.seconds_per_record);
  for (const auto& [size, vals] : by_size) {
    double mn = *std::min_element(vals.begin(), vals.end());
    double mx = *std::max_element(vals.begin(), vals.end());
    EXPECT_LT((mx - mn) / mx, 0.35) << "size " << size;
  }
}

TEST_F(SubOpCalibrationTest, LinearModelsFitTightly) {
  // The paper reports R^2 >= 0.95 for the sub-op lines (Fig 13(c,d,e)).
  for (SubOpKind kind : {SubOpKind::kWriteDfs, SubOpKind::kShuffle,
                         SubOpKind::kRecMerge, SubOpKind::kReadDfs}) {
    const auto& pts = run_->points.at(kind);
    std::map<int64_t, std::pair<double, int>> by_size;
    for (const auto& p : pts) {
      by_size[p.record_bytes].first += p.seconds_per_record;
      by_size[p.record_bytes].second++;
    }
    std::vector<double> xs, ys;
    for (auto& [s, acc] : by_size) {
      xs.push_back(double(s));
      ys.push_back(acc.first / acc.second);
    }
    auto line = FitLine(xs, ys).value();
    EXPECT_GT(line.r2, 0.95) << SubOpKindName(kind);
  }
}

TEST_F(SubOpCalibrationTest, HashBuildIsTwoRegime) {
  auto model = run_->catalog.Get(SubOpKind::kHashBuild).value();
  ASSERT_TRUE(model->two_regime());
  // The spill regime costs more at large record sizes (Fig 13(f)).
  double fit = model->PerRecordSeconds(1000, true).value();
  double spill = model->PerRecordSeconds(1000, false).value();
  EXPECT_GT(spill, 1.5 * fit);
}

TEST_F(SubOpCalibrationTest, OverheadModelCalibrated) {
  EXPECT_GT(run_->catalog.info().job_overhead_intercept, 0.5);
  EXPECT_GT(run_->catalog.info().job_overhead_per_wave, 0.1);
}

TEST_F(SubOpCalibrationTest, TrainingIsOrdersOfMagnitudeCheaperThanLogicalOp) {
  // The paper: sub-op training needs 10s of queries per sub-op and minutes
  // of cluster time vs thousands of queries / many hours for logical-op.
  EXPECT_LT(run_->probe_queries, 300);
  EXPECT_LT(run_->total_seconds, 3 * 3600.0);
}

TEST_F(SubOpCalibrationTest, CatalogSaveLoadRoundTrip) {
  Properties props;
  run_->catalog.Save("cp_", &props);
  auto loaded = SubOpCatalog::Load("cp_", Properties::Parse(
                                              props.Serialize()).value())
                    .value();
  for (SubOpKind kind : AllSubOpKinds()) {
    ASSERT_TRUE(loaded.Contains(kind));
    EXPECT_DOUBLE_EQ(loaded.Cost(kind, 500).value(),
                     run_->catalog.Cost(kind, 500).value());
  }
  EXPECT_EQ(loaded.info().total_slots, run_->catalog.info().total_slots);
}

TEST_F(SubOpCalibrationTest, ShuffleJoinFormulaTracksEngine) {
  auto est = SubOpCostEstimator::ForHive(run_->catalog).value();
  std::vector<double> actual, pred;
  for (int64_t lrows : {2000000LL, 8000000LL}) {
    for (int64_t bytes : {100LL, 500LL}) {
      auto l = rel::SyntheticTableDef(lrows, bytes).value();
      auto r = rel::SyntheticTableDef(lrows / 2, bytes).value();
      auto q = rel::MakeJoinQuery(l, r, 32, 32, 0.5).value();
      actual.push_back(
          hive_->ExecuteJoinWithAlgorithm(
                   q, remote::HiveJoinAlgorithm::kShuffleJoin)
              .value()
              .elapsed_seconds);
      pred.push_back(est.EstimateJoinAlgorithm(q, "shuffle_join").value());
    }
  }
  EXPECT_GT(RSquared(actual, pred).value(), 0.8);
}

TEST_F(SubOpCalibrationTest, BroadcastJoinFormulaTracksEngine) {
  auto est = SubOpCostEstimator::ForHive(run_->catalog).value();
  std::vector<double> actual, pred;
  for (int64_t lrows : {4000000LL, 16000000LL}) {
    for (int64_t srows : {100000LL, 1000000LL}) {
      auto l = rel::SyntheticTableDef(lrows, 250).value();
      auto r = rel::SyntheticTableDef(srows, 100).value();
      auto q = rel::MakeJoinQuery(l, r, 32, 32, 1.0).value();
      actual.push_back(
          hive_->ExecuteJoinWithAlgorithm(
                   q, remote::HiveJoinAlgorithm::kBroadcastJoin)
              .value()
              .elapsed_seconds);
      pred.push_back(est.EstimateJoinAlgorithm(q, "broadcast_join").value());
    }
  }
  EXPECT_GT(RSquared(actual, pred).value(), 0.8);
}

TEST_F(SubOpCalibrationTest, ApplicabilityRulesEliminateCandidates) {
  auto est = SubOpCostEstimator::ForHive(run_->catalog).value();
  auto l = rel::SyntheticTableDef(8000000, 500).value();
  auto r = rel::SyntheticTableDef(8000000, 500).value();  // 4 GB: no bcast
  auto q = rel::MakeJoinQuery(l, r, 32, 32, 0.5).value();
  auto res = est.EstimateJoin(q, ProvenanceContext()).value();
  for (const auto& c : res.candidates) {
    EXPECT_NE(c.algorithm, "broadcast_join");
    EXPECT_NE(c.algorithm, "bucket_map_join");       // not bucketed
    EXPECT_NE(c.algorithm, "sort_merge_bucket_join");
    EXPECT_NE(c.algorithm, "skew_join");             // no skew
  }
  ASSERT_EQ(res.candidates.size(), 1u);
  EXPECT_EQ(res.chosen_algorithm, "shuffle_join");

  // Bucketing widens the candidate set.
  q.right_bucketed_on_key = true;
  q.left_bucketed_on_key = true;
  auto res2 = est.EstimateJoin(q, ProvenanceContext()).value();
  EXPECT_EQ(res2.candidates.size(), 3u);
  // A cost-only estimate resolves the same answer without the list.
  auto cost_only = est.EstimateJoin(q).value();
  EXPECT_TRUE(cost_only.candidates.empty());
  EXPECT_EQ(cost_only.seconds, res2.seconds);
  EXPECT_EQ(cost_only.chosen_algorithm, res2.chosen_algorithm);
}

TEST_F(SubOpCalibrationTest, ChoicePoliciesOrderAsExpected) {
  auto l = rel::SyntheticTableDef(8000000, 500).value();
  auto r = rel::SyntheticTableDef(8000000, 500).value();
  auto q = rel::MakeJoinQuery(l, r, 32, 32, 0.5).value();
  q.right_bucketed_on_key = true;
  q.left_bucketed_on_key = true;
  auto worst =
      SubOpCostEstimator::ForHive(run_->catalog, ChoicePolicy::kWorstCase)
          .value()
          .EstimateJoin(q)
          .value();
  auto avg =
      SubOpCostEstimator::ForHive(run_->catalog, ChoicePolicy::kAverage)
          .value()
          .EstimateJoin(q)
          .value();
  auto inhouse = SubOpCostEstimator::ForHive(
                     run_->catalog, ChoicePolicy::kInHouseComparable)
                     .value()
                     .EstimateJoin(q)
                     .value();
  EXPECT_GE(worst.seconds, avg.seconds);
  EXPECT_GE(avg.seconds, inhouse.seconds);
  EXPECT_FALSE(worst.chosen_algorithm.empty());
  EXPECT_FALSE(inhouse.chosen_algorithm.empty());
}

TEST_F(SubOpCalibrationTest, AggFormulasRespectMemoryRule) {
  auto est = SubOpCostEstimator::ForHive(run_->catalog).value();
  auto t = rel::SyntheticTableDef(8000000, 250).value();
  auto small_groups = rel::MakeAggQuery(t, 100, 2).value();
  auto res = est.EstimateAgg(small_groups, ProvenanceContext()).value();
  ASSERT_EQ(res.candidates.size(), 1u);
  EXPECT_EQ(res.chosen_algorithm, "hash_aggregation");
  auto big = rel::SyntheticTableDef(80000000, 100).value();
  auto huge_groups = rel::MakeAggQuery(big, 1, 5).value();
  auto res2 = est.EstimateAgg(huge_groups, ProvenanceContext()).value();
  ASSERT_EQ(res2.candidates.size(), 1u);
  EXPECT_EQ(res2.chosen_algorithm, "sort_aggregation");
}

TEST_F(SubOpCalibrationTest, UnknownAlgorithmIsNotFound) {
  auto est = SubOpCostEstimator::ForHive(run_->catalog).value();
  auto l = rel::SyntheticTableDef(1000000, 100).value();
  auto q = rel::MakeJoinQuery(l, l, 32, 32, 1.0).value();
  EXPECT_EQ(est.EstimateJoinAlgorithm(q, "quantum_join").status().code(),
            StatusCode::kNotFound);
}

// --- Choice policies over tied survivors -----------------------------------
//
// The cost-only path resolves the policy while it walks the survivors, so
// it must break ties the way std::max_element / std::min_element do (the
// first extreme wins) and name an average only when one algorithm
// survives. Fixed-cost formulas make the ties exact; a last-wins
// comparison names the other algorithm.

/// A join formula with a fixed estimate, applicable unless `applicable` is
/// false.
class FixedJoinFormula : public JoinFormula {
 public:
  FixedJoinFormula(const char* name, double seconds, bool applicable = true)
      : name_(name), seconds_(seconds), applicable_(applicable) {}
  const char* name() const override { return name_; }
  const char* applicability_rule() const override { return "fixed rule"; }
  bool Applicable(const rel::JoinQuery&, const OpenboxInfo&) const override {
    return applicable_;
  }
  Result<double> Estimate(const rel::JoinQuery&,
                          const SubOpCatalog&) const override {
    return seconds_;
  }

 private:
  const char* name_;
  double seconds_;
  bool applicable_;
};

struct FixedFormula {
  const char* name;
  double seconds;
  bool applicable = true;
};

/// Estimates one valid join under `policy` over fixed-cost formulas, with
/// the context's detail level.
SubOpEstimate EstimateFixed(const std::vector<FixedFormula>& formulas,
                            ChoicePolicy policy, const EstimateContext& ctx) {
  std::vector<std::unique_ptr<JoinFormula>> joins;
  for (const FixedFormula& f : formulas) {
    joins.push_back(
        std::make_unique<FixedJoinFormula>(f.name, f.seconds, f.applicable));
  }
  SubOpCostEstimator est(SubOpCatalog{}, std::move(joins), {}, {}, policy);
  auto t = rel::SyntheticTableDef(100000, 100).value();
  return est.EstimateJoin(rel::MakeJoinQuery(t, t, 8, 8, 1.0).value(), ctx)
      .value();
}

TEST(SubOpChoicePolicyTest, TiedSurvivorsResolveToTheFirstExtreme) {
  struct Case {
    ChoicePolicy policy;
    std::vector<FixedFormula> formulas;
    double seconds;
    const char* chosen;
  } cases[] = {
      {ChoicePolicy::kWorstCase,
       {{"low", 1.0}, {"first_max", 3.0}, {"second_max", 3.0}, {"mid", 2.0}},
       3.0,
       "first_max"},
      {ChoicePolicy::kInHouseComparable,
       {{"high", 3.0}, {"first_min", 1.0}, {"mid", 2.0}, {"second_min", 1.0}},
       1.0,
       "first_min"},
      // An eliminated cheaper (or dearer) algorithm takes no part.
      {ChoicePolicy::kWorstCase,
       {{"dead", 9.0, false}, {"first_max", 2.0}, {"second_max", 2.0}},
       2.0,
       "first_max"},
      {ChoicePolicy::kInHouseComparable,
       {{"dead", 0.5, false}, {"first_min", 2.0}, {"second_min", 2.0}},
       2.0,
       "first_min"},
      // An average names its algorithm only when one survives.
      {ChoicePolicy::kAverage,
       {{"dead", 9.0, false}, {"only", 2.5}, {"also_dead", 1.0, false}},
       2.5,
       "only"},
      {ChoicePolicy::kAverage, {{"a", 1.0}, {"b", 2.0}, {"c", 6.0}}, 3.0, ""},
  };
  for (const Case& c : cases) {
    for (const EstimateContext& ctx :
         {EstimateContext{}, ProvenanceContext()}) {
      SCOPED_TRACE(std::string(ChoicePolicyName(c.policy)) +
                   (ctx.provenance() ? " provenance" : " cost-only"));
      const SubOpEstimate est = EstimateFixed(c.formulas, c.policy, ctx);
      EXPECT_EQ(est.seconds, c.seconds);
      EXPECT_EQ(est.chosen_algorithm, c.chosen);
      EXPECT_EQ(est.policy_used, c.policy);
      size_t survivors = 0;
      for (const FixedFormula& f : c.formulas) survivors += f.applicable;
      EXPECT_EQ(est.eliminated_count,
                static_cast<int>(c.formulas.size() - survivors));
      // Survivors are listed, in formula order, only under provenance.
      EXPECT_EQ(est.candidates.size(), ctx.provenance() ? survivors : 0u);
    }
  }
}

TEST(SubOpModelTest, CostsNeverNegative) {
  // A spill line with a negative intercept (Fig 13(f)) must clamp at 0.
  auto fit = ml::LinearRegression::Fit1D({100, 1000}, {1e-6, 2e-6}).value();
  auto spill =
      ml::LinearRegression::Fit1D({100, 1000}, {-5e-6, 2e-5}).value();
  SubOpModel m(fit, spill);
  EXPECT_GE(m.PerRecordSeconds(10, false).value(), 0.0);
}

TEST(SubOpCatalogTest, MissingSpecificSubOpsFallBackToDefaults) {
  // Section 4: Specific sub-ops are optional — "IntelliSphere can provide
  // rough default values for them". A catalog with only the Basic six must
  // still cost every formula.
  auto hive = remote::HiveEngine::CreateDefault("hive", 7);
  OpenboxInfo info = InfoFor(*hive);
  auto run = CalibrateSubOps(hive.get(), info, CalibrationOptions{}).value();
  SubOpCatalog basic_only(run.catalog.info());
  for (SubOpKind kind : AllSubOpKinds()) {
    if (IsBasicSubOp(kind)) {
      basic_only.Put(kind, *run.catalog.Get(kind).value());
    }
  }
  EXPECT_TRUE(basic_only.HasAllBasic());
  EXPECT_FALSE(basic_only.Contains(SubOpKind::kRecMerge));
  // Specific sub-ops resolve to the rough defaults...
  EXPECT_GT(basic_only.Cost(SubOpKind::kRecMerge, 500).value(), 0.0);
  EXPECT_GT(basic_only.Cost(SubOpKind::kHashBuild, 500, false).value(), 0.0);
  // ...and the default is within an order of magnitude of the calibrated
  // truth ("rough").
  double calibrated = run.catalog.Cost(SubOpKind::kRecMerge, 500).value();
  double fallback = basic_only.Cost(SubOpKind::kRecMerge, 500).value();
  EXPECT_GT(fallback, calibrated / 10);
  EXPECT_LT(fallback, calibrated * 10);
  // Whole-formula estimation works on the basic-only catalog.
  auto est = SubOpCostEstimator::ForHive(basic_only).value();
  auto l = rel::SyntheticTableDef(4000000, 250).value();
  auto r = rel::SyntheticTableDef(1000000, 100).value();
  auto q = rel::MakeJoinQuery(l, r, 32, 32, 0.5).value();
  EXPECT_GT(est.EstimateJoin(q).value().seconds, 0.0);
  // Basic sub-ops have no default: a truly empty catalog still fails.
  SubOpCatalog empty(run.catalog.info());
  EXPECT_EQ(empty.Cost(SubOpKind::kReadDfs, 500).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(
      SubOpCatalog::DefaultSpecificCost(SubOpKind::kReadDfs, 500).ok());
}

TEST(SubOpCatalogTest, MissingBasicBlocksEstimator) {
  SubOpCatalog catalog;  // empty
  EXPECT_EQ(
      SubOpCostEstimator::ForHive(std::move(catalog)).status().code(),
      StatusCode::kFailedPrecondition);
}

// --- Resolved cost lines ----------------------------------------------------
//
// A SubOpModel resolves its lines to (intercept, slope) when it is built, and
// SubOpCatalog indexes its models by kind. The costs must stay bit-identical
// to Predict1D clamped at 0 on the model's own lines, and to the Specific
// defaults for kinds without a model. These tests fail on a dropped
// max(0, ·) (half the lines below are negative at small sizes), on swapped
// fit/spill regimes (hash build's two lines differ), and on an off-by-one
// kind index (every kind's line is distinct, and the persisted key names
// which kind a line belongs to).

ml::LinearRegression LineThrough(double x0, double y0, double x1, double y1) {
  return ml::LinearRegression::Fit1D({x0, x1}, {y0, y1}).value();
}

/// Kind k's fit line: distinct per kind, negative at small record sizes for
/// every other kind.
ml::LinearRegression FitLineOf(SubOpKind kind) {
  const double k = static_cast<double>(kind);
  const double y_small = (static_cast<int>(kind) % 2 == 0 ? -2e-6 : 1e-6) *
                         (k + 1.0);
  return LineThrough(100, y_small, 1000, (k + 2.0) * 3e-6);
}

/// Hash build's spill line: steeper than its fit line, negative below
/// ~200 B.
ml::LinearRegression SpillLine() { return LineThrough(100, -5e-6, 1000, 4e-5); }

/// Every kind of `kinds` with its FitLineOf line; hash build two-regime.
SubOpCatalog LineCatalog(const std::vector<SubOpKind>& kinds) {
  SubOpCatalog catalog;
  for (SubOpKind kind : kinds) {
    catalog.Put(kind, kind == SubOpKind::kHashBuild
                          ? SubOpModel(FitLineOf(kind), SpillLine())
                          : SubOpModel(FitLineOf(kind)));
  }
  return catalog;
}

/// 0, 1, a seeded log-uniform sweep over [1, 2^22], and sizes around 10^6.
std::vector<int64_t> SweepRecordSizes() {
  std::vector<int64_t> sizes = {0, 1, 2, 999999, 1000000, 1000001, 1 << 24};
  Rng rng(1317);
  for (int i = 0; i < 256; ++i) {
    sizes.push_back(static_cast<int64_t>(std::exp2(rng.Uniform(0.0, 22.0))));
  }
  return sizes;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The cost as computed before lines were resolved: Predict1D clamped at 0.
double Predicted(const ml::LinearRegression& line, int64_t record_bytes) {
  return std::max(0.0,
                  line.Predict1D(static_cast<double>(record_bytes)).value());
}

TEST(SubOpCostLineTest, EveryKindAndRegimeIsBitIdenticalToPredict1D) {
  const SubOpCatalog catalog = LineCatalog(AllSubOpKinds());
  int clamped = 0;
  for (SubOpKind kind : AllSubOpKinds()) {
    SCOPED_TRACE(SubOpKindName(kind));
    const SubOpModel* model = catalog.Get(kind).value();
    for (int64_t bytes : SweepRecordSizes()) {
      for (bool fits : {true, false}) {
        const bool spill = kind == SubOpKind::kHashBuild && !fits;
        // The line this kind was built with, and the model's own copy.
        const double built = Predicted(spill ? SpillLine() : FitLineOf(kind),
                                       bytes);
        const double own = Predicted(
            spill ? model->spill_line() : model->line(), bytes);
        const double cost = catalog.Cost(kind, bytes, fits).value();
        const double per_record =
            model->PerRecordSeconds(bytes, fits).value();
        EXPECT_TRUE(SameBits(cost, built)) << bytes << " " << fits;
        EXPECT_TRUE(SameBits(cost, own)) << bytes << " " << fits;
        EXPECT_TRUE(SameBits(per_record, own)) << bytes << " " << fits;
        if ((spill ? SpillLine() : FitLineOf(kind))
                .Predict1D(static_cast<double>(bytes))
                .value() < 0.0) {
          ++clamped;
        }
      }
    }
  }
  EXPECT_GT(clamped, 0);  // the clamp at 0 is exercised
}

TEST(SubOpCostLineTest, MissingSpecificKindsCostTheirDefaults) {
  std::vector<SubOpKind> basic;
  for (SubOpKind kind : AllSubOpKinds()) {
    if (IsBasicSubOp(kind)) basic.push_back(kind);
  }
  const SubOpCatalog catalog = LineCatalog(basic);
  for (SubOpKind kind : AllSubOpKinds()) {
    if (IsBasicSubOp(kind)) continue;
    SCOPED_TRACE(SubOpKindName(kind));
    for (int64_t bytes : SweepRecordSizes()) {
      const double fallback =
          SubOpCatalog::DefaultSpecificCost(kind, bytes).value();
      EXPECT_TRUE(SameBits(catalog.Cost(kind, bytes, true).value(), fallback));
      EXPECT_TRUE(
          SameBits(catalog.Cost(kind, bytes, false).value(), fallback));
    }
  }
}

TEST(SubOpCostLineTest, MissingBasicKindIsNotFound) {
  std::vector<SubOpKind> kinds;
  for (SubOpKind kind : AllSubOpKinds()) {
    if (kind != SubOpKind::kReadDfs) kinds.push_back(kind);
  }
  const SubOpCatalog catalog = LineCatalog(kinds);
  const Status cost = catalog.Cost(SubOpKind::kReadDfs, 100).status();
  EXPECT_EQ(cost.code(), StatusCode::kNotFound);
  EXPECT_EQ(cost.message(), "sub-op model 'read_dfs'");
  EXPECT_EQ(catalog.Get(SubOpKind::kReadDfs).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(catalog.Contains(SubOpKind::kReadDfs));
  EXPECT_FALSE(catalog.HasAllBasic());
}

TEST(SubOpCostLineTest, NonOneFeatureLineFailsWhenCalled) {
  Properties props;
  props.SetDoubleList("w_weights", {1e-6, 2e-6});
  props.SetDouble("w_intercept", 1e-6);
  const ml::LinearRegression wide =
      ml::LinearRegression::Load("w_", props).value();
  const auto expect_mismatch = [](const Result<double>& r) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), "predict width mismatch");
  };
  // Built without complaint; fails only when a cost is asked of it.
  const SubOpModel one_regime(wide);
  expect_mismatch(one_regime.PerRecordSeconds(100, true));
  expect_mismatch(one_regime.PerRecordSeconds(100, false));
  expect_mismatch(SubOpModel().PerRecordSeconds(100));
  // A two-regime model fails only in the regime whose line is wide.
  const SubOpModel wide_spill(FitLineOf(SubOpKind::kHashBuild), wide);
  EXPECT_TRUE(wide_spill.PerRecordSeconds(100, true).ok());
  expect_mismatch(wide_spill.PerRecordSeconds(100, false));
  SubOpCatalog catalog = LineCatalog(AllSubOpKinds());
  catalog.Put(SubOpKind::kHashBuild, wide_spill);
  EXPECT_TRUE(catalog.Cost(SubOpKind::kHashBuild, 100, true).ok());
  expect_mismatch(catalog.Cost(SubOpKind::kHashBuild, 100, false));
}

/// The persisted form written when the catalog kept its models in a
/// kind-keyed map: the openbox info, then per modelled kind its has_ flag,
/// regime flag and lines.
Properties MapEraFormat(const SubOpCatalog& catalog,
                        const std::string& prefix) {
  Properties props;
  catalog.info().Save(prefix + "info_", &props);
  for (SubOpKind kind : AllSubOpKinds()) {
    auto model = catalog.Get(kind);
    if (!model.ok()) continue;
    const std::string name = SubOpKindName(kind);
    props.SetBool(prefix + "has_" + name, true);
    props.SetBool(prefix + name + "_two_regime", model.value()->two_regime());
    model.value()->line().Save(prefix + name + "_fit_", &props);
    if (model.value()->two_regime()) {
      model.value()->spill_line().Save(prefix + name + "_spill_", &props);
    }
  }
  return props;
}

void ExpectByteIdenticalRoundTrip(const SubOpCatalog& catalog) {
  Properties saved;
  catalog.Save("cp_", &saved);
  EXPECT_EQ(saved.Serialize(), MapEraFormat(catalog, "cp_").Serialize());
  const SubOpCatalog loaded =
      SubOpCatalog::Load("cp_", Properties::Parse(saved.Serialize()).value())
          .value();
  Properties resaved;
  loaded.Save("cp_", &resaved);
  EXPECT_EQ(resaved.Serialize(), saved.Serialize());
  for (SubOpKind kind : AllSubOpKinds()) {
    ASSERT_EQ(loaded.Contains(kind), catalog.Contains(kind));
    for (int64_t bytes : SweepRecordSizes()) {
      for (bool fits : {true, false}) {
        EXPECT_TRUE(SameBits(loaded.Cost(kind, bytes, fits).value(),
                             catalog.Cost(kind, bytes, fits).value()))
            << SubOpKindName(kind) << " " << bytes;
      }
    }
  }
}

TEST_F(SubOpCalibrationTest, SaveLoadIsByteIdenticalInMapEraKeyOrder) {
  ExpectByteIdenticalRoundTrip(run_->catalog);
}

TEST(SubOpCostLineTest, SaveLoadIsByteIdenticalWithKindsMissing) {
  ExpectByteIdenticalRoundTrip(LineCatalog(
      {SubOpKind::kReadDfs, SubOpKind::kWriteDfs, SubOpKind::kReadLocal,
       SubOpKind::kWriteLocal, SubOpKind::kShuffle, SubOpKind::kBroadcast,
       SubOpKind::kHashBuild, SubOpKind::kRecMerge}));
}

TEST(SubOpCalibrationErrorsTest, BlackboxRefusesCalibration) {
  auto inner = remote::HiveEngine::CreateDefault("hive", 5);
  OpenboxInfo info = InfoFor(*inner);
  remote::BlackboxSystem blackbox(std::move(inner));
  auto run = CalibrateSubOps(&blackbox, info, CalibrationOptions{});
  EXPECT_EQ(run.status().code(), StatusCode::kUnsupported);
}

TEST(SubOpCalibrationErrorsTest, NeedsEnoughGrid) {
  auto hive = remote::HiveEngine::CreateDefault("hive", 6);
  CalibrationOptions opts;
  opts.record_sizes = {100};
  EXPECT_FALSE(CalibrateSubOps(hive.get(), InfoFor(*hive), opts).ok());
  opts = CalibrationOptions{};
  opts.record_counts = {};
  EXPECT_FALSE(CalibrateSubOps(hive.get(), InfoFor(*hive), opts).ok());
  EXPECT_FALSE(
      CalibrateSubOps(nullptr, OpenboxInfo{}, CalibrationOptions{}).ok());
}

}  // namespace
}  // namespace intellisphere::core
