#include "core/formulas.h"

#include <algorithm>
#include <cmath>

namespace intellisphere::core {

namespace {

using rel::AggQuery;
using rel::JoinQuery;

int64_t ShuffleRecBytes(int64_t projected_bytes) {
  return std::max<int64_t>(4, projected_bytes);
}

double Log2Rows(double rows) {
  return std::max(1.0, std::log2(std::max(2.0, rows)));
}

/// Full-block row count of a relation (Figure 6's |Block(R)|).
double BlockRows(const rel::RelationStats& r, const OpenboxInfo& info) {
  double per_block = static_cast<double>(info.dfs_block_bytes) /
                     static_cast<double>(std::max<int64_t>(1, r.row_bytes));
  return std::min(std::max(1.0, per_block),
                  static_cast<double>(r.num_rows));
}

double Overhead(const OpenboxInfo& info, double waves) {
  return info.job_overhead_intercept + info.job_overhead_per_wave * waves;
}

bool BroadcastApplicable(const JoinQuery& q, const OpenboxInfo& info) {
  double s_raw = static_cast<double>(q.right.num_rows) *
                 static_cast<double>(q.right.row_bytes);
  if (info.broadcast_threshold_bytes > 0.0) {
    return s_raw <= info.broadcast_threshold_bytes;
  }
  return info.HashFits(s_raw);
}

// --- Closed-form estimates shared between formulas (skew join reuses the
// --- shuffle and broadcast forms on scaled inputs).

Result<double> EstimateBroadcastJoin(const JoinQuery& q,
                                     const SubOpCatalog& cat) {
  const OpenboxInfo& info = cat.info();
  double s_rows = static_cast<double>(q.right.num_rows);
  double s_raw = s_rows * static_cast<double>(q.right.row_bytes);
  bool fits = info.HashFits(s_raw);
  int64_t tasks = info.NumBlocks(q.left.num_rows * q.left.row_bytes);
  double waves = static_cast<double>(info.Waves(tasks));
  double blk_r = BlockRows(q.left, info);
  double task_out =
      static_cast<double>(q.output_rows) / static_cast<double>(tasks);
  int64_t sb = q.right.row_bytes, lb = q.left.row_bytes;
  int64_t ob = q.OutputRowBytes();

  ISPHERE_ASSIGN_OR_RETURN(double rD, cat.Cost(SubOpKind::kReadDfs, sb));
  ISPHERE_ASSIGN_OR_RETURN(double b, cat.Cost(SubOpKind::kBroadcast, sb));
  ISPHERE_ASSIGN_OR_RETURN(double rLs, cat.Cost(SubOpKind::kReadLocal, sb));
  ISPHERE_ASSIGN_OR_RETURN(double hI,
                           cat.Cost(SubOpKind::kHashBuild, sb, fits));
  ISPHERE_ASSIGN_OR_RETURN(double rLl, cat.Cost(SubOpKind::kReadLocal, lb));
  ISPHERE_ASSIGN_OR_RETURN(double hP, cat.Cost(SubOpKind::kHashProbe, lb));
  ISPHERE_ASSIGN_OR_RETURN(double wD, cat.Cost(SubOpKind::kWriteDfs, ob));

  // Figure 6: rD*|S| + b*|S| + NumTaskWaves * (rL*|S| + hI*|S| +
  // rL*|Block(R)| + hP*|Block(R)| + wD*|TaskOutput|).
  double cost = rD * s_rows + b * s_rows +
                waves * (rLs * s_rows + hI * s_rows + rLl * blk_r +
                         hP * blk_r + wD * task_out);
  return cost + Overhead(info, waves);
}

Result<double> EstimateShuffleJoin(const JoinQuery& q,
                                   const SubOpCatalog& cat) {
  const OpenboxInfo& info = cat.info();
  int64_t lsh = ShuffleRecBytes(q.left_projected_bytes);
  int64_t rsh = ShuffleRecBytes(q.right_projected_bytes);
  int64_t ob = q.OutputRowBytes();

  // Both relations' map tasks run in one stage sharing the slots, so wave
  // accounting applies to the combined task set: waves * mean task time.
  int64_t tasks_l = info.NumBlocks(q.left.num_rows * q.left.row_bytes);
  int64_t tasks_r = info.NumBlocks(q.right.num_rows * q.right.row_bytes);
  double map_waves = static_cast<double>(info.Waves(tasks_l + tasks_r));
  auto map_work = [&](const rel::RelationStats& r, int64_t tasks,
                      int64_t shuffle_bytes) -> Result<double> {
    double blk = BlockRows(r, info);
    ISPHERE_ASSIGN_OR_RETURN(double rL,
                             cat.Cost(SubOpKind::kReadLocal, r.row_bytes));
    ISPHERE_ASSIGN_OR_RETURN(double wL,
                             cat.Cost(SubOpKind::kWriteLocal, shuffle_bytes));
    ISPHERE_ASSIGN_OR_RETURN(double f,
                             cat.Cost(SubOpKind::kShuffle, shuffle_bytes));
    return static_cast<double>(tasks) * blk * (rL + wL + f);
  };
  ISPHERE_ASSIGN_OR_RETURN(double work_l, map_work(q.left, tasks_l, lsh));
  ISPHERE_ASSIGN_OR_RETURN(double work_r, map_work(q.right, tasks_r, rsh));
  double map_cost = map_waves * (work_l + work_r) /
                    static_cast<double>(tasks_l + tasks_r);

  double red = static_cast<double>(info.Reducers());
  double lpr = static_cast<double>(q.left.num_rows) / red;
  double rpr = static_cast<double>(q.right.num_rows) / red;
  double opr = static_cast<double>(q.output_rows) / red;
  double red_waves =
      static_cast<double>(info.Waves(static_cast<int64_t>(red)));
  ISPHERE_ASSIGN_OR_RETURN(double ol, cat.Cost(SubOpKind::kSort, lsh));
  ISPHERE_ASSIGN_OR_RETURN(double orr, cat.Cost(SubOpKind::kSort, rsh));
  ISPHERE_ASSIGN_OR_RETURN(double m, cat.Cost(SubOpKind::kRecMerge, ob));
  ISPHERE_ASSIGN_OR_RETURN(double wD, cat.Cost(SubOpKind::kWriteDfs, ob));
  double reduce = red_waves * (ol * lpr * Log2Rows(lpr) +
                               orr * rpr * Log2Rows(rpr) + m * opr + wD * opr);

  return map_cost + reduce + Overhead(info, map_waves + red_waves);
}

Result<double> EstimateBucketMapJoin(const JoinQuery& q,
                                     const SubOpCatalog& cat) {
  const OpenboxInfo& info = cat.info();
  int64_t s_total = q.right.num_rows * q.right.row_bytes;
  int64_t buckets = std::max<int64_t>(1, info.NumBlocks(s_total));
  double bucket_rows = static_cast<double>(q.right.num_rows) /
                       static_cast<double>(buckets);
  bool fits = info.HashFits(bucket_rows *
                            static_cast<double>(q.right.row_bytes));
  int64_t tasks = info.NumBlocks(q.left.num_rows * q.left.row_bytes);
  double waves = static_cast<double>(info.Waves(tasks));
  double blk_r = BlockRows(q.left, info);
  double task_out =
      static_cast<double>(q.output_rows) / static_cast<double>(tasks);
  int64_t sb = q.right.row_bytes, lb = q.left.row_bytes;
  int64_t ob = q.OutputRowBytes();

  ISPHERE_ASSIGN_OR_RETURN(double rD, cat.Cost(SubOpKind::kReadDfs, sb));
  ISPHERE_ASSIGN_OR_RETURN(double hI,
                           cat.Cost(SubOpKind::kHashBuild, sb, fits));
  ISPHERE_ASSIGN_OR_RETURN(double rLl, cat.Cost(SubOpKind::kReadLocal, lb));
  ISPHERE_ASSIGN_OR_RETURN(double hP, cat.Cost(SubOpKind::kHashProbe, lb));
  ISPHERE_ASSIGN_OR_RETURN(double wD, cat.Cost(SubOpKind::kWriteDfs, ob));

  double per_task = rD * bucket_rows + hI * bucket_rows + rLl * blk_r +
                    hP * blk_r + wD * task_out;
  return waves * per_task + Overhead(info, waves);
}

Result<double> EstimateSortMergeBucketJoin(const JoinQuery& q,
                                           const SubOpCatalog& cat) {
  const OpenboxInfo& info = cat.info();
  int64_t s_total = q.right.num_rows * q.right.row_bytes;
  int64_t buckets = std::max<int64_t>(1, info.NumBlocks(s_total));
  double bucket_rows = static_cast<double>(q.right.num_rows) /
                       static_cast<double>(buckets);
  int64_t tasks = info.NumBlocks(q.left.num_rows * q.left.row_bytes);
  double waves = static_cast<double>(info.Waves(tasks));
  double blk_r = BlockRows(q.left, info);
  double task_out =
      static_cast<double>(q.output_rows) / static_cast<double>(tasks);
  int64_t sb = q.right.row_bytes, lb = q.left.row_bytes;
  int64_t ob = q.OutputRowBytes();

  ISPHERE_ASSIGN_OR_RETURN(double rD, cat.Cost(SubOpKind::kReadDfs, sb));
  ISPHERE_ASSIGN_OR_RETURN(double cs, cat.Cost(SubOpKind::kScan, sb));
  ISPHERE_ASSIGN_OR_RETURN(double rLl, cat.Cost(SubOpKind::kReadLocal, lb));
  ISPHERE_ASSIGN_OR_RETURN(double cl, cat.Cost(SubOpKind::kScan, lb));
  ISPHERE_ASSIGN_OR_RETURN(double m, cat.Cost(SubOpKind::kRecMerge, ob));
  ISPHERE_ASSIGN_OR_RETURN(double wD, cat.Cost(SubOpKind::kWriteDfs, ob));

  double per_task = (rD + cs) * bucket_rows + (rLl + cl) * blk_r +
                    (m + wD) * task_out;
  return waves * per_task + Overhead(info, waves);
}

JoinQuery ScaleJoin(const JoinQuery& base, double f) {
  JoinQuery s = base;
  auto scale = [f](int64_t v) {
    return std::max<int64_t>(
        1, static_cast<int64_t>(f * static_cast<double>(v)));
  };
  s.left.num_rows = scale(base.left.num_rows);
  s.right.num_rows = scale(base.right.num_rows);
  s.output_rows = std::max<int64_t>(
      0, static_cast<int64_t>(f * static_cast<double>(base.output_rows)));
  s.hot_key_fraction = 0.0;
  return s;
}

Result<double> EstimateSkewJoin(const JoinQuery& q, const SubOpCatalog& cat) {
  double h = std::clamp(q.hot_key_fraction, 0.0, 0.95);
  ISPHERE_ASSIGN_OR_RETURN(double cold,
                           EstimateShuffleJoin(ScaleJoin(q, 1.0 - h), cat));
  ISPHERE_ASSIGN_OR_RETURN(double hot,
                           EstimateBroadcastJoin(ScaleJoin(q, h), cat));
  return cold + hot;
}

Result<double> EstimateHashAgg(const AggQuery& q, const SubOpCatalog& cat) {
  const OpenboxInfo& info = cat.info();
  int64_t tasks = info.NumBlocks(q.input.num_rows * q.input.row_bytes);
  double waves = static_cast<double>(info.Waves(tasks));
  double blk = BlockRows(q.input, info);
  double partial = std::min(blk, static_cast<double>(q.output_rows));
  int64_t ib = q.input.row_bytes, ob = q.output_row_bytes;

  ISPHERE_ASSIGN_OR_RETURN(double rL, cat.Cost(SubOpKind::kReadLocal, ib));
  ISPHERE_ASSIGN_OR_RETURN(double hP, cat.Cost(SubOpKind::kHashProbe, ob));
  ISPHERE_ASSIGN_OR_RETURN(double c8, cat.Cost(SubOpKind::kScan, 8));
  ISPHERE_ASSIGN_OR_RETURN(double f, cat.Cost(SubOpKind::kShuffle, ob));
  double map = waves * (blk * (rL + hP + c8 * q.num_aggregates) +
                        partial * f);

  double red = static_cast<double>(info.Reducers());
  double partials_total = std::min(
      static_cast<double>(q.input.num_rows),
      static_cast<double>(q.output_rows) * static_cast<double>(tasks));
  double ppr = partials_total / red;
  double opr = static_cast<double>(q.output_rows) / red;
  double red_waves =
      static_cast<double>(info.Waves(static_cast<int64_t>(red)));
  // Partial combining in the reducers is a group-table probe plus one
  // update per aggregate (not a full record merge).
  ISPHERE_ASSIGN_OR_RETURN(double wD, cat.Cost(SubOpKind::kWriteDfs, ob));
  double reduce =
      red_waves * ((hP + c8 * q.num_aggregates) * ppr + wD * opr);
  return map + reduce + Overhead(info, waves + red_waves);
}

Result<double> EstimateSortAgg(const AggQuery& q, const SubOpCatalog& cat) {
  const OpenboxInfo& info = cat.info();
  int64_t tasks = info.NumBlocks(q.input.num_rows * q.input.row_bytes);
  double waves = static_cast<double>(info.Waves(tasks));
  double blk = BlockRows(q.input, info);
  int64_t ib = q.input.row_bytes, ob = q.output_row_bytes;

  ISPHERE_ASSIGN_OR_RETURN(double rL, cat.Cost(SubOpKind::kReadLocal, ib));
  ISPHERE_ASSIGN_OR_RETURN(double o, cat.Cost(SubOpKind::kSort, ob));
  ISPHERE_ASSIGN_OR_RETURN(double f, cat.Cost(SubOpKind::kShuffle, ob));
  double map = waves * blk * (rL + o * Log2Rows(blk) + f);

  double red = static_cast<double>(info.Reducers());
  double rpr = static_cast<double>(q.input.num_rows) / red;
  double opr = static_cast<double>(q.output_rows) / red;
  double red_waves =
      static_cast<double>(info.Waves(static_cast<int64_t>(red)));
  ISPHERE_ASSIGN_OR_RETURN(double c8, cat.Cost(SubOpKind::kScan, 8));
  ISPHERE_ASSIGN_OR_RETURN(double wD, cat.Cost(SubOpKind::kWriteDfs, ob));
  double reduce = red_waves * (o * Log2Rows(rpr) * rpr +
                               c8 * q.num_aggregates * rpr + wD * opr);
  return map + reduce + Overhead(info, waves + red_waves);
}

// --- Formula classes.

class ShuffleJoinFormula : public JoinFormula {
 public:
  const char* name() const override { return "shuffle_join"; }
  const char* applicability_rule() const override {
    return "requires an equi-join with hot-key fraction below the skew "
           "threshold";
  }
  bool Applicable(const JoinQuery& q, const OpenboxInfo& info) const override {
    return q.is_equi_join && q.hot_key_fraction < info.skew_threshold;
  }
  Result<double> Estimate(const JoinQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateShuffleJoin(q, cat);
  }
};

class BroadcastJoinFormula : public JoinFormula {
 public:
  const char* name() const override { return "broadcast_join"; }
  const char* applicability_rule() const override {
    return "requires an equi-join with the right side under the broadcast "
           "threshold";
  }
  bool Applicable(const JoinQuery& q, const OpenboxInfo& info) const override {
    // "If both join relations are quite large, then the choices of
    // Broadcast Join ... can be eliminated."
    return q.is_equi_join && BroadcastApplicable(q, info);
  }
  Result<double> Estimate(const JoinQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateBroadcastJoin(q, cat);
  }
};

class BucketMapJoinFormula : public JoinFormula {
 public:
  const char* name() const override { return "bucket_map_join"; }
  const char* applicability_rule() const override {
    return "requires an equi-join with the right side bucketed on the join "
           "key";
  }
  bool Applicable(const JoinQuery& q, const OpenboxInfo&) const override {
    // "If the relation ... is not partitioned by the join key ... then the
    // choices of Bucket Map Join ... can be eliminated."
    return q.is_equi_join && q.right_bucketed_on_key;
  }
  Result<double> Estimate(const JoinQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateBucketMapJoin(q, cat);
  }
};

class SortMergeBucketJoinFormula : public JoinFormula {
 public:
  const char* name() const override { return "sort_merge_bucket_join"; }
  const char* applicability_rule() const override {
    return "requires an equi-join with both sides bucketed on the join key";
  }
  bool Applicable(const JoinQuery& q, const OpenboxInfo&) const override {
    return q.is_equi_join && q.right_bucketed_on_key &&
           q.left_bucketed_on_key;
  }
  Result<double> Estimate(const JoinQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateSortMergeBucketJoin(q, cat);
  }
};

class SkewJoinFormula : public JoinFormula {
 public:
  const char* name() const override { return "skew_join"; }
  const char* applicability_rule() const override {
    return "requires an equi-join with hot-key fraction at or above the "
           "skew threshold";
  }
  bool Applicable(const JoinQuery& q, const OpenboxInfo& info) const override {
    return q.is_equi_join && q.hot_key_fraction >= info.skew_threshold;
  }
  Result<double> Estimate(const JoinQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateSkewJoin(q, cat);
  }
};

Result<double> EstimateMapOnlyScan(const rel::ScanQuery& q,
                                   const SubOpCatalog& cat) {
  const OpenboxInfo& info = cat.info();
  int64_t tasks = info.NumBlocks(q.input.num_rows * q.input.row_bytes);
  double waves = static_cast<double>(info.Waves(tasks));
  double blk = BlockRows(q.input, info);
  double task_out =
      static_cast<double>(q.output_rows) / static_cast<double>(tasks);
  ISPHERE_ASSIGN_OR_RETURN(double rL,
                           cat.Cost(SubOpKind::kReadLocal, q.input.row_bytes));
  ISPHERE_ASSIGN_OR_RETURN(double c,
                           cat.Cost(SubOpKind::kScan, q.input.row_bytes));
  ISPHERE_ASSIGN_OR_RETURN(double wD,
                           cat.Cost(SubOpKind::kWriteDfs, q.projected_bytes));
  return waves * (blk * (rL + c) + wD * task_out) + Overhead(info, waves);
}

class MapOnlyScanFormula : public ScanFormula {
 public:
  const char* name() const override { return "map_only_scan"; }
  const char* applicability_rule() const override {
    return "always applicable";
  }
  bool Applicable(const rel::ScanQuery&, const OpenboxInfo&) const override {
    return true;
  }
  Result<double> Estimate(const rel::ScanQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateMapOnlyScan(q, cat);
  }
};

class HashAggFormula : public AggFormula {
 public:
  const char* name() const override { return "hash_aggregation"; }
  const char* applicability_rule() const override {
    return "requires the group table to fit in task memory";
  }
  bool Applicable(const AggQuery& q, const OpenboxInfo& info) const override {
    return info.HashFits(static_cast<double>(q.output_rows) *
                         static_cast<double>(q.output_row_bytes));
  }
  Result<double> Estimate(const AggQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateHashAgg(q, cat);
  }
};

class SortAggFormula : public AggFormula {
 public:
  const char* name() const override { return "sort_aggregation"; }
  const char* applicability_rule() const override {
    return "applies when the group table exceeds task memory";
  }
  bool Applicable(const AggQuery& q, const OpenboxInfo& info) const override {
    return !info.HashFits(static_cast<double>(q.output_rows) *
                          static_cast<double>(q.output_row_bytes));
  }
  Result<double> Estimate(const AggQuery& q,
                          const SubOpCatalog& cat) const override {
    return EstimateSortAgg(q, cat);
  }
};

}  // namespace

const char* ChoicePolicyName(ChoicePolicy policy) {
  switch (policy) {
    case ChoicePolicy::kWorstCase:
      return "worst_case";
    case ChoicePolicy::kAverage:
      return "average";
    case ChoicePolicy::kInHouseComparable:
      return "in_house_comparable";
  }
  return "unknown";
}

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kForeground:
      return "foreground";
    case RequestPriority::kBackground:
      return "background";
  }
  return "unknown";
}

std::vector<std::unique_ptr<JoinFormula>> HiveJoinFormulas() {
  std::vector<std::unique_ptr<JoinFormula>> v;
  v.push_back(std::make_unique<ShuffleJoinFormula>());
  v.push_back(std::make_unique<BroadcastJoinFormula>());
  v.push_back(std::make_unique<BucketMapJoinFormula>());
  v.push_back(std::make_unique<SortMergeBucketJoinFormula>());
  v.push_back(std::make_unique<SkewJoinFormula>());
  return v;
}

std::vector<std::unique_ptr<AggFormula>> HiveAggFormulas() {
  std::vector<std::unique_ptr<AggFormula>> v;
  v.push_back(std::make_unique<HashAggFormula>());
  v.push_back(std::make_unique<SortAggFormula>());
  return v;
}

std::vector<std::unique_ptr<ScanFormula>> HiveScanFormulas() {
  std::vector<std::unique_ptr<ScanFormula>> v;
  v.push_back(std::make_unique<MapOnlyScanFormula>());
  return v;
}

SubOpCostEstimator::SubOpCostEstimator(
    SubOpCatalog catalog, std::vector<std::unique_ptr<JoinFormula>> joins,
    std::vector<std::unique_ptr<AggFormula>> aggs,
    std::vector<std::unique_ptr<ScanFormula>> scans, ChoicePolicy policy)
    : catalog_(std::move(catalog)),
      join_formulas_(std::move(joins)),
      agg_formulas_(std::move(aggs)),
      scan_formulas_(std::move(scans)),
      policy_(policy) {}

Result<SubOpCostEstimator> SubOpCostEstimator::ForHive(SubOpCatalog catalog,
                                                       ChoicePolicy policy) {
  if (!catalog.HasAllBasic()) {
    return Status::FailedPrecondition(
        "sub-op costing requires all Basic sub-op models (Figure 5)");
  }
  return SubOpCostEstimator(std::move(catalog), HiveJoinFormulas(),
                            HiveAggFormulas(), HiveScanFormulas(), policy);
}

namespace {

/// The shared applicability-filter + estimate loop, resolving `policy` in
/// the same pass over the survivors. Worst case keeps the first maximum and
/// in-house comparable the first minimum (std::max_element's and
/// std::min_element's comparisons, so ties and NaNs resolve as they do);
/// average sums the survivors in order. Eliminations (with reasons) and
/// survivors are listed only under provenance, with one formula span per
/// survivor when tracing.
template <typename Query, typename FormulaVec>
Result<SubOpEstimate> EstimateWith(const FormulaVec& formulas, const Query& q,
                                   const SubOpCatalog& catalog,
                                   ChoicePolicy policy,
                                   const EstimateContext& ctx) {
  SubOpEstimate est;
  est.policy_used = policy;
  const bool provenance = ctx.provenance();
  // One allocation for every survivor instead of one per growth step.
  if (provenance) est.candidates.reserve(formulas.size());
  size_t survivors = 0;
  double sum = 0.0;
  const char* chosen = nullptr;
  for (const auto& f : formulas) {
    if (!f->Applicable(q, catalog.info())) {
      ++est.eliminated_count;
      if (provenance) {
        est.eliminated.push_back({f->name(), f->applicability_rule()});
      }
      continue;
    }
    ISPHERE_ASSIGN_OR_RETURN(double s, f->Estimate(q, catalog));
    if (ctx.tracing()) {
      ctx.StartSpan("estimate.sub_op.formula")
          .SetString("algorithm", f->name())
          .SetDouble("seconds", s);
    }
    if (provenance) est.candidates.push_back({f->name(), s});
    const bool first = survivors++ == 0;
    switch (policy) {
      case ChoicePolicy::kWorstCase:
        if (first || est.seconds < s) {
          est.seconds = s;
          chosen = f->name();
        }
        break;
      case ChoicePolicy::kAverage:
        sum += s;
        chosen = f->name();
        break;
      case ChoicePolicy::kInHouseComparable:
        if (first || s < est.seconds) {
          est.seconds = s;
          chosen = f->name();
        }
        break;
    }
  }
  if (survivors == 0) {
    std::string msg = "no physical algorithm is applicable to this operator";
    // With provenance collected, fold the per-algorithm kill reasons into
    // the status so planners can report *why* a host was eliminated.
    for (const auto& e : est.eliminated) {
      msg += "; " + e.algorithm + ": " + e.reason;
    }
    return Status::FailedPrecondition(msg);
  }
  if (policy == ChoicePolicy::kAverage) {
    est.seconds = sum / static_cast<double>(survivors);
    if (survivors > 1) chosen = "";
  }
  if (chosen != nullptr) est.chosen_algorithm = chosen;
  return est;
}

}  // namespace

Result<SubOpEstimate> SubOpCostEstimator::EstimateJoin(
    const rel::JoinQuery& q, const EstimateContext& ctx) const {
  ISPHERE_RETURN_NOT_OK(q.Validate());
  return EstimateWith(join_formulas_, q, catalog_,
                      ctx.policy_override.value_or(policy_), ctx);
}

Result<SubOpEstimate> SubOpCostEstimator::EstimateAgg(
    const rel::AggQuery& q, const EstimateContext& ctx) const {
  ISPHERE_RETURN_NOT_OK(q.Validate());
  return EstimateWith(agg_formulas_, q, catalog_,
                      ctx.policy_override.value_or(policy_), ctx);
}

Result<SubOpEstimate> SubOpCostEstimator::EstimateScan(
    const rel::ScanQuery& q, const EstimateContext& ctx) const {
  ISPHERE_RETURN_NOT_OK(q.Validate());
  return EstimateWith(scan_formulas_, q, catalog_,
                      ctx.policy_override.value_or(policy_), ctx);
}

Result<SubOpEstimate> SubOpCostEstimator::Estimate(
    const rel::SqlOperator& op, const EstimateContext& ctx) const {
  switch (op.type) {
    case rel::OperatorType::kJoin:
      return EstimateJoin(op.join, ctx);
    case rel::OperatorType::kAggregation:
      return EstimateAgg(op.agg, ctx);
    case rel::OperatorType::kScan:
      return EstimateScan(op.scan, ctx);
  }
  return Status::Internal("unknown operator type");
}

Result<double> SubOpCostEstimator::EstimateJoinAlgorithm(
    const rel::JoinQuery& q, const std::string& algorithm) const {
  ISPHERE_RETURN_NOT_OK(q.Validate());
  for (const auto& f : join_formulas_) {
    if (f->name() == algorithm) return f->Estimate(q, catalog_);
  }
  return Status::NotFound("join formula '" + algorithm + "'");
}

Result<double> SubOpCostEstimator::EstimateAggAlgorithm(
    const rel::AggQuery& q, const std::string& algorithm) const {
  ISPHERE_RETURN_NOT_OK(q.Validate());
  for (const auto& f : agg_formulas_) {
    if (f->name() == algorithm) return f->Estimate(q, catalog_);
  }
  return Status::NotFound("aggregation formula '" + algorithm + "'");
}

}  // namespace intellisphere::core
