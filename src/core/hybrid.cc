#include "core/hybrid.h"

#include <array>
#include <chrono>
#include <memory>
#include <utility>

#include "remote/health.h"
#include "util/thread_pool.h"

namespace intellisphere::core {

namespace {

/// Cached instrument pointers so the per-estimate cost of metrics is a few
/// relaxed atomic adds, not registry lookups. The Global() set is resolved
/// once per process; a context-supplied registry (tests) resolves per call.
struct EstimationInstruments {
  Counter* approach_sub_op = nullptr;
  Counter* approach_logical_op = nullptr;
  Counter* approach_fallback = nullptr;
  Counter* remedy_activations = nullptr;
  Counter* subop_eliminated = nullptr;
  Counter* degraded = nullptr;
  Histogram* latency_us = nullptr;

  EstimationInstruments() = default;
  explicit EstimationInstruments(MetricsRegistry& r)
      : approach_sub_op(r.GetCounter("estimate.approach.sub_op")),
        approach_logical_op(r.GetCounter("estimate.approach.logical_op")),
        approach_fallback(
            r.GetCounter("estimate.approach.fallback_to_sub_op")),
        remedy_activations(r.GetCounter("estimate.remedy.activations")),
        subop_eliminated(r.GetCounter("estimate.subop.eliminated")),
        degraded(r.GetCounter("estimate.degraded")),
        latency_us(r.GetHistogram("estimate.latency_us",
                                  DefaultLatencyBucketsUs())) {}
};

const EstimationInstruments& GlobalInstruments() {
  static const EstimationInstruments* instruments =
      new EstimationInstruments(MetricsRegistry::Global());
  return *instruments;
}

}  // namespace

const char* CostingApproachName(CostingApproach approach) {
  switch (approach) {
    case CostingApproach::kSubOp:
      return "sub_op";
    case CostingApproach::kLogicalOp:
      return "logical_op";
    case CostingApproach::kSubOpThenLogicalOp:
      return "sub_op_then_logical_op";
    case CostingApproach::kPerOperator:
      return "per_operator";
  }
  return "unknown";
}

CostingProfile CostingProfile::SubOpOnly(SubOpCostEstimator estimator) {
  CostingProfile p;
  p.approach_ = CostingApproach::kSubOp;
  p.sub_op_.emplace(std::move(estimator));
  return p;
}

CostingProfile CostingProfile::LogicalOpOnly(
    std::map<rel::OperatorType, LogicalOpModel> models) {
  CostingProfile p;
  p.approach_ = CostingApproach::kLogicalOp;
  p.logical_ = std::move(models);
  return p;
}

CostingProfile CostingProfile::SubOpThenLogicalOp(
    SubOpCostEstimator estimator,
    std::map<rel::OperatorType, LogicalOpModel> models, double switch_time) {
  CostingProfile p;
  p.approach_ = CostingApproach::kSubOpThenLogicalOp;
  p.sub_op_.emplace(std::move(estimator));
  p.logical_ = std::move(models);
  p.switch_time_ = switch_time;
  return p;
}

Result<CostingProfile> CostingProfile::PerOperator(
    SubOpCostEstimator estimator,
    std::map<rel::OperatorType, LogicalOpModel> models,
    std::map<rel::OperatorType, CostingApproach> approaches) {
  for (const auto& [type, approach] : approaches) {
    if (approach != CostingApproach::kSubOp &&
        approach != CostingApproach::kLogicalOp) {
      return Status::InvalidArgument(
          std::string("per-operator routing for ") +
          rel::OperatorTypeName(type) +
          " must be sub_op or logical_op");
    }
    if (approach == CostingApproach::kLogicalOp && !models.count(type)) {
      return Status::InvalidArgument(
          std::string("per-operator routing sends ") +
          rel::OperatorTypeName(type) +
          " to logical-op but no model was provided");
    }
  }
  CostingProfile p;
  p.approach_ = CostingApproach::kPerOperator;
  p.sub_op_.emplace(std::move(estimator));
  p.logical_ = std::move(models);
  p.per_operator_ = std::move(approaches);
  return p;
}

CostingProfile::CostingProfile(CostingProfile&& other) noexcept
    : approach_(other.approach_),
      sub_op_(std::move(other.sub_op_)),
      logical_(std::move(other.logical_)),
      per_operator_(std::move(other.per_operator_)),
      switch_time_(other.switch_time_) {
  for (int i = 0; i < kNumOperatorTypes; ++i) {
    // lint:relaxed-ok(move source is quiescent by contract; no racing writer)
    const double s = other.lkg_seconds_[i].load(std::memory_order_relaxed);
    // lint:relaxed-ok(destination unpublished during construction/assignment)
    lkg_seconds_[i].store(s, std::memory_order_relaxed);
    // lint:relaxed-ok(move source is quiescent by contract; no racing writer)
    const bool v = other.lkg_valid_[i].load(std::memory_order_relaxed);
    // lint:relaxed-ok(destination unpublished during construction/assignment)
    lkg_valid_[i].store(v, std::memory_order_relaxed);
  }
}

CostingProfile& CostingProfile::operator=(CostingProfile&& other) noexcept {
  if (this == &other) return *this;
  approach_ = other.approach_;
  sub_op_ = std::move(other.sub_op_);
  logical_ = std::move(other.logical_);
  per_operator_ = std::move(other.per_operator_);
  switch_time_ = other.switch_time_;
  for (int i = 0; i < kNumOperatorTypes; ++i) {
    // lint:relaxed-ok(move source is quiescent by contract; no racing writer)
    const double s = other.lkg_seconds_[i].load(std::memory_order_relaxed);
    // lint:relaxed-ok(destination unpublished during construction/assignment)
    lkg_seconds_[i].store(s, std::memory_order_relaxed);
    // lint:relaxed-ok(move source is quiescent by contract; no racing writer)
    const bool v = other.lkg_valid_[i].load(std::memory_order_relaxed);
    // lint:relaxed-ok(destination unpublished during construction/assignment)
    lkg_valid_[i].store(v, std::memory_order_relaxed);
  }
  return *this;
}

Result<const SubOpCostEstimator*> CostingProfile::sub_op() const {
  if (!sub_op_.has_value()) {
    return Status::FailedPrecondition("profile has no sub-op estimator");
  }
  return &*sub_op_;
}

Result<const LogicalOpModel*> CostingProfile::logical_model(
    rel::OperatorType type) const {
  auto it = logical_.find(type);
  if (it == logical_.end()) {
    return Status::NotFound(std::string("no logical-op model for ") +
                            rel::OperatorTypeName(type));
  }
  return &it->second;
}

Result<LogicalOpModel*> CostingProfile::logical_model_mutable(
    rel::OperatorType type) {
  auto it = logical_.find(type);
  if (it == logical_.end()) {
    return Status::NotFound(std::string("no logical-op model for ") +
                            rel::OperatorTypeName(type));
  }
  return &it->second;
}

bool CostingProfile::SelectsLogical(rel::OperatorType type, double now) const {
  switch (approach_) {
    case CostingApproach::kSubOp:
      return false;
    case CostingApproach::kLogicalOp:
      return true;
    case CostingApproach::kSubOpThenLogicalOp:
      return now >= switch_time_;
    case CostingApproach::kPerOperator: {
      auto it = per_operator_.find(type);
      return it != per_operator_.end() &&
             it->second == CostingApproach::kLogicalOp;
    }
  }
  return false;
}

Result<HybridEstimate> CostingProfile::Estimate(
    const rel::SqlOperator& op, const EstimateContext& ctx) const {
  return EstimateImpl(op, ctx, /*logical_hint=*/nullptr);
}

std::vector<Result<HybridEstimate>> CostingProfile::EstimateBatch(
    std::span<const EstimateRow> rows) const {
  // Group the rows that the scalar path would serve straight from a
  // logical-op model by operator type, and run each group's forward passes
  // as one batched GEMM per layer. Rows the grouping skips (sub-op routed,
  // degraded, no model, invalid) simply get no hint and take the scalar
  // path inside EstimateImpl.
  struct ModelGroup {
    const LogicalOpModel* model = nullptr;
    std::vector<size_t> rows;
    std::vector<std::vector<double>> features;
    std::vector<LogicalOpEstimate> estimates;
  };
  std::array<ModelGroup, kNumOperatorTypes> groups;
  bool any_model_row = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    const rel::SqlOperator& op = *rows[i].op;
    const EstimateContext& ctx = *rows[i].ctx;
    const int type_idx = static_cast<int>(op.type);
    if (ctx.breaker_open || ctx.admission_degraded ||
        !SelectsLogical(op.type, ctx.now) || type_idx < 0 ||
        type_idx >= kNumOperatorTypes) {
      continue;
    }
    auto model = logical_.find(op.type);
    if (model == logical_.end() || !op.Validate().ok()) continue;
    ModelGroup& g = groups[static_cast<size_t>(type_idx)];
    g.model = &model->second;
    g.rows.push_back(i);
    g.features.push_back(op.LogicalOpFeatures());
    any_model_row = true;
  }
  std::vector<const LogicalOpEstimate*> hints;
  if (any_model_row) hints.assign(rows.size(), nullptr);
  for (ModelGroup& g : groups) {
    // A batch failure leaves the group hintless: the scalar path reproduces
    // the same per-row error with full fidelity.
    if (g.model == nullptr ||
        !g.model->EstimateBatch(g.features, &g.estimates).ok()) {
      continue;
    }
    for (size_t r = 0; r < g.rows.size(); ++r) {
      hints[g.rows[r]] = &g.estimates[r];
    }
  }
  std::vector<Result<HybridEstimate>> out;
  out.reserve(rows.size());
  // Strict row order: last-known-good refreshes land in the same sequence
  // the scalar loop would produce.
  for (size_t i = 0; i < rows.size(); ++i) {
    out.push_back(EstimateImpl(*rows[i].op, *rows[i].ctx,
                               hints.empty() ? nullptr : hints[i]));
  }
  return out;
}

Result<HybridEstimate> CostingProfile::EstimateImpl(
    const rel::SqlOperator& op, const EstimateContext& ctx,
    const LogicalOpEstimate* logical_hint) const {
  ISPHERE_RETURN_NOT_OK(op.Validate());
  // The clock is read only when someone is watching (trace or metrics);
  // the default context takes no timing overhead at all.
  const bool timing = ctx.timing();
  std::chrono::steady_clock::time_point start;
  if (timing) start = std::chrono::steady_clock::now();
  const EstimationInstruments local_instruments =
      ctx.metrics != nullptr ? EstimationInstruments(*ctx.metrics)
                             : EstimationInstruments();
  const EstimationInstruments& inst =
      ctx.metrics != nullptr ? local_instruments : GlobalInstruments();

  TraceSpan root = ctx.StartSpan("estimate");

  bool use_logical = SelectsLogical(op.type, ctx.now);
  // A profile may lack a logical model for this operator type even when the
  // logical path is active (training is per operator); fall back to sub-op.
  bool fell_back = false;
  if (use_logical && !has_logical_model(op.type) && sub_op_.has_value()) {
    use_logical = false;
    fell_back = true;
  }

  // Degradation ladder (DESIGN.md §12, §17). An open breaker means the
  // system has stopped answering, so its logical-op models are no longer
  // receiving tuning feedback; an admission-degraded request must skip the
  // expensive forward pass under overload. Either way: prefer the
  // analytical sub-op formulas, then the last-known-good value, and only
  // then the possibly-stale model — always flagging the answer so no
  // caller mistakes it for full fidelity. The reason prefix names the
  // cause (breaker wins when both apply: it is the stronger signal).
  const int type_idx = static_cast<int>(op.type);
  const bool lkg_ok = type_idx >= 0 && type_idx < kNumOperatorTypes &&
                      lkg_valid_[type_idx].load(std::memory_order_acquire);
  const bool degraded_ctx = ctx.breaker_open || ctx.admission_degraded;
  const char* degrade_cause =
      ctx.breaker_open ? "breaker_open" : "admission_overload";
  std::string degraded_reason;
  bool serve_lkg = false;
  if (degraded_ctx && use_logical) {
    if (sub_op_.has_value()) {
      use_logical = false;
      degraded_reason = std::string(degrade_cause) + ":sub_op";
    } else if (lkg_ok) {
      serve_lkg = true;
      degraded_reason = std::string(degrade_cause) + ":last_known_good";
    } else {
      degraded_reason = std::string(degrade_cause) + ":stale_model";
    }
  }

  if (root.enabled()) {
    root.SetString("operator", rel::OperatorTypeName(op.type))
        .SetDouble("now", ctx.now);
    TraceSpan selection = root.Child("estimate.approach_selection");
    selection.SetString("profile_approach", CostingApproachName(approach_))
        .SetString("selected", use_logical ? "logical_op" : "sub_op")
        .SetBool("fell_back_to_sub_op", fell_back);
    if (approach_ == CostingApproach::kSubOpThenLogicalOp) {
      selection.SetDouble("switch_time", switch_time_);
    }
  }

  HybridEstimate est;
  est.fell_back_to_sub_op = fell_back;
  est.fell_back_reason = degraded_reason;
  if (fell_back) inst.approach_fallback->Increment();
  if (!degraded_reason.empty()) inst.degraded->Increment();
  if (serve_lkg) {
    est.seconds = lkg_seconds_[type_idx].load(std::memory_order_acquire);
    est.approach_used = CostingApproach::kLogicalOp;
  } else if (use_logical) {
    LogicalOpEstimate le;
    if (logical_hint != nullptr) {
      // Precomputed by a batched forward pass over the same features —
      // bit-identical to the scalar model call it replaces.
      le = *logical_hint;
    } else {
      ISPHERE_ASSIGN_OR_RETURN(const LogicalOpModel* model,
                               logical_model(op.type));
      ISPHERE_ASSIGN_OR_RETURN(le, model->Estimate(op.LogicalOpFeatures()));
    }
    est.seconds = le.seconds;
    est.approach_used = CostingApproach::kLogicalOp;
    est.used_remedy = le.used_remedy;
    est.remedy_alpha = le.alpha;
    est.nn_seconds = le.nn_seconds;
    est.remedy_seconds = le.remedy_seconds;
    inst.approach_logical_op->Increment();
    if (le.used_remedy) inst.remedy_activations->Increment();
    if (root.enabled()) {
      root.Child("estimate.logical_op.nn")
          .SetDouble("c1_seconds", le.nn_seconds);
      if (le.used_remedy) {
        root.Child("estimate.logical_op.remedy")
            .SetDouble("c2_seconds", le.remedy_seconds)
            .SetDouble("alpha", le.alpha)
            .SetInt("pivot_dims", static_cast<int64_t>(le.pivot_dims.size()));
      }
    }
  } else {
    ISPHERE_ASSIGN_OR_RETURN(const SubOpCostEstimator* sub, sub_op());
    Result<SubOpEstimate> se_result = sub->Estimate(op, ctx.Under(root));
    if (!se_result.ok() && degraded_ctx && lkg_ok) {
      // Bottom rung: the analytical path failed too, but we have a
      // previously-served good value for this operator type.
      est.seconds = lkg_seconds_[type_idx].load(std::memory_order_acquire);
      est.approach_used = CostingApproach::kSubOp;
      est.fell_back_reason = std::string(degrade_cause) + ":last_known_good";
      if (degraded_reason.empty()) inst.degraded->Increment();
    } else {
      ISPHERE_ASSIGN_OR_RETURN(SubOpEstimate se, std::move(se_result));
      est.seconds = se.seconds;
      est.approach_used = CostingApproach::kSubOp;
      est.algorithm = std::move(se.chosen_algorithm);
      est.eliminated_count = se.eliminated_count;
      est.eliminated = std::move(se.eliminated);
      if (ctx.provenance()) est.candidates = std::move(se.candidates);
      inst.approach_sub_op->Increment();
      if (se.eliminated_count > 0) {
        inst.subop_eliminated->Increment(se.eliminated_count);
      }
    }
  }

  // Refresh the last-known-good cell from full-fidelity answers only; a
  // degraded answer must never become tomorrow's "known good".
  if (est.fell_back_reason.empty() && type_idx >= 0 &&
      type_idx < kNumOperatorTypes) {
    // lint:relaxed-ok(fenced by the following lkg_valid_ release store)
    lkg_seconds_[type_idx].store(est.seconds, std::memory_order_relaxed);
    lkg_valid_[type_idx].store(true, std::memory_order_release);
  }

  if (root.enabled()) {
    root.SetDouble("seconds", est.seconds)
        .SetString("approach", CostingApproachName(est.approach_used));
    if (!est.algorithm.empty()) root.SetString("algorithm", est.algorithm);
    if (est.used_remedy) root.SetBool("used_remedy", true);
    if (!est.fell_back_reason.empty()) {
      root.SetString("fell_back_reason", est.fell_back_reason);
    }
  }
  if (timing) {
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    inst.latency_us->Observe(us);
    root.SetDouble("elapsed_us", us);
  }
  return est;
}

Status CostingProfile::LogActual(const rel::SqlOperator& op,
                                 double actual_seconds) {
  auto it = logical_.find(op.type);
  if (it == logical_.end()) return Status::OK();
  return it->second.LogExecution(op.LogicalOpFeatures(), actual_seconds);
}

Status CostingProfile::OfflineTune() {
  for (LogicalOpModel* model : TunableModels()) {
    ISPHERE_RETURN_NOT_OK(model->OfflineTune());
  }
  return Status::OK();
}

std::vector<LogicalOpModel*> CostingProfile::TunableModels() {
  std::vector<LogicalOpModel*> models;
  for (auto& [type, model] : logical_) {
    if (model.log_size() > 0) models.push_back(&model);
  }
  return models;
}

void CostingProfile::Save(const std::string& prefix,
                          Properties* props) const {
  props->SetInt(prefix + "approach", static_cast<int64_t>(approach_));
  props->SetDouble(prefix + "switch_time", switch_time_);
  props->SetBool(prefix + "has_sub_op", sub_op_.has_value());
  if (sub_op_.has_value()) {
    // The formula family is currently always Hive-shaped (Section 7's
    // proof of concept); record it so Load can reconstruct the formulas.
    props->SetString(prefix + "formula_family", "hive");
    props->SetInt(prefix + "policy",
                  static_cast<int64_t>(sub_op_->policy()));
    sub_op_->catalog().Save(prefix + "catalog_", props);
  }
  props->SetInt(prefix + "num_logical",
                static_cast<int64_t>(logical_.size()));
  int i = 0;
  for (const auto& [type, model] : logical_) {
    model.Save(prefix + "model" + std::to_string(i++) + "_", props);
  }
  std::vector<double> routing;
  for (const auto& [type, approach] : per_operator_) {
    routing.push_back(static_cast<double>(type));
    routing.push_back(static_cast<double>(approach));
  }
  props->SetDoubleList(prefix + "per_operator", routing);
}

Result<CostingProfile> CostingProfile::Load(const std::string& prefix,
                                            const Properties& props) {
  CostingProfile p;
  ISPHERE_ASSIGN_OR_RETURN(int64_t approach,
                           props.GetInt(prefix + "approach"));
  if (approach < 0 ||
      approach > static_cast<int64_t>(CostingApproach::kPerOperator)) {
    return Status::InvalidArgument("invalid serialized costing approach");
  }
  p.approach_ = static_cast<CostingApproach>(approach);
  ISPHERE_ASSIGN_OR_RETURN(p.switch_time_,
                           props.GetDouble(prefix + "switch_time"));
  ISPHERE_ASSIGN_OR_RETURN(bool has_sub_op,
                           props.GetBool(prefix + "has_sub_op"));
  if (has_sub_op) {
    ISPHERE_ASSIGN_OR_RETURN(std::string family,
                             props.GetString(prefix + "formula_family"));
    if (family != "hive") {
      return Status::Unsupported("unknown formula family '" + family + "'");
    }
    ISPHERE_ASSIGN_OR_RETURN(int64_t policy,
                             props.GetInt(prefix + "policy"));
    ISPHERE_ASSIGN_OR_RETURN(SubOpCatalog catalog,
                             SubOpCatalog::Load(prefix + "catalog_", props));
    ISPHERE_ASSIGN_OR_RETURN(
        SubOpCostEstimator est,
        SubOpCostEstimator::ForHive(std::move(catalog),
                                    static_cast<ChoicePolicy>(policy)));
    p.sub_op_.emplace(std::move(est));
  }
  ISPHERE_ASSIGN_OR_RETURN(int64_t n, props.GetInt(prefix + "num_logical"));
  for (int64_t i = 0; i < n; ++i) {
    ISPHERE_ASSIGN_OR_RETURN(
        LogicalOpModel model,
        LogicalOpModel::Load(prefix + "model" + std::to_string(i) + "_",
                             props));
    rel::OperatorType type = model.type();
    p.logical_.emplace(type, std::move(model));
  }
  ISPHERE_ASSIGN_OR_RETURN(std::vector<double> routing,
                           props.GetDoubleList(prefix + "per_operator"));
  if (routing.size() % 2 != 0) {
    return Status::InvalidArgument("invalid per-operator routing");
  }
  for (size_t i = 0; i < routing.size(); i += 2) {
    p.per_operator_[static_cast<rel::OperatorType>(
        static_cast<int>(routing[i]))] =
        static_cast<CostingApproach>(static_cast<int>(routing[i + 1]));
  }
  return p;
}

Status CostEstimator::RegisterSystem(const std::string& system_name,
                                     CostingProfile profile) {
  if (profiles_.count(system_name)) {
    return Status::AlreadyExists("system '" + system_name +
                                 "' already has a costing profile");
  }
  profiles_.emplace(system_name, std::move(profile));
  BumpEpoch();
  return Status::OK();
}

bool CostEstimator::HasSystem(const std::string& system_name) const {
  return profiles_.count(system_name) > 0;
}

Result<HybridEstimate> CostEstimator::Estimate(
    const std::string& system_name, const rel::SqlOperator& op,
    const EstimateContext& ctx) const {
  ISPHERE_ASSIGN_OR_RETURN(const CostingProfile* p, GetProfile(system_name));
  // Health consult: a context carrying a registry gets the degradation
  // ladder when this system's breaker is open at `now`. A context that
  // already decided (breaker_open set by the serving layer) is respected.
  if (ctx.health != nullptr && !ctx.breaker_open &&
      ctx.health->IsOpen(system_name, ctx.now)) {
    EstimateContext degraded = ctx;
    degraded.breaker_open = true;
    return p->Estimate(op, degraded);
  }
  return p->Estimate(op, ctx);
}

std::vector<Result<HybridEstimate>> CostEstimator::EstimateBatch(
    std::span<const EstimateRow> rows) const {
  const size_t n = rows.size();
  // Every slot is overwritten below. The placeholder's message fits the
  // string's inline buffer, so pre-filling allocates nothing per row.
  std::vector<Result<HybridEstimate>> out(
      n, Result<HybridEstimate>(Status::Internal("not estimated")));
  // Resolve each row's profile and, as Estimate does, its breaker state.
  // Profiles are memoized per distinct system (the first kMemoSize of
  // them; past that the last entry is replaced), so interleaved systems
  // cost one find each. Degraded context copies live in `degraded`,
  // reserved once so the pointers handed down stay valid for the batch.
  std::vector<const CostingProfile*> profile_of(n, nullptr);
  std::vector<EstimateRow> resolved(rows.begin(), rows.end());
  std::vector<EstimateContext> degraded;
  constexpr size_t kMemoSize = 4;
  std::array<std::pair<const std::string*, const CostingProfile*>, kMemoSize>
      memo;
  size_t memo_size = 0;
  for (size_t i = 0; i < n; ++i) {
    const EstimateRow& row = rows[i];
    size_t m = 0;
    while (m < memo_size && *memo[m].first != *row.system) ++m;
    if (m == memo_size) {
      if (memo_size < kMemoSize) ++memo_size;
      m = memo_size - 1;
      auto it = profiles_.find(*row.system);
      memo[m] = {row.system, it == profiles_.end() ? nullptr : &it->second};
    }
    const CostingProfile* memo_profile = memo[m].second;
    if (memo_profile == nullptr) {
      out[i] = GetProfile(*row.system).status();
      continue;
    }
    profile_of[i] = memo_profile;
    const EstimateContext& ctx = *row.ctx;
    if (ctx.health != nullptr && !ctx.breaker_open &&
        ctx.health->IsOpen(*row.system, ctx.now)) {
      if (degraded.empty()) degraded.reserve(n);
      degraded.push_back(ctx);
      degraded.back().breaker_open = true;
      resolved[i].ctx = &degraded.back();
    }
  }
  // Hand each profile its rows in row order, profiles in order of first
  // appearance; a row is cleared from profile_of once taken.
  std::vector<EstimateRow> batch;
  std::vector<size_t> origin;
  batch.reserve(n);
  origin.reserve(n);
  for (size_t first = 0; first < n; ++first) {
    const CostingProfile* p = profile_of[first];
    if (p == nullptr) continue;
    batch.clear();
    origin.clear();
    for (size_t i = first; i < n; ++i) {
      if (profile_of[i] != p) continue;
      batch.push_back(resolved[i]);
      origin.push_back(i);
      profile_of[i] = nullptr;
    }
    std::vector<Result<HybridEstimate>> results = p->EstimateBatch(batch);
    if (origin.size() == n) return results;  // one profile took every row
    for (size_t k = 0; k < origin.size(); ++k) {
      out[origin[k]] = std::move(results[k]);
    }
  }
  return out;
}

Status CostEstimator::LogActual(const std::string& system_name,
                                const rel::SqlOperator& op,
                                double actual_seconds) {
  // GetProfileMutable below already bumps the model epoch, which covers
  // both feedback entry points: the execution log feeds the online remedy,
  // so a LogActual can change subsequent estimates.
  ISPHERE_ASSIGN_OR_RETURN(CostingProfile * p,
                           GetProfileMutable(system_name));
  return p->LogActual(op, actual_seconds);
}

Status CostEstimator::OfflineTune(const std::string& system_name) {
  ISPHERE_ASSIGN_OR_RETURN(CostingProfile * p,
                           GetProfileMutable(system_name));
  return p->OfflineTune();
}

Status CostEstimator::OfflineTuneAll(int jobs) {
  return OfflineTuneAll(jobs, /*min_success_fraction=*/1.0);
}

Status CostEstimator::OfflineTuneAll(int jobs, double min_success_fraction) {
  if (jobs < 1) return Status::InvalidArgument("jobs must be >= 1");
  if (!(min_success_fraction > 0.0) || min_success_fraction > 1.0) {
    return Status::InvalidArgument(
        "min_success_fraction must be in (0, 1]");
  }
  BumpEpoch();
  std::vector<LogicalOpModel*> models;
  for (auto& [name, profile] : profiles_) {
    for (LogicalOpModel* model : profile.TunableModels()) {
      models.push_back(model);
    }
  }
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);
  std::vector<Status> statuses = RunIndexed(
      pool.get(), models.size(),
      [&](size_t i) { return models[i]->OfflineTune(); });
  int64_t failed = 0;
  Status first_error = Status::OK();
  for (Status& s : statuses) {
    if (!s.ok()) {
      ++failed;
      if (first_error.ok()) first_error = std::move(s);
    }
  }
  if (failed == 0) return Status::OK();
  const double success_fraction =
      1.0 - static_cast<double>(failed) / static_cast<double>(models.size());
  if (min_success_fraction >= 1.0 || success_fraction < min_success_fraction) {
    return first_error;
  }
  return Status::OK();
}

Status TrainAndRegisterLogicalProfiles(CostEstimator* estimator,
                                       std::vector<LogicalTrainingJob> jobs,
                                       int num_jobs) {
  if (estimator == nullptr) return Status::InvalidArgument("null estimator");
  if (jobs.empty()) return Status::InvalidArgument("no training jobs");
  if (num_jobs < 1) return Status::InvalidArgument("num_jobs must be >= 1");
  for (size_t i = 0; i < jobs.size(); ++i) {
    for (size_t j = i + 1; j < jobs.size(); ++j) {
      if (jobs[i].system_name == jobs[j].system_name &&
          jobs[i].type == jobs[j].type) {
        return Status::InvalidArgument(
            "duplicate training job for system '" + jobs[i].system_name +
            "' operator " + rel::OperatorTypeName(jobs[i].type));
      }
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (num_jobs > 1) pool = std::make_unique<ThreadPool>(num_jobs);
  std::vector<Result<LogicalOpModel>> trained =
      RunIndexed(pool.get(), jobs.size(), [&](size_t i) {
        const LogicalTrainingJob& job = jobs[i];
        return LogicalOpModel::Train(job.type, job.data, job.dim_names,
                                     job.opts);
      });

  // Group the models per system in first-appearance order, then register.
  std::vector<std::string> order;
  std::map<std::string, std::map<rel::OperatorType, LogicalOpModel>> grouped;
  for (size_t i = 0; i < trained.size(); ++i) {
    ISPHERE_ASSIGN_OR_RETURN(LogicalOpModel model, std::move(trained[i]));
    if (!grouped.count(jobs[i].system_name)) {
      order.push_back(jobs[i].system_name);
    }
    grouped[jobs[i].system_name].emplace(jobs[i].type, std::move(model));
  }
  for (const std::string& name : order) {
    ISPHERE_RETURN_NOT_OK(estimator->RegisterSystem(
        name, CostingProfile::LogicalOpOnly(std::move(grouped[name]))));
  }
  return Status::OK();
}

Result<const CostingProfile*> CostEstimator::GetProfile(
    const std::string& system_name) const {
  auto it = profiles_.find(system_name);
  if (it == profiles_.end()) {
    return Status::NotFound("no costing profile for system '" + system_name +
                            "'");
  }
  return &it->second;
}

Result<CostingProfile*> CostEstimator::GetProfileMutable(
    const std::string& system_name) {
  auto it = profiles_.find(system_name);
  if (it == profiles_.end()) {
    return Status::NotFound("no costing profile for system '" + system_name +
                            "'");
  }
  // Handing out mutable access pessimistically invalidates cached
  // estimates: the caller may retune or swap models behind our back.
  BumpEpoch();
  return &it->second;
}

}  // namespace intellisphere::core
