// Sub-operator costing (Section 4): learn per-record linear cost models for
// primitive building-block operators (Figure 5) from a handful of probe
// queries, then compose analytical formulas per physical algorithm
// (core/formulas.h).
//
// Calibration follows the paper's methodology: no instrumentation inside
// the remote system; primitive queries are submitted and sub-op costs are
// extracted by subtraction (e.g. wD = t(read+write) - t(read)). Because
// probe queries run in parallel task waves, per-record *work* is recovered
// by normalizing the subtracted elapsed time by waves * rows-per-task —
// structural facts an openbox profile knows (block size, slot count).

#ifndef INTELLISPHERE_CORE_SUB_OP_H_
#define INTELLISPHERE_CORE_SUB_OP_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ml/linear_regression.h"
#include "remote/remote_system.h"
#include "util/properties.h"
#include "util/status.h"

namespace intellisphere::core {

/// The sub-operators of Figure 5.
enum class SubOpKind {
  // Basic (mandatory).
  kReadDfs,     ///< rD: read a record from the distributed file system
  kWriteDfs,    ///< wD: write a record to the distributed file system
  kReadLocal,   ///< rL: read a record from the local file system
  kWriteLocal,  ///< wL: write a record to the local file system
  kShuffle,     ///< f: shuffle a record between machines
  kBroadcast,   ///< b: broadcast a record to all machines
  // Specific (optional).
  kSort,       ///< o: main-memory sort cost per record per comparison
  kScan,       ///< c: main-memory scan cost per record
  kHashBuild,  ///< hI: insert a record into a hash table (two regimes)
  kHashProbe,  ///< hP: probe a hash table
  kRecMerge,   ///< m: merge two records
};
inline constexpr size_t kNumSubOpKinds =
    static_cast<size_t>(SubOpKind::kRecMerge) + 1;

const char* SubOpKindName(SubOpKind kind);

/// All Figure-5 sub-ops, basic first.
std::vector<SubOpKind> AllSubOpKinds();
bool IsBasicSubOp(SubOpKind kind);

/// A calibrated sub-op: per-record seconds as a linear function of record
/// size. Hash build carries a second regime line used when the build input
/// does not fit in task memory (Fig 13(f)). A model is immutable: each line
/// is resolved to its (intercept, slope) pair once, when the model is built,
/// so a cost is one multiply-add on the formulas' hot path.
class SubOpModel {
 public:
  SubOpModel() = default;
  explicit SubOpModel(ml::LinearRegression line)
      : line_(std::move(line)), fit_(ResolvedLine::Of(line_)) {}
  SubOpModel(ml::LinearRegression fit_line, ml::LinearRegression spill_line)
      : line_(std::move(fit_line)),
        spill_line_(std::move(spill_line)),
        two_regime_(true),
        fit_(ResolvedLine::Of(line_)),
        spill_(ResolvedLine::Of(spill_line_)) {}

  /// Per-record cost in seconds: the selected line's Predict1D, clamped at
  /// 0, bit for bit. `fits_in_memory` selects the regime for two-regime
  /// models and is ignored otherwise. InvalidArgument when that line is not
  /// one-feature, as Predict1D.
  [[nodiscard]] Result<double> PerRecordSeconds(
      int64_t record_bytes, bool fits_in_memory = true) const {
    const ResolvedLine& l = (two_regime_ && !fits_in_memory) ? spill_ : fit_;
    if (!l.one_feature) {
      return Status::InvalidArgument("predict width mismatch");
    }
    // Predict1D's arithmetic, in its order.
    double s = l.intercept;
    s += l.slope * static_cast<double>(record_bytes);
    return std::max(0.0, s);
  }

  bool two_regime() const { return two_regime_; }
  const ml::LinearRegression& line() const { return line_; }
  const ml::LinearRegression& spill_line() const { return spill_line_; }

  void Save(const std::string& prefix, Properties* props) const;
  [[nodiscard]] static Result<SubOpModel> Load(const std::string& prefix,
                                               const Properties& props);

 private:
  /// A 1-D line's coefficients; one_feature is false for any other width.
  struct ResolvedLine {
    double intercept = 0.0;
    double slope = 0.0;
    bool one_feature = false;
    static ResolvedLine Of(const ml::LinearRegression& lr) {
      if (lr.num_features() != 1) return {};
      return {lr.intercept(), lr.weights()[0], true};
    }
  };

  ml::LinearRegression line_;
  ml::LinearRegression spill_line_;
  bool two_regime_ = false;
  ResolvedLine fit_;
  ResolvedLine spill_;
};

/// Openbox structural knowledge injected by technical experts when the
/// remote system registers (part of its profile).
struct OpenboxInfo {
  int64_t dfs_block_bytes = 128LL * 1024 * 1024;
  int total_slots = 6;
  int num_worker_nodes = 3;
  double task_memory_bytes = 0.0;
  /// In-memory expansion of hash tables relative to raw input bytes.
  double hash_table_expansion = 1.5;
  /// Largest raw right-side bytes the engine's planner will broadcast.
  double broadcast_threshold_bytes = 0.0;
  /// Hot-key fraction at which the engine switches to its skew handling.
  double skew_threshold = 0.30;
  /// Reduce tasks per shuffle stage (0 = one per slot).
  int num_reducers = 0;
  /// Fixed job overhead model: seconds = intercept + per_wave * task waves
  /// (calibrated from no-op probes).
  double job_overhead_intercept = 0.0;
  double job_overhead_per_wave = 0.0;

  int64_t NumBlocks(int64_t bytes) const;
  int64_t Waves(int64_t num_tasks) const;
  int Reducers() const { return num_reducers > 0 ? num_reducers : total_slots; }
  /// Whether a hash table over `raw_bytes` fits one task's memory.
  bool HashFits(double raw_bytes) const;

  void Save(const std::string& prefix, Properties* props) const;
  [[nodiscard]] static Result<OpenboxInfo> Load(const std::string& prefix,
                                                const Properties& props);
};

/// The calibrated sub-op models of one remote system plus its openbox info.
class SubOpCatalog {
 public:
  SubOpCatalog() = default;
  explicit SubOpCatalog(OpenboxInfo info) : info_(info) {}

  void Put(SubOpKind kind, SubOpModel model);
  bool Contains(SubOpKind kind) const { return Find(kind) != nullptr; }
  [[nodiscard]] Result<const SubOpModel*> Get(SubOpKind kind) const;

  /// Per-record seconds of a sub-op at the given record size. When a
  /// Specific (optional) sub-op was never calibrated, a rough built-in
  /// default is used instead — Section 4: missing them "is not a hinder
  /// ... IntelliSphere can provide rough default values for them". Missing
  /// Basic sub-ops remain a NotFound error.
  [[nodiscard]] Result<double> Cost(SubOpKind kind, int64_t record_bytes,
                                    bool fits_in_memory = true) const {
    const SubOpModel* m = Find(kind);
    if (m == nullptr) return Missing(kind, record_bytes);
    return m->PerRecordSeconds(record_bytes, fits_in_memory);
  }

  /// The rough built-in default for a Specific sub-op, in seconds per
  /// record; InvalidArgument for Basic sub-ops (they are mandatory).
  [[nodiscard]] static Result<double> DefaultSpecificCost(SubOpKind kind,
                                                          int64_t record_bytes);

  const OpenboxInfo& info() const { return info_; }
  OpenboxInfo& info_mutable() { return info_; }

  /// Whether every Basic sub-op has a model — the minimum for the sub-op
  /// approach to make sense (Section 4).
  bool HasAllBasic() const;

  void Save(const std::string& prefix, Properties* props) const;
  [[nodiscard]] static Result<SubOpCatalog> Load(const std::string& prefix,
                                                 const Properties& props);

 private:
  /// The model of `kind`, or null when it has none (or `kind` is not a
  /// Figure-5 sub-op).
  const SubOpModel* Find(SubOpKind kind) const {
    const size_t i = static_cast<size_t>(kind);
    return i < models_.size() && models_[i].has_value() ? &*models_[i]
                                                        : nullptr;
  }
  /// Cost's answer for a kind without a model: the Specific default, else
  /// NotFound.
  static Result<double> Missing(SubOpKind kind, int64_t record_bytes);

  OpenboxInfo info_;
  /// Indexed by SubOpKind.
  std::array<std::optional<SubOpModel>, kNumSubOpKinds> models_;
};

/// Calibration grid and bookkeeping.
struct CalibrationOptions {
  std::vector<int64_t> record_sizes = {40, 100, 250, 500, 1000};
  std::vector<int64_t> record_counts = {1000000, 2000000, 4000000, 8000000};
};

/// Result of a calibration run.
struct CalibrationRun {
  SubOpCatalog catalog;
  int64_t probe_queries = 0;
  double total_seconds = 0.0;  ///< simulated training time (Fig 13(a))
  /// Grid cells skipped because a probe failed transiently (the whole
  /// cell is dropped: the subtraction chains need all 12 probes).
  int64_t failed_cells = 0;
  /// Specific sub-ops left uncalibrated (too few surviving measurements);
  /// the catalog serves its rough built-in default for them — provenance
  /// for "this number is a default, not a fit".
  std::vector<SubOpKind> defaulted;
  /// Raw per-record measurements per sub-op: (record_bytes, seconds,
  /// record_count, fits_in_memory) — the scatter behind Fig 7/13.
  struct Point {
    int64_t record_bytes = 0;
    int64_t record_count = 0;
    double seconds_per_record = 0.0;
    bool fits_in_memory = true;
  };
  std::map<SubOpKind, std::vector<Point>> points;
};

/// Runs the probe workload on an openbox system and fits all sub-op models.
/// `info` supplies the structural knowledge (block size, slots, memory);
/// its overhead model fields are filled in by the calibration itself.
///
/// Fault tolerance: a grid cell whose probe fails with a retryable error
/// (Unavailable / DeadlineExceeded) is skipped and counted in
/// `failed_cells`; non-retryable probe errors abort. Basic sub-ops must
/// still fit from the surviving cells (FailedPrecondition otherwise);
/// Specific sub-ops that cannot be fitted fall back to their built-in
/// defaults and are listed in `defaulted`.
[[nodiscard]] Result<CalibrationRun> CalibrateSubOps(remote::RemoteSystem* system,
                                                     OpenboxInfo info,
                                                     const CalibrationOptions& options);

}  // namespace intellisphere::core

#endif  // INTELLISPHERE_CORE_SUB_OP_H_
