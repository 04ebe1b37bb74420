#include "core/sub_op.h"

#include <algorithm>
#include <cmath>

namespace intellisphere::core {

namespace {

using remote::ProbeKind;
using remote::RemoteSystem;

const SubOpKind kAllKinds[] = {
    SubOpKind::kReadDfs,   SubOpKind::kWriteDfs,  SubOpKind::kReadLocal,
    SubOpKind::kWriteLocal, SubOpKind::kShuffle,  SubOpKind::kBroadcast,
    SubOpKind::kSort,      SubOpKind::kScan,      SubOpKind::kHashBuild,
    SubOpKind::kHashProbe, SubOpKind::kRecMerge,
};

}  // namespace

const char* SubOpKindName(SubOpKind kind) {
  switch (kind) {
    case SubOpKind::kReadDfs:
      return "read_dfs";
    case SubOpKind::kWriteDfs:
      return "write_dfs";
    case SubOpKind::kReadLocal:
      return "read_local";
    case SubOpKind::kWriteLocal:
      return "write_local";
    case SubOpKind::kShuffle:
      return "shuffle";
    case SubOpKind::kBroadcast:
      return "broadcast";
    case SubOpKind::kSort:
      return "sort";
    case SubOpKind::kScan:
      return "scan";
    case SubOpKind::kHashBuild:
      return "hash_build";
    case SubOpKind::kHashProbe:
      return "hash_probe";
    case SubOpKind::kRecMerge:
      return "rec_merge";
  }
  return "unknown";
}

std::vector<SubOpKind> AllSubOpKinds() {
  return std::vector<SubOpKind>(std::begin(kAllKinds), std::end(kAllKinds));
}

bool IsBasicSubOp(SubOpKind kind) {
  switch (kind) {
    case SubOpKind::kReadDfs:
    case SubOpKind::kWriteDfs:
    case SubOpKind::kReadLocal:
    case SubOpKind::kWriteLocal:
    case SubOpKind::kShuffle:
    case SubOpKind::kBroadcast:
      return true;
    default:
      return false;
  }
}

void SubOpModel::Save(const std::string& prefix, Properties* props) const {
  props->SetBool(prefix + "two_regime", two_regime_);
  line_.Save(prefix + "fit_", props);
  if (two_regime_) spill_line_.Save(prefix + "spill_", props);
}

Result<SubOpModel> SubOpModel::Load(const std::string& prefix,
                                    const Properties& props) {
  ISPHERE_ASSIGN_OR_RETURN(bool two_regime,
                           props.GetBool(prefix + "two_regime"));
  ISPHERE_ASSIGN_OR_RETURN(ml::LinearRegression line,
                           ml::LinearRegression::Load(prefix + "fit_", props));
  if (!two_regime) return SubOpModel(std::move(line));
  ISPHERE_ASSIGN_OR_RETURN(
      ml::LinearRegression spill_line,
      ml::LinearRegression::Load(prefix + "spill_", props));
  return SubOpModel(std::move(line), std::move(spill_line));
}

int64_t OpenboxInfo::NumBlocks(int64_t bytes) const {
  if (bytes <= 0) return 0;
  return std::max<int64_t>(1,
                           (bytes + dfs_block_bytes - 1) / dfs_block_bytes);
}

int64_t OpenboxInfo::Waves(int64_t num_tasks) const {
  if (num_tasks <= 0 || total_slots <= 0) return 0;
  return (num_tasks + total_slots - 1) / total_slots;
}

bool OpenboxInfo::HashFits(double raw_bytes) const {
  return raw_bytes * hash_table_expansion <= task_memory_bytes;
}

void OpenboxInfo::Save(const std::string& prefix, Properties* props) const {
  props->SetInt(prefix + "dfs_block_bytes", dfs_block_bytes);
  props->SetInt(prefix + "total_slots", total_slots);
  props->SetInt(prefix + "num_worker_nodes", num_worker_nodes);
  props->SetDouble(prefix + "task_memory_bytes", task_memory_bytes);
  props->SetDouble(prefix + "hash_table_expansion", hash_table_expansion);
  props->SetDouble(prefix + "broadcast_threshold_bytes",
                   broadcast_threshold_bytes);
  props->SetDouble(prefix + "skew_threshold", skew_threshold);
  props->SetInt(prefix + "num_reducers", num_reducers);
  props->SetDouble(prefix + "job_overhead_intercept", job_overhead_intercept);
  props->SetDouble(prefix + "job_overhead_per_wave", job_overhead_per_wave);
}

Result<OpenboxInfo> OpenboxInfo::Load(const std::string& prefix,
                                      const Properties& props) {
  OpenboxInfo info;
  ISPHERE_ASSIGN_OR_RETURN(info.dfs_block_bytes,
                           props.GetInt(prefix + "dfs_block_bytes"));
  ISPHERE_ASSIGN_OR_RETURN(int64_t slots,
                           props.GetInt(prefix + "total_slots"));
  ISPHERE_ASSIGN_OR_RETURN(int64_t nodes,
                           props.GetInt(prefix + "num_worker_nodes"));
  info.total_slots = static_cast<int>(slots);
  info.num_worker_nodes = static_cast<int>(nodes);
  ISPHERE_ASSIGN_OR_RETURN(info.task_memory_bytes,
                           props.GetDouble(prefix + "task_memory_bytes"));
  ISPHERE_ASSIGN_OR_RETURN(info.hash_table_expansion,
                           props.GetDouble(prefix + "hash_table_expansion"));
  ISPHERE_ASSIGN_OR_RETURN(
      info.broadcast_threshold_bytes,
      props.GetDouble(prefix + "broadcast_threshold_bytes"));
  ISPHERE_ASSIGN_OR_RETURN(info.skew_threshold,
                           props.GetDouble(prefix + "skew_threshold"));
  ISPHERE_ASSIGN_OR_RETURN(int64_t reducers,
                           props.GetInt(prefix + "num_reducers"));
  info.num_reducers = static_cast<int>(reducers);
  ISPHERE_ASSIGN_OR_RETURN(info.job_overhead_intercept,
                           props.GetDouble(prefix + "job_overhead_intercept"));
  ISPHERE_ASSIGN_OR_RETURN(info.job_overhead_per_wave,
                           props.GetDouble(prefix + "job_overhead_per_wave"));
  return info;
}

void SubOpCatalog::Put(SubOpKind kind, SubOpModel model) {
  models_.at(static_cast<size_t>(kind)) = std::move(model);
}

Result<const SubOpModel*> SubOpCatalog::Get(SubOpKind kind) const {
  const SubOpModel* m = Find(kind);
  if (m == nullptr) {
    return Status::NotFound(std::string("sub-op model '") +
                            SubOpKindName(kind) + "'");
  }
  return m;
}

Result<double> SubOpCatalog::Missing(SubOpKind kind, int64_t record_bytes) {
  if (!IsBasicSubOp(kind)) return DefaultSpecificCost(kind, record_bytes);
  return Status::NotFound(std::string("sub-op model '") + SubOpKindName(kind) +
                          "'");
}

Result<double> SubOpCatalog::DefaultSpecificCost(SubOpKind kind,
                                                 int64_t record_bytes) {
  if (IsBasicSubOp(kind)) {
    return Status::InvalidArgument(
        std::string("basic sub-op '") + SubOpKindName(kind) +
        "' is mandatory and has no default (Figure 5)");
  }
  // Rough per-record defaults for commodity shared-nothing hardware, in
  // microseconds: an intercept plus a small per-byte term. They are meant
  // to keep formulas usable, not to be accurate — calibrate when possible.
  double intercept_us = 0.0, slope_us = 0.0;
  switch (kind) {
    case SubOpKind::kSort:  // per record per comparison
      intercept_us = 0.05;
      slope_us = 0.0004;
      break;
    case SubOpKind::kScan:
      intercept_us = 0.1;
      slope_us = 0.0006;
      break;
    case SubOpKind::kHashBuild:
      intercept_us = 20.0;
      slope_us = 0.025;
      break;
    case SubOpKind::kHashProbe:
      intercept_us = 1.0;
      slope_us = 0.001;
      break;
    case SubOpKind::kRecMerge:
      intercept_us = 40.0;
      slope_us = 0.035;
      break;
    default:
      return Status::Internal("unhandled specific sub-op");
  }
  return (intercept_us + slope_us * static_cast<double>(record_bytes)) * 1e-6;
}

bool SubOpCatalog::HasAllBasic() const {
  for (SubOpKind k : AllSubOpKinds()) {
    if (IsBasicSubOp(k) && !Contains(k)) return false;
  }
  return true;
}

void SubOpCatalog::Save(const std::string& prefix, Properties* props) const {
  info_.Save(prefix + "info_", props);
  for (SubOpKind kind : kAllKinds) {
    const SubOpModel* model = Find(kind);
    if (model == nullptr) continue;
    props->SetBool(prefix + std::string("has_") + SubOpKindName(kind), true);
    model->Save(prefix + SubOpKindName(kind) + "_", props);
  }
}

Result<SubOpCatalog> SubOpCatalog::Load(const std::string& prefix,
                                        const Properties& props) {
  SubOpCatalog catalog;
  ISPHERE_ASSIGN_OR_RETURN(catalog.info_,
                           OpenboxInfo::Load(prefix + "info_", props));
  for (SubOpKind kind : AllSubOpKinds()) {
    if (!props.Contains(prefix + std::string("has_") + SubOpKindName(kind))) {
      continue;
    }
    ISPHERE_ASSIGN_OR_RETURN(
        SubOpModel m,
        SubOpModel::Load(prefix + SubOpKindName(kind) + "_", props));
    catalog.Put(kind, std::move(m));
  }
  return catalog;
}

namespace {

/// Fits a per-record line against record size from calibration points,
/// averaging measurements across record counts per size (the paper's
/// flat-across-counts observation, Fig 7(a)/13(b)).
Result<ml::LinearRegression> FitLineFromPoints(
    const std::vector<CalibrationRun::Point>& pts) {
  std::map<int64_t, std::pair<double, int>> by_size;  // size -> (sum, n)
  for (const auto& p : pts) {
    auto& acc = by_size[p.record_bytes];
    acc.first += p.seconds_per_record;
    acc.second += 1;
  }
  std::vector<double> xs, ys;
  for (const auto& [size, acc] : by_size) {
    xs.push_back(static_cast<double>(size));
    ys.push_back(acc.first / acc.second);
  }
  if (xs.size() < 2) {
    return Status::FailedPrecondition(
        "need measurements at >= 2 record sizes to fit a sub-op model");
  }
  return ml::LinearRegression::Fit1D(xs, ys);
}

}  // namespace

Result<CalibrationRun> CalibrateSubOps(RemoteSystem* system, OpenboxInfo info,
                                       const CalibrationOptions& options) {
  if (system == nullptr) return Status::InvalidArgument("null remote system");
  if (options.record_sizes.size() < 2) {
    return Status::InvalidArgument("need >= 2 record sizes to calibrate");
  }
  if (options.record_counts.empty()) {
    return Status::InvalidArgument("need >= 1 record count to calibrate");
  }

  CalibrationRun run;
  std::vector<double> overhead_waves, overhead_secs;

  auto probe = [&](ProbeKind kind,
                   const rel::RelationStats& in) -> Result<double> {
    auto r = system->ExecuteProbe(kind, in);
    if (!r.ok()) return r.status();
    ++run.probe_queries;
    run.total_seconds += r.value().elapsed_seconds;
    return r.value().elapsed_seconds;
  };

  for (int64_t s : options.record_sizes) {
    for (int64_t n : options.record_counts) {
      rel::RelationStats in{n, s};
      int64_t tasks = info.NumBlocks(n * s);
      int64_t waves = info.Waves(tasks);
      double rows_per_task =
          static_cast<double>(n) / static_cast<double>(tasks);
      // Elapsed -> per-record work normalization: equal tasks run in
      // `waves` sequential waves, each wave lasting rows_per_task * work.
      double norm = static_cast<double>(waves) * rows_per_task;

      // The subtraction chains below need every probe of the cell, so a
      // cell is all-or-nothing: a transient probe failure drops the whole
      // cell (counted in failed_cells) and calibration continues from the
      // surviving grid; permanent errors abort.
      struct CellTimes {
        double noop, read, rw, rwl, rwrl, bcast, hash, hprobe, shuffle,
            sort, scan, merge;
      };
      auto run_cell = [&]() -> Result<CellTimes> {
        CellTimes t{};
        ISPHERE_ASSIGN_OR_RETURN(t.noop, probe(ProbeKind::kNoOp, in));
        ISPHERE_ASSIGN_OR_RETURN(t.read, probe(ProbeKind::kReadOnly, in));
        ISPHERE_ASSIGN_OR_RETURN(t.rw, probe(ProbeKind::kReadWriteDfs, in));
        ISPHERE_ASSIGN_OR_RETURN(t.rwl,
                                 probe(ProbeKind::kReadWriteLocal, in));
        ISPHERE_ASSIGN_OR_RETURN(t.rwrl,
                                 probe(ProbeKind::kReadWriteReadLocal, in));
        ISPHERE_ASSIGN_OR_RETURN(t.bcast,
                                 probe(ProbeKind::kReadBroadcast, in));
        ISPHERE_ASSIGN_OR_RETURN(t.hash,
                                 probe(ProbeKind::kReadHashBuild, in));
        ISPHERE_ASSIGN_OR_RETURN(t.hprobe,
                                 probe(ProbeKind::kReadHashProbe, in));
        ISPHERE_ASSIGN_OR_RETURN(t.shuffle,
                                 probe(ProbeKind::kReadShuffle, in));
        ISPHERE_ASSIGN_OR_RETURN(t.sort, probe(ProbeKind::kReadSort, in));
        ISPHERE_ASSIGN_OR_RETURN(t.scan, probe(ProbeKind::kReadScan, in));
        ISPHERE_ASSIGN_OR_RETURN(t.merge, probe(ProbeKind::kReadMerge, in));
        return t;
      };
      Result<CellTimes> cell = run_cell();
      if (!cell.ok()) {
        if (cell.status().IsRetryable()) {
          ++run.failed_cells;
          continue;
        }
        return cell.status();
      }
      const CellTimes& t = cell.value();
      const double t_noop = t.noop, t_read = t.read, t_rw = t.rw,
                   t_rwl = t.rwl, t_rwrl = t.rwrl, t_bcast = t.bcast,
                   t_hash = t.hash, t_hprobe = t.hprobe,
                   t_shuffle = t.shuffle, t_sort = t.sort, t_scan = t.scan,
                   t_merge = t.merge;
      overhead_waves.push_back(static_cast<double>(waves));
      overhead_secs.push_back(t_noop);

      bool fits = info.HashFits(static_cast<double>(n * s));
      auto add = [&](SubOpKind kind, double delta_elapsed, double divisor) {
        run.points[kind].push_back(
            {s, n, delta_elapsed / divisor, fits});
      };
      add(SubOpKind::kReadDfs, t_read - t_noop, norm);
      add(SubOpKind::kWriteDfs, t_rw - t_read, norm);
      add(SubOpKind::kWriteLocal, t_rwl - t_read, norm);
      add(SubOpKind::kReadLocal, t_rwrl - t_rwl, norm);
      // The broadcast happens once, serially, on the driver.
      add(SubOpKind::kBroadcast, t_bcast - t_read, static_cast<double>(n));
      add(SubOpKind::kHashBuild, t_hash - t_read, norm);
      add(SubOpKind::kHashProbe, t_hprobe - t_hash, norm);
      add(SubOpKind::kShuffle, t_shuffle - t_read, norm);
      add(SubOpKind::kSort, t_sort - t_read,
          norm * std::max(1.0, std::log2(std::max(2.0, rows_per_task))));
      add(SubOpKind::kScan, t_scan - t_read, norm);
      add(SubOpKind::kRecMerge, t_merge - t_read, norm);
    }
  }

  if (overhead_secs.empty()) {
    return Status::FailedPrecondition(
        "calibration of system '" + system->name() +
        "' lost every grid cell to transient probe failures (" +
        std::to_string(run.failed_cells) + " cells)");
  }

  // Fit the per-sub-op models. Basic sub-ops must fit from whatever cells
  // survived; a Specific sub-op that cannot be fitted is left out of the
  // catalog (Cost serves its rough built-in default) and recorded in
  // `defaulted` so consumers know the number is not a measurement.
  SubOpCatalog catalog(info);
  for (const auto& [kind, pts] : run.points) {
    if (kind == SubOpKind::kHashBuild) {
      std::vector<CalibrationRun::Point> fit_pts, spill_pts;
      for (const auto& p : pts) {
        (p.fits_in_memory ? fit_pts : spill_pts).push_back(p);
      }
      // Two-regime model when both regimes were observed at >= 2 sizes.
      auto fit_line = FitLineFromPoints(fit_pts);
      auto spill_line = FitLineFromPoints(spill_pts);
      if (fit_line.ok() && spill_line.ok()) {
        catalog.Put(kind, SubOpModel(std::move(fit_line).value(),
                                     std::move(spill_line).value()));
      } else if (fit_line.ok()) {
        catalog.Put(kind, SubOpModel(std::move(fit_line).value()));
      } else {
        auto only = FitLineFromPoints(pts);
        if (only.ok()) {
          catalog.Put(kind, SubOpModel(std::move(only).value()));
        } else {
          run.defaulted.push_back(kind);
        }
      }
      continue;
    }
    auto line = FitLineFromPoints(pts);
    if (line.ok()) {
      catalog.Put(kind, SubOpModel(std::move(line).value()));
    } else if (IsBasicSubOp(kind)) {
      return line.status();
    } else {
      run.defaulted.push_back(kind);
    }
  }
  // A Specific sub-op with no surviving measurements at all is defaulted
  // too; Basic sub-ops without measurements cannot be defaulted.
  for (SubOpKind kind : AllSubOpKinds()) {
    if (catalog.Contains(kind)) continue;
    if (IsBasicSubOp(kind)) {
      return Status::FailedPrecondition(
          std::string("no surviving measurements for basic sub-op ") +
          SubOpKindName(kind));
    }
    if (run.points.count(kind) == 0) run.defaulted.push_back(kind);
  }

  // Fit the job overhead model from the no-op probes.
  if (overhead_waves.size() >= 2) {
    auto ov = ml::LinearRegression::Fit1D(overhead_waves, overhead_secs);
    if (ov.ok()) {
      catalog.info_mutable().job_overhead_intercept =
          std::max(0.0, ov.value().intercept());
      catalog.info_mutable().job_overhead_per_wave =
          std::max(0.0, ov.value().weights()[0]);
    } else {
      // All probes landed on the same wave count: charge a flat overhead.
      double mean = 0.0;
      for (double t : overhead_secs) mean += t;
      catalog.info_mutable().job_overhead_intercept =
          mean / static_cast<double>(overhead_secs.size());
    }
  }

  run.catalog = std::move(catalog);
  return run;
}

}  // namespace intellisphere::core
