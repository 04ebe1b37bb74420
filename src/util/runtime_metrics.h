// Process-wide runtime metrics: named monotonic counters and fixed-bucket
// latency histograms, with snapshot export in the same shape as the
// BENCH_<name>.json metric entries so bench harnesses can append a served
// model's operational counters next to its latency numbers.
//
// Distinct from util/metrics.h, which holds offline *accuracy* metrics
// (RMSE, fitted lines) for reproducing the paper's figures; this file is
// about what the estimator does at serving time (how often the remedy
// fired, which costing approach was selected, end-to-end estimate latency).
//
// Concurrency: Counter::Increment is a relaxed atomic add into the calling
// thread's own cache line — safe from any thread, and concurrent
// increments on different cores never contend. Histogram::Observe takes a
// mutex (it is only reached when the caller opted into timing). Registry
// lookups lock; callers on hot paths should look up once and cache the
// returned pointer, which stays valid for the registry's lifetime.

#ifndef INTELLISPHERE_UTIL_RUNTIME_METRICS_H_
#define INTELLISPHERE_UTIL_RUNTIME_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace intellisphere {

/// A monotonically increasing counter, striped across kCells
/// cache-line-padded cells. Each thread adds into the cell of the slot it
/// was assigned on its first increment (round-robin), so threads on
/// different cores do not share a line; value() sums the cells. More
/// threads than cells share cells, which stays exact and only contends.
class Counter {
 public:
  static constexpr size_t kCells = 16;

  void Increment(int64_t delta = 1) {
    // lint:relaxed-ok(independent monotonic stat; no other data published)
    cells_[ThreadCell()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const {
    int64_t sum = 0;
    for (const Cell& cell : cells_) {
      // lint:relaxed-ok(point-in-time stat read; snapshots synchronize via future-get)
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Cell& cell : cells_) {
      // lint:relaxed-ok(test-only reset; racing increments may land on either side)
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };
  static size_t ThreadCell() {
    if (thread_cell_ == 0) [[unlikely]] thread_cell_ = AssignCell() + 1;
    return thread_cell_ - 1;
  }
  /// The next slot in round-robin order, in [0, kCells).
  static size_t AssignCell();

  /// The calling thread's cell index plus one; 0 until its first increment.
  static inline thread_local size_t thread_cell_ = 0;
  std::array<Cell, kCells> cells_;
};

/// A fixed-bucket histogram. Bucket i counts observations <=
/// upper_bounds[i]; one extra overflow bucket counts the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  /// Cumulative totals since construction (or the last Reset).
  int64_t count() const;
  double sum() const;
  double Mean() const;  ///< 0 when empty
  std::vector<int64_t> bucket_counts() const;  ///< size upper_bounds+1
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

  void Reset();

 private:
  const std::vector<double> upper_bounds_;
  mutable Mutex mu_;
  std::vector<int64_t> buckets_ GUARDED_BY(mu_);
  int64_t count_ GUARDED_BY(mu_) = 0;
  double sum_ GUARDED_BY(mu_) = 0.0;
};

/// Default bucket bounds for estimate-latency histograms, in microseconds:
/// 1us .. 100ms in roughly 1-3-10 steps.
std::vector<double> DefaultLatencyBucketsUs();

/// One exported measurement, mirroring the BENCH_<name>.json entry shape.
struct MetricSample {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< "count" for counters, histogram-specific otherwise
};

/// A point-in-time export of a registry. Histograms flatten to
/// <name>.count / <name>.sum / <name>.mean plus one <name>.le.<bound>
/// cumulative entry per bucket (and <name>.le.inf).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  const MetricSample* Find(const std::string& name) const;
  /// Renders the snapshot as a JSON array of {"name","value","unit"}
  /// objects, matching the "metrics" field of BENCH_<name>.json.
  std::string ToJson(const std::string& indent = "") const;
};

/// Owns counters and histograms by name. Get* creates on first use and
/// returns a pointer that stays valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  /// Bounds are fixed on first creation; later calls with a different
  /// bounds argument return the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (instruments stay registered, cached
  /// pointers stay valid). Intended for tests and bench warmup.
  void ResetAll();

  /// The process-wide registry instrumented code defaults to.
  static MetricsRegistry& Global();

 private:
  struct NamedCounter {
    std::string name;
    std::unique_ptr<Counter> counter;
  };
  struct NamedHistogram {
    std::string name;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  std::vector<NamedCounter> counters_ GUARDED_BY(mu_);
  std::vector<NamedHistogram> histograms_ GUARDED_BY(mu_);
};

}  // namespace intellisphere

#endif  // INTELLISPHERE_UTIL_RUNTIME_METRICS_H_
