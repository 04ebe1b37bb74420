// Bounded, thread-safe execution-log ingest queue — the entry point of the
// online model lifecycle (DESIGN.md §16). Simulated execution pushes one
// ExecutionRecord per completed remote operator; the LifecycleManager
// drains the queue on its deployment-clock Tick. The queue is bounded:
// when a push arrives at capacity the OLDEST record is dropped
// (drop-oldest backpressure) and counted in Stats().dropped (exported as
// `lifecycle.ingest.dropped`), so a stalled consumer degrades drift
// detection gracefully instead of growing without bound.

#ifndef INTELLISPHERE_LIFECYCLE_INGEST_QUEUE_H_
#define INTELLISPHERE_LIFECYCLE_INGEST_QUEUE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "relational/query.h"
#include "util/thread_annotations.h"

namespace intellisphere::lifecycle {

/// Capacity of the execution-log ingest queue (records; >= 1).
inline constexpr char kIngestCapacityKey[] = "lifecycle.ingest.capacity";

/// One completed remote execution, as observed by the serving layer: the
/// operator's model features, what was served, what actually happened, and
/// the deployment-clock time of the observation.
struct ExecutionRecord {
  std::string system;
  rel::OperatorType op_type = rel::OperatorType::kJoin;
  std::vector<double> features;
  double estimated_seconds = 0.0;
  double actual_seconds = 0.0;
  /// Deployment clock (core::EstimateContext::now) at execution.
  double now = 0.0;
};

/// Point-in-time queue statistics (counters are lifetime totals).
struct IngestQueueStats {
  int64_t pushed = 0;
  int64_t dropped = 0;
  int64_t drained = 0;
  int64_t size = 0;
  int64_t capacity = 0;
};

/// The bounded MPSC-style ingest queue. Push is safe from any number of
/// producer threads; Drain is typically called by the single lifecycle
/// driver but is itself thread-safe too.
class ExecutionLogQueue {
 public:
  /// `capacity` is clamped up to 1.
  explicit ExecutionLogQueue(int64_t capacity);

  ExecutionLogQueue(const ExecutionLogQueue&) = delete;
  ExecutionLogQueue& operator=(const ExecutionLogQueue&) = delete;

  /// Appends a record; at capacity the oldest queued record is dropped
  /// first (counted in Stats().dropped).
  void Push(ExecutionRecord record);

  /// Removes and returns every queued record in arrival order.
  [[nodiscard]] std::vector<ExecutionRecord> Drain();

  [[nodiscard]] IngestQueueStats Stats() const;

 private:
  const int64_t capacity_;

  mutable Mutex mu_;
  std::deque<ExecutionRecord> queue_ GUARDED_BY(mu_);
  int64_t pushed_ GUARDED_BY(mu_) = 0;
  int64_t dropped_ GUARDED_BY(mu_) = 0;
  int64_t drained_ GUARDED_BY(mu_) = 0;
};

}  // namespace intellisphere::lifecycle

#endif  // INTELLISPHERE_LIFECYCLE_INGEST_QUEUE_H_
