#include "lifecycle/ingest_queue.h"

#include <algorithm>
#include <utility>

namespace intellisphere::lifecycle {

ExecutionLogQueue::ExecutionLogQueue(int64_t capacity)
    : capacity_(std::max<int64_t>(1, capacity)) {}

void ExecutionLogQueue::Push(ExecutionRecord record) {
  MutexLock lock(&mu_);
  while (static_cast<int64_t>(queue_.size()) >= capacity_) {
    queue_.pop_front();
    ++dropped_;
  }
  queue_.push_back(std::move(record));
  ++pushed_;
}

std::vector<ExecutionRecord> ExecutionLogQueue::Drain() {
  MutexLock lock(&mu_);
  std::vector<ExecutionRecord> out(std::make_move_iterator(queue_.begin()),
                                   std::make_move_iterator(queue_.end()));
  queue_.clear();
  drained_ += static_cast<int64_t>(out.size());
  return out;
}

IngestQueueStats ExecutionLogQueue::Stats() const {
  MutexLock lock(&mu_);
  IngestQueueStats stats;
  stats.pushed = pushed_;
  stats.dropped = dropped_;
  stats.drained = drained_;
  stats.size = static_cast<int64_t>(queue_.size());
  stats.capacity = capacity_;
  return stats;
}

}  // namespace intellisphere::lifecycle
