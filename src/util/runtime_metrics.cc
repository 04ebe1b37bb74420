#include "util/runtime_metrics.h"

#include <algorithm>

#include "util/json.h"

namespace intellisphere {

size_t Counter::AssignCell() {
  static std::atomic<size_t> next{0};
  // lint:relaxed-ok(slot ticket: only the spread of the values matters)
  return next.fetch_add(1, std::memory_order_relaxed) % kCells;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1, 0) {}

void Histogram::Observe(double value) {
  MutexLock lock(&mu_);
  size_t i = 0;
  while (i < upper_bounds_.size() && value > upper_bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

int64_t Histogram::count() const {
  MutexLock lock(&mu_);
  return count_;
}

double Histogram::sum() const {
  MutexLock lock(&mu_);
  return sum_;
}

double Histogram::Mean() const {
  MutexLock lock(&mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::vector<int64_t> Histogram::bucket_counts() const {
  MutexLock lock(&mu_);
  return buckets_;
}

void Histogram::Reset() {
  MutexLock lock(&mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

std::vector<double> DefaultLatencyBucketsUs() {
  return {1,    3,    10,    30,    100,    300,
          1000, 3000, 10000, 30000, 100000};
}

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson(const std::string& indent) const {
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n" + indent + "  {\"name\": \"" + JsonEscape(samples[i].name) +
           "\", \"value\": " + JsonNumber(samples[i].value) +
           ", \"unit\": \"" + JsonEscape(samples[i].unit) + "\"}";
  }
  if (!samples.empty()) out += "\n" + indent;
  out += "]";
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& nc : counters_) {
    if (nc.name == name) return nc.counter.get();
  }
  counters_.push_back({name, std::make_unique<Counter>()});
  return counters_.back().counter.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  MutexLock lock(&mu_);
  for (auto& nh : histograms_) {
    if (nh.name == name) return nh.histogram.get();
  }
  histograms_.push_back(
      {name, std::make_unique<Histogram>(std::move(upper_bounds))});
  return histograms_.back().histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  for (const auto& nc : counters_) {
    snap.samples.push_back({nc.name,
                            static_cast<double>(nc.counter->value()),
                            "count"});
  }
  for (const auto& nh : histograms_) {
    const Histogram& h = *nh.histogram;
    snap.samples.push_back(
        {nh.name + ".count", static_cast<double>(h.count()), "count"});
    snap.samples.push_back({nh.name + ".sum", h.sum(), "sum"});
    snap.samples.push_back({nh.name + ".mean", h.Mean(), "mean"});
    std::vector<int64_t> buckets = h.bucket_counts();
    const std::vector<double>& bounds = h.upper_bounds();
    int64_t cumulative = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      cumulative += buckets[i];
      std::string le = i < bounds.size() ? JsonNumberShort(bounds[i]) : "inf";
      snap.samples.push_back({nh.name + ".le." + le,
                              static_cast<double>(cumulative), "cumulative"});
    }
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& nc : counters_) nc.counter->Reset();
  for (auto& nh : histograms_) nh.histogram->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace intellisphere
