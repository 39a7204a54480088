// Named metrics registry for the monitor's self-observability layer:
// counters (monotonic, lock-free adds), gauges (last value wins), and
// histograms (full Welford statistics via common/stats Accumulator).
//
// The registry complements the event recorder in trace/trace.hpp: the
// ring buffer keeps a bounded window of *individual* events for the
// Chrome trace, while the registry keeps O(1)-memory *aggregates* for the
// whole run — span-duration statistics survive ring wrap, and the
// "Monitor self-profile" report section and the ToolApi flush are built
// from them.
//
// Hot-path contract: handles returned by counter()/gauge()/histogram()
// have stable addresses for the registry's lifetime, so callers resolve
// the name once (setup time, allocates) and then add/set/observe without
// touching the name map again.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace zerosum::trace {

/// Monotonic counter; add() is a single relaxed atomic.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-wins gauge.
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t encode(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double decode(std::uint64_t bits) {
    double v = 0.0;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Welford histogram: count/min/mean/max/stddev of everything observed.
/// observe() takes a per-histogram mutex (uncontended in practice: one
/// writer, the monitor thread).
class Histogram {
 public:
  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    acc_.add(v);
  }
  [[nodiscard]] stats::Accumulator accumulator() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return acc_;
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    acc_.reset();
  }

 private:
  mutable std::mutex mutex_;
  stats::Accumulator acc_;
};

/// Upper bounds (seconds) used when latency() is called without explicit
/// bounds: 1-2.5-5 per decade from 1 µs to 10 s, Prometheus-style.
[[nodiscard]] const std::vector<double>& defaultLatencyBoundsSeconds();

/// Snapshot of a LatencyHistogram: cumulative-bucket form is derived by
/// the exposition writer; counts here are per-bucket.
struct LatencyStats {
  std::vector<double> bounds;         ///< ascending inclusive upper bounds
  std::vector<std::uint64_t> counts;  ///< bounds.size()+1; last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  [[nodiscard]] double mean() const { return count ? sum / double(count) : 0.0; }
  /// q in [0,1]; linear interpolation inside the winning bucket, `max`
  /// for the overflow bucket.  0 when empty.
  [[nodiscard]] double quantile(double q) const;
};

/// Fixed-boundary histogram with Prometheus bucket semantics
/// (observation lands in the first bucket whose upper bound >= value).
/// observe() is lock-free and allocation-free: a binary search over the
/// immutable bounds plus relaxed atomics, so it is safe on the sampling
/// hot path under the zero-allocation contract (test_zero_alloc).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> boundsSeconds);

  void observe(double v) {
    std::size_t idx = bounds_.size();
    // Branch-light binary search; bounds_ never changes after construction.
    std::size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {
      std::size_t mid = (lo + hi) / 2;
      if (bounds_[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    idx = lo;
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
    atomicMax(max_, v);
  }

  [[nodiscard]] LatencyStats stats() const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  void reset();

 private:
  static std::uint64_t toBits(double v) {
    std::uint64_t bits = 0;
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double fromBits(std::uint64_t bits) {
    double v = 0.0;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  static void atomicAdd(std::atomic<std::uint64_t>& cell, double delta) {
    std::uint64_t old = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(old, toBits(fromBits(old) + delta),
                                       std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<std::uint64_t>& cell, double v) {
    std::uint64_t old = cell.load(std::memory_order_relaxed);
    while (fromBits(old) < v &&
           !cell.compare_exchange_weak(old, toBits(v),
                                       std::memory_order_relaxed)) {
    }
  }

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};  ///< double bits
  std::atomic<std::uint64_t> max_{0};  ///< double bits
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kLatency };

/// One registry entry at snapshot time.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;       ///< counter value or histogram count
  double value = 0.0;            ///< gauge value
  stats::Accumulator histogram;  ///< histogram statistics
  LatencyStats latency;          ///< fixed-boundary latency statistics
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name.  Requesting an existing name with a
  /// different kind throws StateError (a typo'd dashboard is worse than a
  /// loud failure).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  /// Fixed-boundary latency histogram; empty bounds = the default
  /// log-spaced bounds from 1 µs to 10 s.  Bounds are fixed at first
  /// registration — later calls return the existing histogram
  /// regardless of `bounds`.
  LatencyHistogram& latency(const std::string& name,
                            const std::vector<double>& boundsSeconds = {});

  /// All entries, sorted by name.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Drops every metric.  Test hook — not thread-safe against concurrent
  /// use of previously returned handles.
  void reset();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<LatencyHistogram> latency;
  };
  Entry& entry(const std::string& name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace zerosum::trace
