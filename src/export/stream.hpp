// MetricStream: the "continuous stream of data reporting the current state
// of the application" from paper §3.3, and the §6 vision of feeding
// application-side data to system-side services (LDMS) and tools (TAU).
//
// A small in-process pub/sub bus: the monitor publishes one batch of
// records per sampling period; any number of subscribers (a tool feed,
// a dashboard, a test) receive the batches synchronously in
// registration order.  Thread-safe: the monitor thread publishes while
// subscribers come and go, and unsubscribe() does not return while the
// subscriber is mid-delivery on another thread — after it returns, the
// callback will never run again, so the caller may free captured state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/interning.hpp"

namespace zerosum::exporter {

/// One metric observation.  The producer identity ("rank.0") and the
/// hierarchical metric name ("lwp.51334.utime_delta", "hwt.1.idle_pct")
/// are carried as interned ids (names::intern), so a Record is a flat
/// 24-byte value and batches move through the publish path without
/// allocating or copying strings; resolve text at the edges with
/// sourceView()/nameView().
struct Record {
  double timeSeconds = 0.0;
  names::Id source = names::kInvalidId;
  names::Id name = names::kInvalidId;
  double value = 0.0;

  Record() = default;
  Record(double t, names::Id src, names::Id metric, double v)
      : timeSeconds(t), source(src), name(metric), value(v) {}
  /// Interning convenience for tests and cold paths.
  Record(double t, std::string_view src, std::string_view metric, double v)
      : timeSeconds(t),
        source(names::intern(src)),
        name(names::intern(metric)),
        value(v) {}

  [[nodiscard]] std::string_view sourceView() const {
    return names::lookup(source);
  }
  [[nodiscard]] std::string_view nameView() const {
    return names::lookup(name);
  }
};

using Batch = std::vector<Record>;
using SubscriberFn = std::function<void(const Batch&)>;

class MetricStream {
 public:
  /// Registers a subscriber; returns a handle for unsubscribe().
  int subscribe(SubscriberFn subscriber);

  /// Deregisters.  Blocks until any in-flight delivery to this
  /// subscriber on another thread has finished; calling it from inside
  /// the subscriber's own callback (self-unsubscribe) is allowed and
  /// does not deadlock.
  void unsubscribe(int handle);

  /// Delivers a batch to every subscriber (synchronously, in registration
  /// order).  A subscriber that throws is dropped and the error logged —
  /// an export failure must never take down the monitored application.
  void publish(const Batch& batch);

  [[nodiscard]] std::size_t subscriberCount() const;
  [[nodiscard]] std::uint64_t batchesPublished() const;
  [[nodiscard]] std::uint64_t recordsPublished() const;

 private:
  /// Shared between the registry and any publish() currently delivering:
  /// `callMutex` serializes invocations and gates `active`, so a
  /// subscriber that unsubscribes mid-delivery waits for the delivery
  /// rather than racing it.  `callingThread` identifies the thread
  /// currently inside fn, which lets that thread self-unsubscribe
  /// without re-locking its own callMutex.
  struct Subscriber {
    int handle = 0;
    SubscriberFn fn;
    std::mutex callMutex;
    bool active = true;  ///< guarded by callMutex
    std::atomic<std::thread::id> callingThread{};
  };

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Subscriber>> subscribers_;
  int nextHandle_ = 1;
  std::uint64_t batches_ = 0;
  std::uint64_t records_ = 0;
};

}  // namespace zerosum::exporter
