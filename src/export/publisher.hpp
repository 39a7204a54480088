// SessionPublisher: the glue between the monitor and the export paths —
// after every sampling period it turns the newest observations into
// (a) a MetricStream batch (LDMS-style service feed),
// (b) PerfStubs counter samples (TAU-style tool feed), and
// (c) a batch for an attached aggregation client.
// Wire it with MonitorSession::setSampleCallback; in async mode the
// callback runs on the monitor thread, so all three sinks are
// thread-safe-by-construction (stream locks, ToolApi locks, the client is
// owned by the publisher).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aggregator/client.hpp"
#include "common/interning.hpp"
#include "core/monitor.hpp"
#include "export/stream.hpp"

namespace zerosum::exporter {

class SessionPublisher {
 public:
  struct Options {
    bool lwp = true;
    bool hwt = true;
    bool memory = true;
    bool gpu = true;
    /// Also push counters through the PerfStubs ToolApi when a tool
    /// backend is registered.
    bool perfstubs = false;
  };

  explicit SessionPublisher(MetricStream* stream)
      : SessionPublisher(stream, Options{}) {}
  SessionPublisher(MetricStream* stream, Options options);

  /// Attaches an aggregation client (paper §6: cross-process collection).
  /// Every published batch is also forwarded to the daemon, along with a
  /// per-period health update.  The client's bounded queue and drop
  /// counters guarantee a dead daemon cannot stall the publish path.
  void attachAggregator(std::unique_ptr<aggregator::Client> client);
  /// Final flush + kGoodbye; detaches the client and returns it (for
  /// counter inspection).  nullptr when none was attached.
  std::unique_ptr<aggregator::Client> closeAggregator(double timeSeconds);
  [[nodiscard]] aggregator::Client* aggregatorClient() {
    return aggregator_.get();
  }

  /// Publishes the observations taken at `timeSeconds`.  Designed as the
  /// MonitorSession sample callback.
  void publish(const core::MonitorSession& session, double timeSeconds);

  [[nodiscard]] std::uint64_t periodsPublished() const { return periods_; }

 private:
  /// Interned metric-name ids for one entity.  Built (with string
  /// concatenation) the first period an entity appears, then reused — the
  /// steady-state batch is assembled from ids alone.
  struct LwpIds {
    names::Id utime, stime, vctx, nvctx, processor;
  };
  struct HwtIds {
    names::Id user, system, idle;
  };

  /// Fills batchScratch_ (reused across periods) and returns it.
  const Batch& makeBatch(const core::MonitorSession& session,
                         double timeSeconds);
  [[nodiscard]] const LwpIds& lwpIdsFor(int tid);
  [[nodiscard]] const HwtIds& hwtIdsFor(std::size_t cpu);
  [[nodiscard]] names::Id gpuIdFor(int visibleIndex, int metric);

  MetricStream* stream_;
  Options options_;
  std::unique_ptr<aggregator::Client> aggregator_;
  std::uint64_t periods_ = 0;

  // --- Steady-state scratch + id caches (no allocation once warm) ---------
  Batch batchScratch_;
  std::vector<aggregator::IdRecord> wireScratch_;
  std::string nameScratch_;           ///< id -> text for string-taking sinks
  names::Id sourceId_ = names::kInvalidId;
  bool sourceCached_ = false;
  std::int32_t sourceRank_ = 0;
  std::map<int, LwpIds> lwpIds_;
  std::map<std::size_t, HwtIds> hwtIds_;
  std::map<std::pair<int, int>, names::Id> gpuIds_;
  names::Id memAvailableId_ = names::kInvalidId;
  names::Id memRssId_ = names::kInvalidId;
};

}  // namespace zerosum::exporter
