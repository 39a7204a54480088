// TsdbWriter: a bounded-queue writer between the aggregation daemon and
// the tsdb engine, so a slow disk raises backpressure instead of
// stalling ingest.
//
// The daemon submit()s each admitted batch; the writer appends them to
// the engine in submission order, coalescing adjacent batches from the
// same (job, rank) into one WAL append (group commit).  submit() never
// blocks: when the queue is full it returns nullopt and the daemon
// falls back (inline append) while its pressure level reads overloaded.
//
// Two modes:
//   * sync (default) — no thread; the daemon calls pump() from its poll
//     loop and at most `maxBatchesPerPump` batches hit the disk per
//     poll.  Fully deterministic: what the tests and the lockstep
//     cluster simulation use.
//   * threaded — a worker thread drains the queue; `zerosum-aggd
//     --async-writer`.  engineMutex() serializes the worker's appends
//     against the daemon's engine reads — queries and exports, through
//     Aggregator::readEngine (the engine itself is single-writer, not
//     thread-safe).
//
// Durability contract: writtenTicket() is the highest submission ticket
// whose batch the engine has appended (WAL-logged).  The daemon gates
// batch acks on it — a client never sees an ack for records that could
// still be lost in this queue.  The destructor discards whatever is
// still queued (crash semantics: only unacked records are lost);
// orderly shutdown calls flush() first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "aggregator/wire.hpp"

namespace zerosum::tsdb {
class Engine;
}

namespace zerosum::aggregator {

struct WriterOptions {
  /// Queue bound, in batches; a full queue rejects submit().
  std::size_t maxPendingBatches = 256;
  /// Sync mode: batches appended per pump() call.
  std::size_t maxBatchesPerPump = 32;
  /// Cap on one coalesced group-commit append, in samples.
  std::size_t maxGroupSamples = 4096;
  /// Drain from a worker thread instead of pump().
  bool threaded = false;
};

struct WriterCounters {
  std::uint64_t batchesSubmitted = 0;
  std::uint64_t batchesWritten = 0;
  std::uint64_t samplesWritten = 0;
  std::uint64_t submitRejected = 0;  ///< queue full
  std::uint64_t groupCommits = 0;    ///< appends that coalesced >1 batch
  std::uint64_t writeFailures = 0;   ///< engine append threw; batch lost
};

class TsdbWriter {
 public:
  /// Non-owning: the engine must outlive the writer.
  explicit TsdbWriter(tsdb::Engine* engine, WriterOptions options = {});
  ~TsdbWriter();

  TsdbWriter(const TsdbWriter&) = delete;
  TsdbWriter& operator=(const TsdbWriter&) = delete;

  /// Queues one batch (copies the id records).  Returns the batch's
  /// monotonically increasing ticket, or nullopt when the queue is full
  /// — the caller handles the overflow; the writer never drops silently.
  std::optional<std::uint64_t> submit(names::Id job, std::int32_t rank,
                                      std::span<const IdRecord> records);

  /// Sync mode: appends up to maxBatchesPerPump queued batches.  No-op
  /// when threaded (the worker drains).
  void pump();

  /// Drains the queue completely (orderly-shutdown path).  Blocks in
  /// threaded mode until the worker has appended every submitted batch.
  void flush();

  /// Highest ticket durably appended to the engine.
  [[nodiscard]] std::uint64_t writtenTicket() const {
    return writtenTicket_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t pending() const;
  /// Queue occupancy in [0, 1] — an input to the daemon's pressure level.
  [[nodiscard]] double occupancy() const;
  [[nodiscard]] bool hasSpace() const;
  [[nodiscard]] bool threaded() const { return options_.threaded; }
  [[nodiscard]] WriterCounters counters() const;
  [[nodiscard]] tsdb::Engine* engine() const { return engine_; }

  /// Serializes engine access between the worker thread and the owner's
  /// read path (queries, source persistence).  Meaningful in threaded
  /// mode; cheap and uncontended otherwise.
  [[nodiscard]] std::mutex& engineMutex() { return engineMutex_; }

 private:
  struct Pending {
    names::Id job = names::kInvalidId;
    std::int32_t rank = 0;
    std::vector<IdRecord> records;
    std::uint64_t ticket = 0;
  };

  /// Appends up to `maxBatches` queued batches (coalescing); returns the
  /// number written.  Caller must NOT hold mutex_.
  std::size_t drainSome(std::size_t maxBatches);
  void workerLoop();

  tsdb::Engine* engine_;
  WriterOptions options_;

  mutable std::mutex mutex_;  ///< guards queue_, counters_, nextTicket_
  std::mutex engineMutex_;
  std::condition_variable wake_;     ///< worker: work available / stop
  std::condition_variable drained_;  ///< flush(): batches written
  std::deque<Pending> queue_;
  WriterCounters counters_;
  std::uint64_t nextTicket_ = 1;
  std::atomic<std::uint64_t> writtenTicket_{0};

  std::thread worker_;
  bool stop_ = false;
};

}  // namespace zerosum::aggregator
