#include "aggregator/writer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "tsdb/engine.hpp"

namespace zerosum::aggregator {

TsdbWriter::TsdbWriter(tsdb::Engine* engine, WriterOptions options)
    : engine_(engine), options_(options) {
  if (engine_ == nullptr) {
    throw ConfigError("TsdbWriter requires an engine");
  }
  if (options_.maxPendingBatches == 0 || options_.maxBatchesPerPump == 0 ||
      options_.maxGroupSamples == 0) {
    throw ConfigError("TsdbWriter bounds must be >= 1");
  }
  if (options_.threaded) {
    worker_ = std::thread([this] { workerLoop(); });
  }
}

TsdbWriter::~TsdbWriter() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    worker_.join();
  }
  // Whatever is still queued is discarded — crash semantics.  Those
  // batches were never acked (acks gate on writtenTicket), so only
  // unacknowledged records are lost.  Orderly paths call flush() first.
}

std::optional<std::uint64_t> TsdbWriter::submit(
    names::Id job, std::int32_t rank, std::span<const IdRecord> records) {
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.size() >= options_.maxPendingBatches) {
      ++counters_.submitRejected;
      return std::nullopt;
    }
    ticket = nextTicket_++;
    Pending p;
    p.job = job;
    p.rank = rank;
    p.records.assign(records.begin(), records.end());
    p.ticket = ticket;
    queue_.push_back(std::move(p));
    ++counters_.batchesSubmitted;
  }
  wake_.notify_one();
  return ticket;
}

std::size_t TsdbWriter::drainSome(std::size_t maxBatches) {
  std::size_t written = 0;
  while (written < maxBatches) {
    // Pop a group: the head batch plus any adjacent batches from the
    // same (job, rank), coalesced into one engine append (one WAL frame
    // instead of many — the group commit).
    Pending group;
    std::size_t groupBatches = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        break;
      }
      group = std::move(queue_.front());
      queue_.pop_front();
      groupBatches = 1;
      while (!queue_.empty() && groupBatches + written < maxBatches &&
             queue_.front().job == group.job &&
             queue_.front().rank == group.rank &&
             group.records.size() + queue_.front().records.size() <=
                 options_.maxGroupSamples) {
        Pending& next = queue_.front();
        group.records.insert(group.records.end(), next.records.begin(),
                             next.records.end());
        group.ticket = next.ticket;
        queue_.pop_front();
        ++groupBatches;
      }
    }
    {
      std::lock_guard<std::mutex> engineLock(engineMutex_);
      try {
        engine_->append(group.job, group.rank, group.records);
        engine_->maybeCompact();
      } catch (const Error& e) {
        // A failing disk must not take the daemon down; the batch is
        // lost (counted) and — because writtenTicket still advances —
        // the pipeline keeps moving.  Acked-loss accounting treats this
        // as the explicit failure it is.
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.writeFailures;
        log::warn() << "tsdb writer: append failed: " << e.what();
      }
    }
    {
      // Under mutex_, so flush() cannot miss the advance between reading
      // its predicate and waiting.
      std::lock_guard<std::mutex> lock(mutex_);
      counters_.batchesWritten += groupBatches;
      counters_.samplesWritten += group.records.size();
      if (groupBatches > 1) {
        ++counters_.groupCommits;
      }
      writtenTicket_.store(group.ticket, std::memory_order_release);
    }
    written += groupBatches;
  }
  drained_.notify_all();
  return written;
}

void TsdbWriter::pump() {
  if (options_.threaded) {
    return;  // the worker drains
  }
  drainSome(options_.maxBatchesPerPump);
}

void TsdbWriter::flush() {
  if (!options_.threaded) {
    while (drainSome(options_.maxBatchesPerPump) > 0) {
    }
    return;
  }
  // Every submitted ticket written, not just an empty queue: the worker
  // pops a group before it appends it.
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] {
    return stop_ ||
           writtenTicket_.load(std::memory_order_acquire) + 1 == nextTicket_;
  });
}

std::size_t TsdbWriter::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

double TsdbWriter::occupancy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(queue_.size()) /
         static_cast<double>(options_.maxPendingBatches);
}

bool TsdbWriter::hasSpace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() < options_.maxPendingBatches;
}

WriterCounters TsdbWriter::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void TsdbWriter::workerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        drained_.notify_all();
        return;
      }
    }
    drainSome(options_.maxBatchesPerPump);
  }
}

}  // namespace zerosum::aggregator
