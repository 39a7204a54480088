// The zero-allocation contract of the sampling hot path, enforced with a
// counting global operator new (alloc_hook.hpp — which is why this test
// lives in its own binary: the hook replaces the allocator for the whole
// process).
//
// Each test warms its loop first — interning metric names, growing
// scratch buffers and batch vectors to their steady-state capacity,
// populating fd caches — and then asserts that N further iterations
// perform ZERO heap allocations.  History retention (tracker sample
// vectors) is excluded by design: it grows amortized-O(1) by doubling,
// which is bounded but not zero; the paper's "do no harm" budget is
// about the per-period work, which these loops cover end to end.
#include "common/alloc_hook.hpp"
//
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/store.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "common/cpuset.hpp"
#include "common/interning.hpp"
#include "core/csv_export.hpp"
#include "core/monitor.hpp"
#include "export/publisher.hpp"
#include "export/stream.hpp"
#include "procfs/parse.hpp"
#include "procfs/procfs.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"
#include "tsdb/engine.hpp"

namespace zerosum {
namespace {

constexpr int kWarmup = 100;
constexpr int kMeasured = 200;

/// Runs `fn` kWarmup times, then kMeasured times under the counter;
/// returns the allocation count of the measured span.
template <typename Fn>
std::uint64_t measuredAllocations(Fn&& fn) {
  for (int i = 0; i < kWarmup; ++i) {
    fn();
  }
  const std::uint64_t before = allochook::allocations();
  for (int i = 0; i < kMeasured; ++i) {
    fn();
  }
  return allochook::allocations() - before;
}

TEST(ZeroAlloc, HookCountsAllocations) {
  const std::uint64_t before = allochook::allocations();
  auto* p = new int(7);
  EXPECT_GE(allochook::allocations() - before, 1u);
  delete p;
}

TEST(ZeroAlloc, ProcfsReadAndParseSteadyState) {
  auto fs = procfs::makeRealProcFs();
  const int pid = fs->selfPid();
  std::string buf;
  procfs::ProcStatus status;
  procfs::TaskStat stat;
  procfs::MemInfo mem;
  procfs::StatSnapshot snap;
  std::vector<int> tids;
  const std::uint64_t allocs = measuredAllocations([&] {
    fs->readProcessStatusInto(pid, buf);
    procfs::parseStatusInto(buf, status);
    fs->readTaskStatInto(pid, pid, buf);
    procfs::parseTaskStatInto(buf, stat);
    fs->readMeminfoInto(buf);
    procfs::parseMeminfoInto(buf, mem);
    fs->readStatInto(buf);
    procfs::parseStatInto(buf, snap);
    fs->listTasksInto(pid, tids);
  });
  EXPECT_EQ(allocs, 0u) << "procfs read+parse must not allocate once warm";
  EXPECT_GT(status.vmRssKb, 0u);  // the loop really read this process
  EXPECT_FALSE(tids.empty());
}

TEST(ZeroAlloc, PublishPathSteadyState) {
  sim::SimNode node(CpuSet::fromList("0-3"), 4ULL << 30);
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = 2;
  qmc.steps = 100;
  qmc.workPerStep = 20;
  const auto rank =
      sim::buildMiniQmcRank(node, CpuSet::fromList("0-1"), qmc, node.hwts());
  core::Config cfg;
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  core::MonitorSession session(cfg, procfs::makeSimProcFs(node, rank.pid));
  node.advance(sim::kHz);
  const double t = node.nowSeconds();
  session.sampleNow(t);

  exporter::MetricStream stream;
  std::uint64_t delivered = 0;
  stream.subscribe([&delivered](const exporter::Batch& batch) {
    delivered += batch.size();
  });
  exporter::SessionPublisher publisher(&stream);
  const std::uint64_t allocs = measuredAllocations([&] {
    publisher.publish(session, t);
  });
  EXPECT_EQ(allocs, 0u)
      << "batch build + stream fan-out must not allocate once warm";
  EXPECT_GT(delivered, 0u);
}

TEST(ZeroAlloc, AggregatorClientEnqueueSteadyState) {
  auto hub = std::make_shared<aggregator::PipeHub>();
  aggregator::Hello hello;
  hello.job = "test";
  hello.rank = 0;
  hello.worldSize = 1;
  hello.hostname = "node0000";
  hello.pid = 1234;
  aggregator::ClientOptions options;
  options.batchRecords = 1U << 20;  // keep the wire edge out of the loop
  // Small queue bound so the vector FIFO finishes its first
  // overflow/compaction cycle — reaching its fixed capacity — in warmup.
  options.maxQueueRecords = 256;
  // The pinned-full queue must not escalate the degradation ladder: this
  // measures the full-resolution path, whose pump drains acks and steps
  // the ladder every period.
  options.escalateOccupancy = 1.1;
  aggregator::Client client(hub->makeClientTransport(), hello, options);
  std::vector<aggregator::IdRecord> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back({1.0, names::intern("za.metric." + std::to_string(i)),
                     static_cast<double>(i)});
  }
  const std::uint64_t allocs = measuredAllocations([&] {
    client.enqueueIds(batch, 1.0);
    client.pump(1.0);
  });
  EXPECT_EQ(allocs, 0u)
      << "bounded-queue enqueue and pump must not allocate once warm";
  EXPECT_GT(client.counters().recordsEnqueued, 0u);
  EXPECT_EQ(client.level(), aggregator::DegradeLevel::kFull);
}

/// A connected transport that keeps nothing it is sent and never
/// receives: a client's flush with no peer's work in the measurement.
class DiscardingTransport final : public aggregator::Transport {
 public:
  bool connect() override { return true; }
  [[nodiscard]] bool connected() const override { return true; }
  bool send(const std::string& bytes) override {
    bytesSent += bytes.size();
    return true;
  }
  bool receive(std::string& /*out*/) override { return true; }
  void close() override {}

  std::uint64_t bytesSent = 0;
};

// The wire edge of the client: a connected flush copies the queued id
// records into one frame and encodes it into one string, sending each
// name's text only the first time the connection uses it.  What one
// flush allocates must not grow with the records it sends.
TEST(ZeroAlloc, AggregatorClientFlushSteadyState) {
  const auto allocationsPerFlush = [](std::size_t records) {
    aggregator::Hello hello;
    hello.job = "test";
    hello.hostname = "node0000";
    auto transport = std::make_unique<DiscardingTransport>();
    DiscardingTransport* wire = transport.get();
    aggregator::ClientOptions options;
    options.batchRecords = records;  // every enqueue flushes one batch
    options.batchAgeSeconds = 1e9;
    options.maxInflightAcks = 8;  // no acks come: keep the FIFO bounded
    aggregator::Client client(std::move(transport), hello, options);
    std::vector<aggregator::IdRecord> batch;
    for (std::size_t i = 0; i < records; ++i) {
      // Past the small-string buffer, as most Listing-2 names are.
      batch.push_back(
          {1.0, names::intern("za.flush.metric.name." + std::to_string(i)),
           static_cast<double>(i)});
    }
    double t = 1.0;
    const std::uint64_t allocs = measuredAllocations([&] {
      client.enqueueIds(batch, t);
      t += 1.0;
    });
    EXPECT_EQ(client.counters().batchesSent,
              static_cast<std::uint64_t>(kWarmup + kMeasured));
    EXPECT_EQ(client.counters().recordsSent,
              (kWarmup + kMeasured) * records);
    EXPECT_GT(wire->bytesSent, 0u);
    return static_cast<double>(allocs) / kMeasured;
  };
  const double one = allocationsPerFlush(1);
  const double full = allocationsPerFlush(145);
  EXPECT_LE(one, 4.0);
  EXPECT_LE(full, 4.0) << "a flush must not allocate per record";
}

TEST(ZeroAlloc, InternedLookupIsAllocationFree) {
  const names::Id id = names::intern("za.lookup.metric");
  const std::uint64_t allocs = measuredAllocations([&] {
    const std::string_view v = names::lookup(id);
    ASSERT_EQ(v, "za.lookup.metric");
    ASSERT_EQ(names::intern(v), id);  // re-interning an existing name
  });
  EXPECT_EQ(allocs, 0u);
}

// A forwarding node daemon's store in steady state: every record marks
// its fine and coarse window dirty, and the forwarder drains the marks
// every period into one reused series-block buffer.  Marks, dirty-series
// lists and drain blocks all keep their capacity, so neither side
// allocates once warm.
TEST(ZeroAlloc, DirtyMarksAndDrainsSteadyState) {
  constexpr int kSeries = 64;
  constexpr int kPeriods = 100;
  aggregator::StoreOptions options;
  options.fineRetentionWindows = 32;
  options.coarseRetentionWindows = 8;
  aggregator::RollupStore store(options);
  store.enableDirtyTracking();
  std::vector<aggregator::SeriesKey> keys;
  for (int rank = 0; rank < kSeries; ++rank) {
    // Keys are ids: a drain copies 12 bytes per block, however long the
    // name.
    keys.push_back({"job", rank, "node.hwt.17.user_pct.with.a.long.name"});
  }
  std::vector<aggregator::RollupStore::SeriesRef> refs(kSeries);
  aggregator::SeriesBlocks blocks;
  int period = 0;
  std::uint64_t ingestAllocs = 0;
  std::uint64_t drainAllocs = 0;
  std::size_t drained = 0;
  const auto runPeriod = [&] {
    std::uint64_t before = allochook::allocations();
    for (int s = 0; s < kSeries; ++s) {
      store.ingest(keys[s], refs[s], period + 0.5, 1.0);
    }
    ingestAllocs += allochook::allocations() - before;
    before = allochook::allocations();
    drained += store.drainDirty(blocks, 1024);
    drainAllocs += allochook::allocations() - before;
    ++period;
  };
  // Warm up past both retention depths (8 coarse windows = 80 periods),
  // so the window buffers evict and compact as they will from now on.
  for (int i = 0; i < 4 * 80; ++i) {
    runPeriod();
  }
  ingestAllocs = drainAllocs = drained = 0;
  for (int i = 0; i < kPeriods; ++i) {
    runPeriod();
  }
  EXPECT_EQ(ingestAllocs, 0u) << "dirty marks must not allocate once warm";
  EXPECT_EQ(drainAllocs, 0u) << "drains must reuse the block buffer";
  // One fine and one coarse window per series per period, all shipped.
  EXPECT_EQ(drained, 2u * kSeries * kPeriods);
  EXPECT_EQ(blocks.blocks().size(), static_cast<std::size_t>(kSeries));
  EXPECT_EQ(store.dirtyCount(), 0u);
}

// Not a zero-allocation path, but the same hook pins its shape: a store
// snapshot shares each series' window chunks instead of copying them, so
// its cost follows the series count, not retained history.
TEST(ZeroAlloc, StoreSnapshotAllocationsIgnoreRetainedWindows) {
  constexpr int kSeries = 64;
  const auto snapshotAllocations = [](int windowsPerSeries) {
    aggregator::RollupStore store;  // retains 600 fine, 360 coarse windows
    for (int rank = 0; rank < kSeries; ++rank) {
      const aggregator::SeriesKey key{"job", rank, "cpu"};
      for (int w = 0; w < windowsPerSeries; ++w) {
        store.ingest(key, static_cast<double>(w) + 0.5, 1.0);
      }
    }
    const std::uint64_t before = allochook::allocations();
    const aggregator::StoreSnapshot snap = store.snapshot();
    const std::uint64_t allocs = allochook::allocations() - before;
    EXPECT_EQ(snap.seriesCount(), static_cast<std::size_t>(kSeries));
    EXPECT_EQ(snap.series().front().fine.size(),
              static_cast<std::size_t>(windowsPerSeries));
    return allocs;
  };
  const std::uint64_t shallow = snapshotAllocations(5);
  EXPECT_EQ(shallow, snapshotAllocations(500));
  // Two buffers per series plus the snapshot's own vectors.
  EXPECT_LE(shallow, 2U * kSeries + 4U);
}

// The bytes behind that shape: a snapshot shares each series' window
// chunks, so a deeper history costs it one more chunk pointer per chunk
// and no window bytes.
TEST(ZeroAlloc, StoreSnapshotBytesIgnoreRetainedWindows) {
  constexpr int kSeries = 64;
  constexpr std::size_t kChunk = aggregator::WindowBuffer::kChunkWindows;
  const auto chunks = [](std::size_t windows) {
    return (windows + kChunk - 1) / kChunk;
  };
  const auto snapshotBytes = [](int windowsPerSeries) {
    aggregator::RollupStore store;  // coarse windows are 10 fine wide
    for (int rank = 0; rank < kSeries; ++rank) {
      const aggregator::SeriesKey key{"job", rank, "cpu"};
      for (int w = 0; w < windowsPerSeries; ++w) {
        store.ingest(key, static_cast<double>(w) + 0.5, 1.0);
      }
    }
    const std::uint64_t before = allochook::allocatedBytes();
    const aggregator::StoreSnapshot snap = store.snapshot();
    const std::uint64_t bytes = allochook::allocatedBytes() - before;
    EXPECT_EQ(snap.series().back().fine.size(),
              static_cast<std::size_t>(windowsPerSeries));
    return bytes;
  };
  const std::uint64_t shallow = snapshotBytes(5);
  const std::uint64_t deep = snapshotBytes(500);
  // 500 fine windows fill chunks(500) chunks, their 50 coarse windows
  // chunks(50): one pointer each, per series.
  const std::uint64_t deepChunks = kSeries * (chunks(500) + chunks(50));
  EXPECT_GE(deep, shallow);
  EXPECT_LE(deep - shallow, deepChunks * sizeof(void*));
}

/// Counts the bytes a stream receives, and allocates nothing itself.
class CountingSink final : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      ++bytes;
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

// Not a zero-allocation path either: the end-of-run LWP table formats its
// rows into one reused buffer and renders an LWP's affinity text once per
// change, so its allocations follow the LWPs and their affinity changes,
// never the number of rows.
TEST(ZeroAlloc, LogRenderAllocationsIgnoreSampleCount) {
  constexpr int kLwps = 8;
  // Both lists are longer than the small-string buffer.
  const CpuSet before = CpuSet::fromList("1-7,9-15,17-23,25-31,33-39");
  const CpuSet after = CpuSet::fromList("65-71,73-79,81-87,89-95,97-103");
  const auto renderAllocations = [&](int samplesPerLwp) {
    std::map<int, core::LwpRecord> lwps;
    for (int tid = 100; tid < 100 + kLwps; ++tid) {
      core::LwpRecord& record = lwps[tid];
      record.tid = tid;
      record.type = LwpType::kOpenMp;
      for (int i = 0; i < samplesPerLwp; ++i) {
        core::LwpSample sample;
        sample.timeSeconds = i;
        sample.utime = static_cast<std::uint64_t>(i) * 97;
        sample.processor = tid % 7;
        record.addSample(sample, i < samplesPerLwp / 2 ? before : after);
      }
    }
    CountingSink sink;
    std::ostream out(&sink);
    const std::uint64_t start = allochook::allocations();
    core::CsvExporter::writeLwpSeries(out, lwps);
    const std::uint64_t allocs = allochook::allocations() - start;
    // Every row went out: each is longer than 50 bytes.
    EXPECT_GT(sink.bytes, 50U * kLwps * static_cast<unsigned>(samplesPerLwp));
    return allocs;
  };
  EXPECT_EQ(renderAllocations(10), renderAllocations(1000));
}

// The durable write path in steady state.  Compaction empties the hot
// window buffers and keeps them, and the rotated WAL keeps its frame
// buffer, so once 64 series have been through one compaction cycle a
// second cycle of in-order appends allocates nothing, though each period
// adds one fine window per series.
TEST(ZeroAlloc, EngineAppendSteadyState) {
  namespace fs = std::filesystem;
  constexpr int kSeries = 64;
  constexpr int kPeriods = 40;  // four whole coarse windows of ten
  const fs::path dir = fs::temp_directory_path() /
                       ("zs_zero_alloc_engine_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    tsdb::EngineOptions options;
    options.fsync = tsdb::FsyncPolicy::kOff;
    tsdb::Engine engine(dir.string(), options);
    const names::Id job = names::intern("job");
    std::vector<aggregator::IdRecord> records;
    for (int m = 0; m < kSeries; ++m) {
      records.push_back(
          {0.0, names::intern("za.engine.metric." + std::to_string(m)), 0.0});
    }
    const auto period = [&](int p) {
      for (aggregator::IdRecord& record : records) {
        record.timeSeconds = p + 0.5;
        record.value = p;
      }
      engine.append(job, 0, records);
    };
    for (int p = 0; p < kPeriods; ++p) {
      period(p);
    }
    engine.compact();
    const std::uint64_t before = allochook::allocations();
    for (int p = kPeriods; p < 2 * kPeriods; ++p) {
      period(p);
    }
    EXPECT_EQ(allochook::allocations() - before, 0U);
    EXPECT_EQ(engine.counters().samplesAppended,
              2U * kPeriods * kSeries);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace zerosum
