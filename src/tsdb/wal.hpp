// Write-ahead log for the time-series engine.
//
// An append-only file of self-delimiting records:
//
//   record := [u32 payloadLen][u32 crc32(payload)][payload]
//   payload := u8 version | job string | zigzag-varint rank |
//              varint sampleCount | { f64 time | metric string | f64 value }*
//
// (u32/f64 little-endian fixed width, strings varint-length-prefixed.)
//
// Durability is a policy, not a promise (ZS_TSDB_FSYNC):
//   always — fdatasync after every record (safe against power loss);
//   batch  — fdatasync once at least `batchBytes` accumulated, and on
//            sync()/close() (safe against process death, bounded loss on
//            power loss — the default);
//   off    — no explicit syncing (page cache only).
//
// Recovery (readWal) tolerates exactly the failure shapes a crashed
// single writer can leave behind: a truncated header, a torn half-written
// record, or a corrupt tail.  It returns every record up to the first
// damage and reports the damaged suffix; repairWal() truncates the file
// back to the last good byte so the writer can append again.  Damage in
// the *middle* of a file cannot be distinguished from a shifted frame
// boundary, so recovery never resynchronizes past it — only the suffix
// is dropped, never a prefix.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aggregator/wire.hpp"

namespace zerosum::tsdb {

using aggregator::IdRecord;

enum class FsyncPolicy : std::uint8_t { kAlways, kBatch, kOff };

/// Parses "always" | "batch" | "off"; throws ConfigError otherwise.
FsyncPolicy fsyncPolicyFromString(const std::string& name);
const char* fsyncPolicyName(FsyncPolicy policy);

/// One observation inside a WAL record.
struct Sample {
  double timeSeconds = 0.0;
  std::string metric;
  double value = 0.0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// One appended record: a batch of samples from one (job, rank) source.
struct WalBatch {
  std::string job;
  std::int32_t rank = 0;
  std::vector<Sample> samples;

  friend bool operator==(const WalBatch&, const WalBatch&) = default;
};

/// Appends one id record per sample to `out`, its metric interned
/// (names::intern).
void internSamples(const std::vector<Sample>& samples,
                   std::vector<IdRecord>& out);

/// The one payload encoder: appends one record payload to `out` (so a
/// caller-owned buffer keeps its capacity and any prefix already
/// written), each metric written as its names::lookup() text.  A record
/// named names::kInvalidId (the interner's table-full answer, which has
/// no text) is left out rather than logged under an empty name.
void encodeWalPayloadInto(std::string& out, std::string_view job,
                          std::int32_t rank,
                          std::span<const IdRecord> records);
/// Serializes / parses one record payload (exposed for tests; the
/// framing and CRC live in the writer/reader).
std::string encodeWalPayload(const WalBatch& batch);
WalBatch decodeWalPayload(const std::string& payload);

/// Append side.  Not thread-safe: the engine is a single writer.
class WalWriter {
 public:
  /// Opens (creating or appending) `path`.  Throws StateError when the
  /// file cannot be opened.
  WalWriter(const std::string& path, FsyncPolicy policy,
            std::uint64_t batchBytes = 256 * 1024);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record (write() of the full frame, then the policy's
  /// sync) straight from id records — the engine's hot path; the frame
  /// buffer is reused across appends.  Throws StateError on I/O failure;
  /// a write that fails part-way is truncated away first, so the file
  /// still ends at a whole frame.  When that truncate fails too, every
  /// later append throws StateError until reopen().
  void append(std::string_view job, std::int32_t rank,
              std::span<const IdRecord> records);
  /// The same for a WalBatch, its metrics interned first.
  void append(const WalBatch& batch);

  /// close(), then opens (creating or appending) `path` in its place.  The
  /// frame buffer keeps its capacity, so a rotated log appends without
  /// allocating.  Throws StateError when the file cannot be opened.
  void reopen(const std::string& path);

  /// Forces fdatasync (regardless of policy, except that an already
  /// clean log is a no-op).
  void sync();

  /// sync() + close(2).  Implicit in the destructor.
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Bytes in the file (pre-existing plus appended).
  [[nodiscard]] std::uint64_t sizeBytes() const { return sizeBytes_; }
  [[nodiscard]] std::uint64_t recordsAppended() const { return appended_; }

 private:
  std::string path_;
  FsyncPolicy policy_;
  std::uint64_t batchBytes_;
  int fd_ = -1;
  std::uint64_t sizeBytes_ = 0;
  std::uint64_t dirtyBytes_ = 0;  ///< written since the last sync
  std::uint64_t appended_ = 0;
  std::string frameScratch_;  ///< reused frame buffer (header + payload)
  /// A failed write's partial frame could not be cut off: nothing may be
  /// appended after it.
  bool torn_ = false;

  /// Truncates the file back to sizeBytes_, the end of the last whole
  /// frame, after a failed write; sets torn_ when that fails.
  void dropTornFrame();
};

/// Result of scanning one WAL file.
struct WalReadResult {
  std::vector<WalBatch> batches;
  /// File offset after the last intact record.
  std::uint64_t goodBytes = 0;
  /// Bytes past goodBytes (zero on a clean log).
  std::uint64_t damagedBytes = 0;
  /// Why the tail was dropped; empty on a clean log.
  std::string damage;
};

/// Scans `path` front to back, stopping at the first damaged record.
/// A missing file reads as an empty, clean log.
WalReadResult readWal(const std::string& path);

/// Truncates `path` to `result.goodBytes` (dropping the damaged suffix)
/// so a writer can append cleanly.  No-op when the log was clean.
void repairWal(const std::string& path, const WalReadResult& result);

}  // namespace zerosum::tsdb
