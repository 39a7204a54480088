// Sealed, immutable, compressed segment files.
//
// A segment is one compaction's worth of rollup windows, written once,
// atomically published (write to "<name>.tmp", fdatasync, rename), and
// never modified.  Layout:
//
//   file   := "ZSSG" u8 version | block* | footer
//   block  := windowIdx column (delta-of-delta varints)
//             | min column (Gorilla XOR) | max column | sum column
//             | count column (varints)        — one block per series+res
//   footer := varint entryCount
//             | { job str | zigzag rank | metric str | u8 resolution |
//                 varint offset | varint length |
//                 zigzag minWindow | zigzag maxWindow | varint windows }*
//             | f64 fineWindowSeconds | varint coarseFactor
//             | varint walSeqCovered
//             | u32 crc32(all footer bytes above)
//             | u32 footerLength | "ZSFT"
//
// The footer is read backwards from the trailing magic, so a segment
// whose write was interrupted before the rename never exists, and one
// with a damaged footer is detected (and dropped whole) rather than
// misindexed.  `walSeqCovered` is the compaction frontier: every WAL
// file with sequence <= it is fully contained in this segment, which is
// what makes the crash window between "segment renamed" and "old WAL
// deleted" idempotent on recovery.
//
// Footer entries are sorted by (job, rank, metric, resolution): the
// writer walks its series map in key order, fine before coarse.  The
// reader checks that order at open (stable-sorting a footer that breaks
// it, so repeated entries keep their file order) and find() answers with
// one binary search, so a read decodes only the blocks of its series.
//
// Readers mmap() the file when the platform allows and fall back to a
// buffered read; either way decode is strict (CRC + per-column bounds).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregator/store.hpp"

namespace zerosum::tsdb {

using aggregator::Resolution;
using aggregator::Rollup;
using aggregator::SeriesKey;

/// In-memory windows of one series at both resolutions (the engine's hot
/// state and the segment writer's input): flat, index-sorted buffers that
/// keep their capacity when cleared.
struct SeriesWindows {
  aggregator::WindowBuffer fine;
  aggregator::WindowBuffer coarse;

  /// True when neither resolution holds a window.
  [[nodiscard]] bool empty() const { return fine.empty() && coarse.empty(); }
};

/// Footer metadata shared by every block in a segment.  SegmentReader
/// rejects widths the Engine constructor would (fine window not > 0,
/// coarse factor < 2), since a read-only Engine adopts them.
struct SegmentMeta {
  double fineWindowSeconds = 1.0;
  int coarseFactor = 10;
  /// WAL files with sequence <= this are fully contained in the segment.
  std::uint64_t walSeqCovered = 0;
};

/// One footer index entry.
struct SegmentEntry {
  SeriesKey key;
  Resolution resolution = Resolution::kFine;
  std::uint64_t offset = 0;  ///< block start, bytes from file start
  std::uint64_t length = 0;  ///< block length in bytes
  std::int64_t minWindow = 0;
  std::int64_t maxWindow = 0;
  std::uint64_t windows = 0;
};

/// Writes a sealed segment atomically; returns the final file size.  A
/// series' empty buffers get no block and no footer entry.  Throws
/// StateError on I/O failure (the .tmp file is removed).
std::uint64_t writeSegment(const std::string& path,
                           const std::map<SeriesKey, SeriesWindows>& series,
                           const SegmentMeta& meta);

/// Read side of one sealed segment.  Opening parses and verifies the
/// footer; block decode happens lazily per read.
class SegmentReader {
 public:
  /// Throws ParseError when the file is missing, has no valid footer, or
  /// fails the footer CRC.
  explicit SegmentReader(const std::string& path);
  ~SegmentReader();

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const SegmentMeta& meta() const { return meta_; }
  /// Every footer entry, sorted by (key, resolution).
  [[nodiscard]] const std::vector<SegmentEntry>& entries() const {
    return entries_;
  }
  /// The entries of one series at one resolution, in footer order (empty
  /// when the segment holds none).  Valid while the reader lives.
  [[nodiscard]] std::span<const SegmentEntry> find(
      const SeriesKey& key, Resolution resolution) const;
  [[nodiscard]] std::uint64_t sizeBytes() const { return size_; }
  /// True when the file is memory-mapped (false = buffered fallback).
  [[nodiscard]] bool mapped() const { return mapped_; }

  /// Decodes one entry's windows, sorted by window index.  Throws
  /// ParseError on a corrupt block.
  [[nodiscard]] std::vector<std::pair<std::int64_t, Rollup>> readWindows(
      const SegmentEntry& entry) const;

 private:
  std::string path_;
  const char* data_ = nullptr;
  std::uint64_t size_ = 0;
  bool mapped_ = false;
  std::string buffer_;  ///< backing store for the non-mmap fallback
  SegmentMeta meta_;
  std::vector<SegmentEntry> entries_;
};

}  // namespace zerosum::tsdb
