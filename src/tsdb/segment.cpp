#include "tsdb/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>

#include "common/error.hpp"
#include "common/interning.hpp"
#include "tsdb/codec.hpp"
#include "tsdb/crc32.hpp"

namespace zerosum::tsdb {

namespace {

constexpr char kHeaderMagic[4] = {'Z', 'S', 'S', 'G'};
constexpr char kFooterMagic[4] = {'Z', 'S', 'F', 'T'};
constexpr std::uint8_t kSegmentVersion = 1;

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8U * static_cast<unsigned>(i))) &
                                    0xFFU));
  }
}

std::uint32_t getU32(const char* data) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[i]))
         << (8U * static_cast<unsigned>(i));
  }
  return v;
}

void putF64(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  char bytes[8];
  for (unsigned i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(bits >> (8U * i));
  }
  out.append(bytes, sizeof(bytes));
}

double getF64(std::string_view data, std::size_t& pos) {
  if (pos + 8 > data.size()) {
    throw ParseError("segment: f64 truncated");
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                data[pos + static_cast<std::size_t>(i)]))
            << (8U * static_cast<unsigned>(i));
  }
  pos += 8;
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void putStr(std::string& out, std::string_view s) {
  putVarint(out, s.size());
  out.append(s);
}

std::string_view getStr(std::string_view data, std::size_t& pos) {
  const std::uint64_t n = getVarint(data, pos);
  if (n > data.size() - pos) {
    throw ParseError("segment: string truncated");
  }
  const std::string_view s = data.substr(pos, n);
  pos += n;
  return s;
}

/// Footer order, the key find() searches by: (job, rank, metric,
/// resolution).
auto footerOrder(const SegmentEntry& entry) {
  return std::tie(entry.key, entry.resolution);
}

/// One block's columns, reused from block to block of a segment.
struct BlockColumns {
  std::vector<std::int64_t> indices;
  std::vector<double> mins;
  std::vector<double> maxs;
  std::vector<double> sums;
  std::vector<std::uint64_t> counts;
};

/// Encodes one series+resolution block of windows.
void encodeBlock(const aggregator::WindowBuffer& windows, std::string& out,
                 BlockColumns& columns) {
  columns.indices.clear();
  columns.mins.clear();
  columns.maxs.clear();
  columns.sums.clear();
  columns.counts.clear();
  for (const auto& [index, rollup] : windows) {
    columns.indices.push_back(index);
    columns.mins.push_back(rollup.min);
    columns.maxs.push_back(rollup.max);
    columns.sums.push_back(rollup.sum);
    columns.counts.push_back(rollup.count);
  }
  encodeTimestamps(columns.indices, out);
  encodeValues(columns.mins, out);
  encodeValues(columns.maxs, out);
  encodeValues(columns.sums, out);
  encodeCounts(columns.counts, out);
}

}  // namespace

std::uint64_t writeSegment(const std::string& path,
                           const std::map<SeriesKey, SeriesWindows>& series,
                           const SegmentMeta& meta) {
  std::string body;
  body.append(kHeaderMagic, sizeof(kHeaderMagic));
  body.push_back(static_cast<char>(kSegmentVersion));

  std::vector<SegmentEntry> entries;
  BlockColumns columns;
  for (const auto& [key, windows] : series) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      const auto& buffer =
          res == Resolution::kFine ? windows.fine : windows.coarse;
      if (buffer.empty()) {
        continue;
      }
      SegmentEntry entry;
      entry.key = key;
      entry.resolution = res;
      entry.offset = body.size();
      entry.minWindow = buffer.begin()->first;
      entry.maxWindow = buffer.back().first;
      entry.windows = buffer.size();
      encodeBlock(buffer, body, columns);
      entry.length = body.size() - entry.offset;
      entries.push_back(std::move(entry));
    }
  }

  std::string footer;
  putVarint(footer, entries.size());
  for (const auto& entry : entries) {
    putStr(footer, entry.key.jobName());
    putVarint(footer, zigzag(entry.key.rank));
    putStr(footer, entry.key.metricName());
    footer.push_back(static_cast<char>(entry.resolution));
    putVarint(footer, entry.offset);
    putVarint(footer, entry.length);
    putVarint(footer, zigzag(entry.minWindow));
    putVarint(footer, zigzag(entry.maxWindow));
    putVarint(footer, entry.windows);
  }
  putF64(footer, meta.fineWindowSeconds);
  putVarint(footer, static_cast<std::uint64_t>(meta.coarseFactor));
  putVarint(footer, meta.walSeqCovered);
  putU32(footer, crc32(footer));
  putU32(footer, static_cast<std::uint32_t>(footer.size()));
  footer.append(kFooterMagic, sizeof(kFooterMagic));
  body.append(footer);

  // Write-then-rename: the segment becomes visible only complete.
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw StateError("segment: cannot create " + tmp + ": " +
                     std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < body.size()) {
    const ssize_t n = ::write(fd, body.data() + written,
                              body.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      std::remove(tmp.c_str());
      throw StateError("segment: write to " + tmp + " failed: " +
                       std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fdatasync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    std::remove(tmp.c_str());
    throw StateError("segment: fdatasync failed: " + std::string(std::strerror(err)));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw StateError("segment: rename to " + path + " failed: " +
                     std::strerror(err));
  }
  return body.size();
}

// --- SegmentReader ---------------------------------------------------------

SegmentReader::SegmentReader(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw ParseError("segment: cannot open " + path + ": " +
                     std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw ParseError("segment: cannot stat " + path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      data_ = static_cast<const char*>(map);
      mapped_ = true;
    }
  }
  if (!mapped_) {
    // Buffered fallback (mmap can fail on exotic filesystems or empty
    // files; an empty file still fails footer parsing below).
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    buffer_ = buf.str();
    data_ = buffer_.data();
    size_ = buffer_.size();
  }
  ::close(fd);

  // Parse backwards: trailing magic, footer length, then the footer.
  if (size_ < sizeof(kHeaderMagic) + 1 + 8 + sizeof(kFooterMagic) ||
      std::memcmp(data_, kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
    throw ParseError("segment: " + path + " has no valid header");
  }
  if (std::memcmp(data_ + size_ - 4, kFooterMagic, 4) != 0) {
    throw ParseError("segment: " + path + " has no footer magic");
  }
  const std::uint32_t footerLen = getU32(data_ + size_ - 8);
  if (footerLen + 8ULL + sizeof(kHeaderMagic) + 1 > size_) {
    throw ParseError("segment: " + path + " footer length implausible");
  }
  const std::string_view footer(data_ + size_ - 8 - footerLen, footerLen);
  if (footer.size() < 4) {
    throw ParseError("segment: " + path + " footer too short");
  }
  const std::string_view checked = footer.substr(0, footer.size() - 4);
  if (crc32(checked) != getU32(footer.data() + footer.size() - 4)) {
    throw ParseError("segment: " + path + " footer crc mismatch");
  }
  std::size_t pos = 0;
  const std::uint64_t entryCount = getVarint(checked, pos);
  if (entryCount > checked.size()) {
    throw ParseError("segment: " + path + " entry count implausible");
  }
  entries_.reserve(entryCount);
  const std::uint64_t blocksEnd = size_ - 8 - footerLen;
  for (std::uint64_t i = 0; i < entryCount; ++i) {
    // Footer names are interned once, here: entries are keyed by this
    // process's ids from then on.
    SegmentEntry entry;
    entry.key.job = names::intern(getStr(checked, pos));
    entry.key.rank = static_cast<int>(unzigzag(getVarint(checked, pos)));
    entry.key.metric = names::intern(getStr(checked, pos));
    if (pos >= checked.size()) {
      throw ParseError("segment: footer entry truncated");
    }
    const auto res = static_cast<std::uint8_t>(checked[pos++]);
    if (res > static_cast<std::uint8_t>(Resolution::kCoarse)) {
      throw ParseError("segment: bad resolution tag");
    }
    entry.resolution = static_cast<Resolution>(res);
    entry.offset = getVarint(checked, pos);
    entry.length = getVarint(checked, pos);
    entry.minWindow = unzigzag(getVarint(checked, pos));
    entry.maxWindow = unzigzag(getVarint(checked, pos));
    entry.windows = getVarint(checked, pos);
    // Written so that no sum can wrap: readWindows decodes these bytes in
    // place.
    if (entry.offset < sizeof(kHeaderMagic) + 1 || entry.length > blocksEnd ||
        entry.offset > blocksEnd - entry.length) {
      throw ParseError("segment: block extent out of bounds");
    }
    entries_.push_back(std::move(entry));
  }
  meta_.fineWindowSeconds = getF64(checked, pos);
  const std::uint64_t coarseFactor = getVarint(checked, pos);
  meta_.walSeqCovered = getVarint(checked, pos);
  if (pos != checked.size()) {
    throw ParseError("segment: trailing bytes in footer");
  }
  // A read-only Engine adopts these widths, so they must pass the Engine
  // constructor's own option checks (a zero factor would divide by zero
  // on WAL replay).
  if (!(meta_.fineWindowSeconds > 0.0) || coarseFactor < 2 ||
      coarseFactor > static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())) {
    throw ParseError("segment: " + path + " window widths invalid");
  }
  meta_.coarseFactor = static_cast<int>(coarseFactor);
  // writeSegment emits footer order already; only a foreign or
  // hand-built file pays for the sort.
  if (!std::ranges::is_sorted(entries_, {}, footerOrder)) {
    std::ranges::stable_sort(entries_, {}, footerOrder);
  }
}

std::span<const SegmentEntry> SegmentReader::find(const SeriesKey& key,
                                                  Resolution resolution) const {
  return std::ranges::equal_range(entries_, std::tie(key, resolution), {},
                                  footerOrder);
}

SegmentReader::~SegmentReader() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

std::vector<std::pair<std::int64_t, Rollup>> SegmentReader::readWindows(
    const SegmentEntry& entry) const {
  // The columns decode in place, out of the mapped bytes bounded by the
  // footer extent; the codec's strict bounds checks do the rest.
  const std::string_view block(data_ + entry.offset, entry.length);
  std::size_t pos = 0;
  const std::vector<std::int64_t> indices = decodeTimestamps(block, pos);
  const std::vector<double> mins = decodeValues(block, pos);
  const std::vector<double> maxs = decodeValues(block, pos);
  const std::vector<double> sums = decodeValues(block, pos);
  const std::vector<std::uint64_t> counts = decodeCounts(block, pos);
  if (pos != block.size() || indices.size() != mins.size() ||
      indices.size() != maxs.size() || indices.size() != sums.size() ||
      indices.size() != counts.size() || indices.size() != entry.windows) {
    throw ParseError("segment: block column sizes disagree");
  }
  std::vector<std::pair<std::int64_t, Rollup>> out;
  out.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    Rollup r;
    r.min = mins[i];
    r.max = maxs[i];
    r.sum = sums[i];
    r.count = counts[i];
    out.emplace_back(indices[i], r);
  }
  return out;
}

}  // namespace zerosum::tsdb
