#include "tsdb/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/interning.hpp"
#include "tsdb/codec.hpp"
#include "tsdb/crc32.hpp"

namespace zerosum::tsdb {

namespace {

constexpr std::uint8_t kWalVersion = 1;
/// Hard ceiling on one record (a corrupt length prefix must not turn
/// into a gigabyte allocation during recovery).
constexpr std::uint32_t kMaxWalRecordBytes = 16U << 20;

std::uint32_t getU32(const char* data) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
             data[i]))
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

double getF64(const std::string& data, std::size_t& pos) {
  if (pos + 8 > data.size()) {
    throw ParseError("wal: f64 truncated");
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

std::string getStr(const std::string& data, std::size_t& pos) {
  const std::uint64_t n = getVarint(data, pos);
  if (n > data.size() - pos) {
    throw ParseError("wal: string truncated");
  }
  std::string s = data.substr(pos, n);
  pos += n;
  return s;
}

}  // namespace

FsyncPolicy fsyncPolicyFromString(const std::string& name) {
  if (name == "always") {
    return FsyncPolicy::kAlways;
  }
  if (name == "batch") {
    return FsyncPolicy::kBatch;
  }
  if (name == "off") {
    return FsyncPolicy::kOff;
  }
  throw ConfigError("ZS_TSDB_FSYNC must be always|batch|off, got \"" + name +
                    "\"");
}

const char* fsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kBatch: return "batch";
    case FsyncPolicy::kOff: return "off";
  }
  return "?";
}

void internSamples(const std::vector<Sample>& samples,
                   std::vector<IdRecord>& out) {
  out.reserve(out.size() + samples.size());
  for (const Sample& sample : samples) {
    out.push_back(
        {sample.timeSeconds, names::intern(sample.metric), sample.value});
  }
}

void encodeWalPayloadInto(std::string& out, std::string_view job,
                          std::int32_t rank,
                          std::span<const IdRecord> records) {
  const auto named = [](const IdRecord& record) {
    return record.name != names::kInvalidId;
  };
  out.push_back(static_cast<char>(kWalVersion));
  putStr(out, job);
  putVarint(out, zigzag(rank));
  putVarint(out,
            static_cast<std::uint64_t>(std::ranges::count_if(records, named)));
  for (const IdRecord& record : records) {
    if (named(record)) {
      putF64(out, record.timeSeconds);
      putStr(out, names::lookup(record.name));
      putF64(out, record.value);
    }
  }
}

std::string encodeWalPayload(const WalBatch& batch) {
  std::vector<IdRecord> records;
  internSamples(batch.samples, records);
  std::string out;
  encodeWalPayloadInto(out, batch.job, batch.rank, records);
  return out;
}

WalBatch decodeWalPayload(const std::string& payload) {
  std::size_t pos = 0;
  if (payload.empty()) {
    throw ParseError("wal: empty payload");
  }
  const auto version = static_cast<std::uint8_t>(payload[pos++]);
  if (version != kWalVersion) {
    throw ParseError("wal: unknown payload version " +
                     std::to_string(version));
  }
  WalBatch batch;
  batch.job = getStr(payload, pos);
  batch.rank = static_cast<std::int32_t>(unzigzag(getVarint(payload, pos)));
  const std::uint64_t count = getVarint(payload, pos);
  if (count > payload.size() - pos) {
    // Every sample costs >= 17 bytes; a count beyond the remaining bytes
    // is corruption.
    throw ParseError("wal: sample count exceeds payload");
  }
  batch.samples.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Sample sample;
    sample.timeSeconds = getF64(payload, pos);
    sample.metric = getStr(payload, pos);
    sample.value = getF64(payload, pos);
    batch.samples.push_back(std::move(sample));
  }
  if (pos != payload.size()) {
    throw ParseError("wal: trailing bytes in payload");
  }
  return batch;
}

// --- WalWriter -------------------------------------------------------------

WalWriter::WalWriter(const std::string& path, FsyncPolicy policy,
                     std::uint64_t batchBytes)
    : policy_(policy), batchBytes_(batchBytes) {
  reopen(path);
}

void WalWriter::reopen(const std::string& path) {
  close();
  path_ = path;
  dirtyBytes_ = 0;
  appended_ = 0;
  torn_ = false;
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw StateError("wal: cannot open " + path + ": " +
                     std::strerror(errno));
  }
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  sizeBytes_ = end > 0 ? static_cast<std::uint64_t>(end) : 0;
}

WalWriter::~WalWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() errors surface via explicit
    // close() calls on the orderly path.
  }
}

void WalWriter::append(const WalBatch& batch) {
  std::vector<IdRecord> records;
  internSamples(batch.samples, records);
  append(batch.job, batch.rank, records);
}

void WalWriter::append(std::string_view job, std::int32_t rank,
                       std::span<const IdRecord> records) {
  if (fd_ < 0) {
    throw StateError("wal: append after close");
  }
  if (torn_) {
    throw StateError("wal: " + path_ +
                     " ends in a torn frame; reopen before appending");
  }
  // Encode the payload directly after an 8-byte header placeholder in
  // the reused frame buffer, then patch length + CRC in place — one
  // buffer, no per-append allocation once the capacity is warm.
  std::string& frame = frameScratch_;
  frame.clear();
  frame.append(8, '\0');
  encodeWalPayloadInto(frame, job, rank, records);
  const std::size_t payloadSize = frame.size() - 8;
  if (payloadSize > kMaxWalRecordBytes) {
    throw StateError("wal: record exceeds " +
                     std::to_string(kMaxWalRecordBytes) + " bytes");
  }
  const auto len = static_cast<std::uint32_t>(payloadSize);
  const std::uint32_t crc = crc32(frame.data() + 8, payloadSize);
  for (unsigned i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>((len >> (8U * i)) & 0xFFU);
    frame[4 + i] = static_cast<char>((crc >> (8U * i)) & 0xFFU);
  }
  // One write() per record: O_APPEND makes the frame land contiguously,
  // and an interrupted process tears at most this one record's tail.  A
  // write that fails part-way (EFBIG, ENOSPC, EIO) is cut back off, so
  // the next append never lands after a torn frame.
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      const std::string why = n < 0 ? std::strerror(errno) : "short write";
      dropTornFrame();
      throw StateError("wal: write to " + path_ + " failed: " + why);
    }
    written += static_cast<std::size_t>(n);
  }
  sizeBytes_ += frame.size();
  dirtyBytes_ += frame.size();
  ++appended_;
  if (policy_ == FsyncPolicy::kAlways ||
      (policy_ == FsyncPolicy::kBatch && dirtyBytes_ >= batchBytes_)) {
    sync();
  }
}

void WalWriter::dropTornFrame() {
  if (::ftruncate(fd_, static_cast<off_t>(sizeBytes_)) != 0) {
    torn_ = true;
  }
}

void WalWriter::sync() {
  if (fd_ < 0 || dirtyBytes_ == 0) {
    return;
  }
  if (::fdatasync(fd_) != 0) {
    throw StateError("wal: fdatasync failed: " +
                     std::string(std::strerror(errno)));
  }
  dirtyBytes_ = 0;
}

void WalWriter::close() {
  if (fd_ < 0) {
    return;
  }
  if (policy_ != FsyncPolicy::kOff) {
    sync();
  }
  ::close(fd_);
  fd_ = -1;
}

// --- readWal ---------------------------------------------------------------

WalReadResult readWal(const std::string& path) {
  WalReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return result;  // a missing log is an empty log
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  std::size_t pos = 0;
  const auto damaged = [&](const std::string& why) {
    result.goodBytes = pos;
    result.damagedBytes = bytes.size() - pos;
    result.damage = why;
    return result;
  };
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      return damaged("truncated record header");
    }
    const std::uint32_t len = getU32(bytes.data() + pos);
    const std::uint32_t storedCrc = getU32(bytes.data() + pos + 4);
    if (len == 0 || len > kMaxWalRecordBytes) {
      return damaged("implausible record length " + std::to_string(len));
    }
    if (bytes.size() - pos - 8 < len) {
      return damaged("torn record (" + std::to_string(bytes.size() - pos - 8) +
                     " of " + std::to_string(len) + " payload bytes)");
    }
    const std::string payload = bytes.substr(pos + 8, len);
    if (crc32(payload) != storedCrc) {
      return damaged("crc mismatch");
    }
    try {
      result.batches.push_back(decodeWalPayload(payload));
    } catch (const ParseError& e) {
      return damaged(e.what());
    }
    pos += 8 + len;
  }
  result.goodBytes = pos;
  return result;
}

void repairWal(const std::string& path, const WalReadResult& result) {
  if (result.damagedBytes == 0) {
    return;
  }
  if (::truncate(path.c_str(), static_cast<off_t>(result.goodBytes)) != 0) {
    throw StateError("wal: cannot truncate " + path + ": " +
                     std::strerror(errno));
  }
}

}  // namespace zerosum::tsdb
