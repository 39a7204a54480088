#include "aggregator/wire.hpp"

#include <cstring>
#include <string_view>

#include "common/error.hpp"

namespace zerosum::aggregator {

namespace {

// --- encode helpers (little-endian, fixed width) ---------------------------

void putU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFFU));
  out.push_back(static_cast<char>((v >> 8U) & 0xFFU));
}

/// Appends the sizeof(T) little-endian bytes of `v` in one call.
template <typename T>
void putLittleEndian(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8U * i)) & 0xFFU);
  }
  out.append(bytes, sizeof(T));
}

void putU32(std::string& out, std::uint32_t v) { putLittleEndian(out, v); }

void putU64(std::string& out, std::uint64_t v) { putLittleEndian(out, v); }

void putI32(std::string& out, std::int32_t v) {
  putU32(out, static_cast<std::uint32_t>(v));
}

void putF64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  putU64(out, bits);
}

void putString(std::string& out, std::string_view s) {
  if (s.size() > 0xFFFFU) {
    throw ParseError("wire: string exceeds 65535 bytes");
  }
  putU16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s);
}

// --- decode helpers --------------------------------------------------------

class PayloadReader {
 public:
  PayloadReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() {
    need(2);
    const auto lo = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(data_[pos_]));
    const auto hi = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(data_[pos_ + 1]));
    pos_ += 2;
    return static_cast<std::uint16_t>(lo | (hi << 8U));
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
               data_[pos_ + static_cast<std::size_t>(i)]))
           << (8U * static_cast<unsigned>(i));
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
               data_[pos_ + static_cast<std::size_t>(i)]))
           << (8U * static_cast<unsigned>(i));
    }
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() { return std::string(view()); }

  /// A string's bytes, in place.
  std::string_view view() {
    const std::uint16_t n = u16();
    need(n);
    const std::string_view s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  void done() const {
    if (pos_ != size_) {
      throw ParseError("wire: " + std::to_string(size_ - pos_) +
                       " trailing payload byte(s)");
    }
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > size_) {
      throw ParseError("wire: truncated payload");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool named(const IdRecord& record) {
  return record.name != names::kInvalidId;
}

bool named(const SeriesBlocks::Block& block) {
  return block.key.job != names::kInvalidId &&
         block.key.metric != names::kInvalidId;
}

/// What declareNames() found in a kBatch or kForward frame.
struct Declared {
  std::uint32_t named = 0;  ///< records or blocks the frame carries
  std::size_t bytes = 8;    ///< its names section and what follows it
};

/// Declares, in `names`, every name the frame's kBatch records or
/// kForward blocks reference.
Declared declareNames(const Frame& frame, NameRefs& names) {
  names.beginFrame();
  Declared out;
  if (frame.kind == FrameKind::kBatch) {
    for (const IdRecord& record : frame.records) {
      if (named(record)) {
        names.refer(record.name);
        ++out.named;
        out.bytes += 20;
      }
    }
  } else {
    for (const SeriesBlocks::Block& block : frame.forwardSeries.blocks()) {
      if (named(block)) {
        names.refer(block.key.job);
        names.refer(block.key.metric);
        ++out.named;
        out.bytes += 16 + 41 * block.count;
      }
    }
  }
  for (const names::Id id : names.declared()) {
    out.bytes += 2 + names::lookup(id).size();
  }
  return out;
}

/// Writes the names section of the frame declareNames() just declared.
void putNames(std::string& p, const NameRefs& names) {
  putU32(p, static_cast<std::uint32_t>(names.declared().size()));
  for (const names::Id id : names.declared()) {
    putString(p, names::lookup(id));
  }
}

/// Appends the frame's payload to `p`; kBatch and kForward names go
/// through `names`.
void encodePayload(const Frame& frame, NameRefs& names, std::string& p) {
  switch (frame.kind) {
    case FrameKind::kHello:
      putString(p, frame.hello.job);
      putI32(p, frame.hello.rank);
      putI32(p, frame.hello.worldSize);
      putString(p, frame.hello.hostname);
      putI32(p, frame.hello.pid);
      break;
    case FrameKind::kBatch: {
      const Declared declared = declareNames(frame, names);
      p.reserve(p.size() + 40 + declared.bytes);  // one allocation
      putF64(p, frame.timeSeconds);
      putU64(p, frame.batchSeq);
      putF64(p, frame.enqueueSeconds);
      putF64(p, frame.encodeSeconds);
      putF64(p, frame.prevRoundtripSeconds);
      putNames(p, names);
      putU32(p, declared.named);
      for (const IdRecord& r : frame.records) {
        if (named(r)) {
          putF64(p, r.timeSeconds);
          putU32(p, names.refer(r.name));
          putF64(p, r.value);
        }
      }
      break;
    }
    case FrameKind::kBatchAck:
      putU64(p, frame.batchSeq);
      putU8(p, static_cast<std::uint8_t>(frame.pressure));
      break;
    case FrameKind::kHealth:
      putU64(p, frame.health.samplesTaken);
      putU64(p, frame.health.samplesDegraded);
      putU64(p, frame.health.samplesDropped);
      putU64(p, frame.health.loopOverruns);
      putU32(p, frame.health.quarantined);
      break;
    case FrameKind::kHeartbeat:
    case FrameKind::kGoodbye:
      putF64(p, frame.timeSeconds);
      break;
    case FrameKind::kQuery:
    case FrameKind::kResponse:
      // JSON payloads can exceed the u16 string limit; length is implied
      // by the frame length.
      p.append(frame.text);
      break;
    case FrameKind::kForward: {
      putF64(p, frame.timeSeconds);
      putU64(p, frame.batchSeq);
      putU8(p, frame.hopCount);
      putString(p, frame.origin);
      putI32(p, frame.rankLo);
      putI32(p, frame.rankHi);
      putU16(p, static_cast<std::uint16_t>(frame.forwardSources.size()));
      for (const auto& s : frame.forwardSources) {
        putString(p, s.job);
        putI32(p, s.rank);
        putI32(p, s.worldSize);
        putString(p, s.hostname);
        putU8(p, s.state);
        putF64(p, s.lastSeenAgeSeconds);
      }
      const Declared declared = declareNames(frame, names);
      p.reserve(p.size() + declared.bytes);
      putNames(p, names);
      putU32(p, declared.named);
      for (const auto& block : frame.forwardSeries.blocks()) {
        if (!named(block)) {
          continue;
        }
        putU32(p, names.refer(block.key.job));
        putI32(p, block.key.rank);
        putU32(p, names.refer(block.key.metric));
        putU32(p, static_cast<std::uint32_t>(block.count));
        for (const WindowSnapshot& w : frame.forwardSeries.windows(block)) {
          putU8(p, static_cast<std::uint8_t>(w.resolution));
          putU64(p, static_cast<std::uint64_t>(w.windowIndex));
          putF64(p, w.rollup.min);
          putF64(p, w.rollup.max);
          putF64(p, w.rollup.sum);
          putU64(p, w.rollup.count);
        }
      }
      break;
    }
    case FrameKind::kCatalogAnnounce:
      putU8(p, static_cast<std::uint8_t>(frame.catalogEntry.role));
      putString(p, frame.catalogEntry.name);
      putString(p, frame.catalogEntry.host);
      putI32(p, frame.catalogEntry.port);
      putU32(p, frame.catalogEntry.shardLo);
      putU32(p, frame.catalogEntry.shardHi);
      putU64(p, frame.catalogEntry.generation);
      break;
    case FrameKind::kCatalogAck:
      putU64(p, frame.catalogEntry.generation);
      putF64(p, frame.catalogTtlSeconds);
      break;
  }
}

/// Reads a names section, appending the local id of each declared name
/// to the connection's table `names`.
void readNames(PayloadReader& in, std::vector<names::Id>& names) {
  const std::uint32_t count = in.u32();
  // 2 bytes = an empty name; a count past the rest of the payload, or
  // past the connection's cap, is refused before anything is interned.
  if (static_cast<std::size_t>(count) * 2 > in.remaining()) {
    throw ParseError("wire: names count exceeds payload");
  }
  if (names.size() + count > kMaxConnectionNames) {
    throw ParseError("wire: connection declares more than " +
                     std::to_string(kMaxConnectionNames) + " names");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    names.push_back(names::intern(in.view()));
  }
}

/// Resolves a name reference through the connection's table.
names::Id resolve(const std::vector<names::Id>& names, std::uint32_t ref) {
  if (ref >= names.size()) {
    throw ParseError("wire: name reference " + std::to_string(ref) +
                     " not declared");
  }
  return names[ref];
}

Frame decodePayload(FrameKind kind, const char* data, std::size_t size,
                    std::vector<names::Id>& names) {
  Frame frame;
  frame.kind = kind;
  PayloadReader in(data, size);
  switch (kind) {
    case FrameKind::kHello:
      frame.hello.job = in.str();
      frame.hello.rank = in.i32();
      frame.hello.worldSize = in.i32();
      frame.hello.hostname = in.str();
      frame.hello.pid = in.i32();
      in.done();
      break;
    case FrameKind::kBatch: {
      frame.timeSeconds = in.f64();
      frame.batchSeq = in.u64();
      frame.enqueueSeconds = in.f64();
      frame.encodeSeconds = in.f64();
      frame.prevRoundtripSeconds = in.f64();
      readNames(in, names);
      const std::uint32_t count = in.u32();
      if (static_cast<std::size_t>(count) * 20 > in.remaining()) {
        throw ParseError("wire: batch record count exceeds payload");
      }
      frame.records.resize(count);
      for (IdRecord& r : frame.records) {
        r.timeSeconds = in.f64();
        r.name = resolve(names, in.u32());
        r.value = in.f64();
      }
      in.done();
      break;
    }
    case FrameKind::kHealth:
      frame.health.samplesTaken = in.u64();
      frame.health.samplesDegraded = in.u64();
      frame.health.samplesDropped = in.u64();
      frame.health.loopOverruns = in.u64();
      frame.health.quarantined = in.u32();
      in.done();
      break;
    case FrameKind::kHeartbeat:
    case FrameKind::kGoodbye:
      frame.timeSeconds = in.f64();
      in.done();
      break;
    case FrameKind::kBatchAck: {
      frame.batchSeq = in.u64();
      const std::uint8_t level = in.u8();
      if (level > static_cast<std::uint8_t>(PressureLevel::kOverloaded)) {
        throw ParseError("wire: unknown pressure level " +
                         std::to_string(level));
      }
      frame.pressure = static_cast<PressureLevel>(level);
      in.done();
      break;
    }
    case FrameKind::kQuery:
    case FrameKind::kResponse:
      frame.text.assign(data, size);
      break;
    case FrameKind::kForward: {
      frame.timeSeconds = in.f64();
      frame.batchSeq = in.u64();
      frame.hopCount = in.u8();
      frame.origin = in.str();
      frame.rankLo = in.i32();
      frame.rankHi = in.i32();
      const std::uint16_t sourceCount = in.u16();
      frame.forwardSources.reserve(sourceCount);
      for (std::uint16_t i = 0; i < sourceCount; ++i) {
        ForwardSource s;
        s.job = in.str();
        s.rank = in.i32();
        s.worldSize = in.i32();
        s.hostname = in.str();
        s.state = in.u8();
        if (s.state > 2) {
          throw ParseError("wire: unknown forwarded source state " +
                           std::to_string(s.state));
        }
        s.lastSeenAgeSeconds = in.f64();
        frame.forwardSources.push_back(std::move(s));
      }
      readNames(in, names);
      const std::uint32_t seriesCount = in.u32();
      // Minimum encodings: a window 41 bytes, a block 16 more; no sender
      // writes a block without windows.
      if (static_cast<std::size_t>(seriesCount) * 57 > in.remaining()) {
        throw ParseError("wire: forward series count exceeds payload");
      }
      // Sized once: buffers grown by doubling leave freed holes that the
      // receiver's new series nodes fill, and its snapshot walks slow.
      frame.forwardSeries.reserve(seriesCount, in.remaining() / 41);
      for (std::uint32_t i = 0; i < seriesCount; ++i) {
        // A braced list is evaluated in order: fields read as laid out.
        frame.forwardSeries.open() = {resolve(names, in.u32()), in.i32(),
                                      resolve(names, in.u32())};
        const std::uint32_t windowCount = in.u32();
        if (windowCount == 0) {
          throw ParseError("wire: forward block without windows");
        }
        if (static_cast<std::size_t>(windowCount) * 41 > in.remaining()) {
          throw ParseError("wire: forward window count exceeds payload");
        }
        for (std::uint32_t j = 0; j < windowCount; ++j) {
          const std::uint8_t resolution = in.u8();
          if (resolution > 1) {
            throw ParseError("wire: unknown forward resolution " +
                             std::to_string(resolution));
          }
          frame.forwardSeries.push({static_cast<Resolution>(resolution),
                                    static_cast<std::int64_t>(in.u64()),
                                    {in.f64(), in.f64(), in.f64(), in.u64()}});
        }
      }
      in.done();
      break;
    }
    case FrameKind::kCatalogAnnounce: {
      const std::uint8_t role = in.u8();
      if (role > static_cast<std::uint8_t>(DaemonRole::kRoot)) {
        throw ParseError("wire: unknown daemon role " + std::to_string(role));
      }
      frame.catalogEntry.role = static_cast<DaemonRole>(role);
      frame.catalogEntry.name = in.str();
      frame.catalogEntry.host = in.str();
      frame.catalogEntry.port = in.i32();
      frame.catalogEntry.shardLo = in.u32();
      frame.catalogEntry.shardHi = in.u32();
      if (frame.catalogEntry.shardLo >= kShardSpace ||
          frame.catalogEntry.shardHi >= kShardSpace ||
          frame.catalogEntry.shardLo > frame.catalogEntry.shardHi) {
        throw ParseError("wire: catalog shard range out of bounds");
      }
      frame.catalogEntry.generation = in.u64();
      in.done();
      break;
    }
    case FrameKind::kCatalogAck:
      frame.catalogEntry.generation = in.u64();
      frame.catalogTtlSeconds = in.f64();
      in.done();
      break;
  }
  return frame;
}

bool validKind(std::uint8_t k) {
  return k >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         k <= static_cast<std::uint8_t>(FrameKind::kCatalogAck);
}

}  // namespace

const char* daemonRoleName(DaemonRole role) {
  switch (role) {
    case DaemonRole::kNode: return "node";
    case DaemonRole::kGroup: return "group";
    case DaemonRole::kRoot: return "root";
  }
  return "?";
}

DaemonRole daemonRoleFromString(const std::string& name) {
  if (name == "node") return DaemonRole::kNode;
  if (name == "group") return DaemonRole::kGroup;
  if (name == "root") return DaemonRole::kRoot;
  throw ParseError("unknown daemon role '" + name +
                   "' (expected node|group|root)");
}

const char* pressureLevelName(PressureLevel level) {
  switch (level) {
    case PressureLevel::kOk: return "ok";
    case PressureLevel::kElevated: return "elevated";
    case PressureLevel::kOverloaded: return "overloaded";
  }
  return "?";
}

void NameRefs::clear() {
  refs_.clear();
  declared_ = 0;
  fresh_.clear();
}

std::uint32_t NameRefs::refer(names::Id id) {
  if (id >= refs_.size()) {
    refs_.resize(std::size_t{id} + 1, 0);
  }
  if (refs_[id] == 0) {
    fresh_.push_back(id);
    refs_[id] = ++declared_;
  }
  return refs_[id] - 1;
}

std::string encodeFrame(const Frame& frame, NameRefs& names) {
  if (!validKind(static_cast<std::uint8_t>(frame.kind))) {
    throw ParseError("wire: cannot encode frame kind " +
                     std::to_string(static_cast<int>(frame.kind)));
  }
  // Encode the payload directly after the 6-byte header, then patch the
  // length in place: one string, no payload copy.
  std::string out(4, '\0');
  putU8(out, kWireVersion);
  putU8(out, static_cast<std::uint8_t>(frame.kind));
  encodePayload(frame, names, out);
  const std::size_t payloadSize = out.size() - 6;
  if (payloadSize > kMaxPayloadBytes) {
    throw ParseError("wire: frame payload exceeds " +
                     std::to_string(kMaxPayloadBytes) + " bytes");
  }
  for (unsigned i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((payloadSize >> (8U * i)) & 0xFFU);
  }
  return out;
}

std::string encodeFrame(const Frame& frame) {
  NameRefs names;
  return encodeFrame(frame, names);
}

void FrameReader::feed(const char* data, std::size_t size) {
  // Compact the buffer once the consumed prefix dominates, so a
  // long-lived connection does not grow the buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameReader::next(Frame& out) {
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 6) {
    return false;
  }
  const char* head = buffer_.data() + consumed_;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(head[i]))
              << (8U * static_cast<unsigned>(i));
  }
  if (length > kMaxPayloadBytes) {
    throw ParseError("wire: frame length " + std::to_string(length) +
                     " exceeds limit");
  }
  const std::uint8_t version = static_cast<std::uint8_t>(head[4]);
  if (version != kWireVersion) {
    throw ParseError("wire: version " + std::to_string(version) +
                     " (speaks " + std::to_string(kWireVersion) + ")");
  }
  const std::uint8_t kind = static_cast<std::uint8_t>(head[5]);
  if (!validKind(kind)) {
    throw ParseError("wire: unknown frame kind " + std::to_string(kind));
  }
  if (avail < 6 + static_cast<std::size_t>(length)) {
    return false;
  }
  out = decodePayload(static_cast<FrameKind>(kind), head + 6, length, names_);
  consumed_ += 6 + static_cast<std::size_t>(length);
  return true;
}

Frame decodeFrame(const std::string& bytes) {
  FrameReader reader;
  reader.feed(bytes);
  Frame frame;
  if (!reader.next(frame)) {
    throw ParseError("wire: incomplete frame");
  }
  if (reader.pendingBytes() != 0) {
    throw ParseError("wire: trailing bytes after frame");
  }
  return frame;
}

}  // namespace zerosum::aggregator
